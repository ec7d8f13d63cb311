//! What the benchmark asks of the host: process counters, page-cache
//! control, a speed reference, and the fingerprint printed with results.

use std::fs::File;
use std::os::unix::io::AsRawFd;
use std::path::Path;
use std::time::Instant;

use ringstat::Json;

/// User + system CPU time of the whole process, in nanoseconds.
pub fn cpu_ns() -> u64 {
    const RUSAGE_SELF: libc::c_int = 0;
    let mut ru = libc::rusage::default();
    // SAFETY: `ru` is a valid, writable `struct rusage`; RUSAGE_SELF is a
    // scope every Linux accepts.
    if unsafe { libc::getrusage(RUSAGE_SELF, &mut ru) } != 0 {
        return 0;
    }
    let ns =
        |t: libc::timeval| t.tv_sec.max(0) as u64 * 1_000_000_000 + t.tv_usec.max(0) as u64 * 1_000;
    ns(ru.ru_utime) + ns(ru.ru_stime)
}

/// Peak resident set (`VmHWM`) of this process, in kB.
pub fn vm_hwm_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}

/// Resets `VmHWM` to the current resident set, so that the output check's
/// in-memory copy of the graph does not count as the sampler's peak.
pub fn reset_hwm() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Bytes this process has made the storage layer fetch so far.
pub fn phys_read_bytes() -> u64 {
    ringstat::proc_io_now().0
}

/// `posix_fadvise(fd, 0, 0, POSIX_FADV_DONTNEED)`: asks the kernel to drop
/// the file's clean pages from the page cache.
pub fn drop_file_cache(file: &File) -> std::io::Result<()> {
    #[cfg(target_arch = "x86_64")]
    const SYS_FADVISE64: libc::c_long = 221;
    #[cfg(target_arch = "aarch64")]
    const SYS_FADVISE64: libc::c_long = 223;
    const POSIX_FADV_DONTNEED: libc::c_int = 4;
    // SAFETY: fadvise64 takes a file descriptor and three integers and
    // touches no user memory; the descriptor is open for `file`'s lifetime.
    let r = unsafe {
        libc::syscall(
            SYS_FADVISE64,
            file.as_raw_fd(),
            0i64,
            0i64,
            POSIX_FADV_DONTNEED,
        )
    };
    if r == 0 {
        Ok(())
    } else {
        Err(std::io::Error::last_os_error())
    }
}

/// A fixed, memory-free spin kernel: nanoseconds per 1000 dependent
/// xorshift-multiply steps, as the fastest of five repeats. A run whose
/// value is off, or drifts between start and end, was disturbed.
pub fn ref_ns() -> f64 {
    const STEPS: u64 = 1 << 22;
    let mut best = f64::INFINITY;
    for rep in 0..5u64 {
        let mut x = 0x9E37_79B9_7F4A_7C15u64 ^ rep;
        let t = Instant::now();
        for _ in 0..STEPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x = x.wrapping_mul(0x2545_F491_4F6C_DD1D);
        }
        std::hint::black_box(x);
        best = best.min(t.elapsed().as_nanos() as f64 * 1000.0 / STEPS as f64);
    }
    best
}

/// File-system type of the mount that holds `dir`, from `/proc/self/mountinfo`.
fn fs_type(dir: &Path) -> String {
    let dir = dir.canonicalize().unwrap_or_else(|_| dir.to_path_buf());
    let text = std::fs::read_to_string("/proc/self/mountinfo").unwrap_or_default();
    let mut best: (usize, String) = (0, "unknown".into());
    for line in text.lines() {
        // "<id> <parent> <maj:min> <root> <mount point> ... - <fs type> ..."
        let Some((left, right)) = line.split_once(" - ") else {
            continue;
        };
        let (Some(mount), Some(fs)) = (left.split(' ').nth(4), right.split(' ').next()) else {
            continue;
        };
        if dir.starts_with(mount) && mount.len() >= best.0 {
            best = (mount.len(), fs.to_string());
        }
    }
    best.1
}

/// Kernel, cores, io_uring features and the data directory's file system.
pub fn fingerprint(data_dir: &Path) -> Json {
    let caps = ringsampler_io::uring_caps();
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease").unwrap_or_default();
    Json::object()
        .with("kernel", Json::str(kernel.trim()))
        .with(
            "nproc",
            Json::U64(std::thread::available_parallelism().map_or(0, |n| n.get() as u64)),
        )
        .with(
            "engine",
            Json::str(&ringsampler_io::default_engine().to_string()),
        )
        .with(
            "uring_caps",
            Json::object()
                .with("read_op", Json::Bool(caps.read_op))
                .with("registered_ring_fds", Json::Bool(caps.registered_ring_fds))
                .with("defer_taskrun", Json::Bool(caps.defer_taskrun))
                .with("buf_ring", Json::Bool(caps.buf_ring))
                .with("features", Json::U64(u64::from(caps.features))),
        )
        .with("data_fs", Json::str(&fs_type(data_dir)))
}
