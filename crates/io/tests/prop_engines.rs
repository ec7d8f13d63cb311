//! Property tests: the io_uring and pread engines are observationally
//! equivalent on arbitrary read patterns, and the ring survives arbitrary
//! interleavings of submission and completion.

use std::fs::File;
use std::os::unix::fs::FileExt;
use std::os::unix::io::AsRawFd;
use std::sync::OnceLock;

use proptest::prelude::*;

use ringsampler_io::engine::{GroupReader, GroupToken, PreadReader, ReadSlice, UringReader};
use ringsampler_io::Ring;

static CASE: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

fn data_file(len: usize) -> std::path::PathBuf {
    let id = CASE.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let path =
        std::env::temp_dir().join(format!("rs-io-prop-{}-{id}", std::process::id()));
    let data: Vec<u8> = (0..len).map(|i| (i * 31 % 251) as u8).collect();
    std::fs::write(&path, data).unwrap();
    path
}

/// Arbitrary in-bounds read patterns over a 64 KiB file.
fn arb_reads() -> impl Strategy<Value = Vec<ReadSlice>> {
    proptest::collection::vec(
        (0u64..65_000, 1u32..64).prop_map(|(off, len)| {
            let len = len.min((65_536 - off) as u32).max(1);
            ReadSlice::new(off, len)
        }),
        0..48,
    )
}

/// Pages between two slots of [`paged_file`]: wider than the readahead a
/// random miss starts, so each slot's page is fetched by its own reads.
const SLOT_PAGES: u64 = 64;
/// Slots in [`paged_file`].
const SLOTS: u64 = 32;

/// An 8 MiB file of little-endian u32s, each its own index, written back
/// to disk once and unlinked at once: the cases that drop it from the page
/// cache share it through this handle.
fn paged_file() -> &'static File {
    static FILE: OnceLock<File> = OnceLock::new();
    FILE.get_or_init(|| {
        let path = std::env::temp_dir().join(format!("rs-io-prop-paged-{}", std::process::id()));
        let n = (SLOTS * SLOT_PAGES * 1024) as u32;
        let data: Vec<u8> = (0..n).flat_map(u32::to_le_bytes).collect();
        std::fs::write(&path, data).unwrap();
        let file = File::open(&path).unwrap();
        file.sync_all().unwrap();
        std::fs::remove_file(&path).unwrap();
        file
    })
}

/// `posix_fadvise(DONTNEED)` on the whole of `file`: its clean pages leave
/// the page cache, so the next reads of them go to the device.
fn drop_cached(file: &File) {
    #[cfg(target_arch = "x86_64")]
    const SYS_FADVISE64: libc::c_long = 221;
    #[cfg(target_arch = "aarch64")]
    const SYS_FADVISE64: libc::c_long = 223;
    const POSIX_FADV_DONTNEED: libc::c_long = 4;
    // SAFETY: fadvise64 takes a descriptor and three integers and touches
    // no user memory; `file` is open for the call.
    let r = unsafe { libc::syscall(SYS_FADVISE64, file.as_raw_fd(), 0i64, 0i64, POSIX_FADV_DONTNEED) };
    assert_eq!(r, 0, "fadvise(DONTNEED): {}", std::io::Error::last_os_error());
}

/// Runs of 2–6 adjacent 4-byte reads, each on one page of a
/// [`paged_file`] slot: what a sorted group of a target's draws from one
/// neighbour list looks like. At least 24 reads.
fn arb_runs() -> impl Strategy<Value = Vec<ReadSlice>> {
    proptest::collection::vec((0..SLOTS, 0u64..1024, 2u64..=6), 12..32).prop_map(|runs| {
        runs.into_iter()
            .flat_map(|(slot, at, len)| {
                let page = slot * SLOT_PAGES * 4096;
                (0..len).map(move |i| ReadSlice::new(page + (at + 3 * i) % 1024 * 4, 4))
            })
            .collect()
    })
}

/// Reads `groups` the way the sampler's pipeline does, one group submitted
/// ahead of the one being completed.
fn pipelined(r: &mut dyn GroupReader, groups: &[&[ReadSlice]]) -> Vec<Vec<u8>> {
    let mut out = Vec::new();
    let mut ahead: Option<GroupToken> = None;
    for g in groups {
        let t = r.submit_group(g, Vec::new()).unwrap();
        if let Some(prev) = ahead.replace(t) {
            out.push(r.complete_group(prev).unwrap());
        }
    }
    if let Some(last) = ahead {
        out.push(r.complete_group(last).unwrap());
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Same-page runs read the same bytes from both engines, warm or cold.
    /// Cold, the reader holds a run's later reads until its first has
    /// landed; warm, it holds nothing and enters once per group. A cold
    /// case that holds nothing means the drop took no effect, and fails.
    #[test]
    fn same_page_runs_agree_warm_and_cold(reqs in arb_runs(), qd in 4usize..16, cold in 0u8..2) {
        let cold = cold == 1;
        let file = paged_file();
        if cold {
            drop_cached(file);
        } else {
            let mut all = vec![0; (SLOTS * SLOT_PAGES * 4096) as usize];
            file.read_exact_at(&mut all, 0).unwrap();
        }
        let groups: Vec<&[ReadSlice]> = reqs.chunks(qd).collect();
        let mut uring = UringReader::with_file(file.try_clone().unwrap(), qd as u32).unwrap();
        let got = pipelined(&mut uring, &groups);
        let mut pread = PreadReader::with_file(file.try_clone().unwrap(), qd as u32);
        prop_assert_eq!(&got, &pipelined(&mut pread, &groups));
        let stats = uring.stats();
        if cold {
            prop_assert!(
                stats.held > 0,
                "nothing held on a dropped file: POSIX_FADV_DONTNEED took no effect (is TMPDIR on tmpfs?)"
            );
        } else {
            prop_assert_eq!((stats.held, stats.syscalls), (0, groups.len() as u64));
        }
    }

    /// Any read pattern produces identical bytes from both engines.
    #[test]
    fn engines_agree_on_arbitrary_patterns(reqs in arb_reads(), qd in 1u32..64) {
        let path = data_file(65_536);
        let mut uring = UringReader::open(&path, qd.max(reqs.len() as u32).max(1)).unwrap();
        let mut pread = PreadReader::open(&path, qd.max(reqs.len() as u32).max(1)).unwrap();
        let tu = uring.submit_group(&reqs, Vec::new()).unwrap();
        let tp = pread.submit_group(&reqs, Vec::new()).unwrap();
        let bu = uring.complete_group(tu).unwrap();
        let bp = pread.complete_group(tp).unwrap();
        prop_assert_eq!(bu, bp);
        std::fs::remove_file(&path).ok();
    }

    /// Reads return exactly the file's bytes at the requested offsets.
    #[test]
    fn reads_match_ground_truth(reqs in arb_reads()) {
        let path = data_file(65_536);
        let truth = std::fs::read(&path).unwrap();
        let mut r = UringReader::open(&path, reqs.len().max(1) as u32).unwrap();
        let t = r.submit_group(&reqs, Vec::new()).unwrap();
        let buf = r.complete_group(t).unwrap();
        let mut cursor = 0usize;
        for req in &reqs {
            let got = &buf[cursor..cursor + req.len as usize];
            let want = &truth[req.offset as usize..req.offset as usize + req.len as usize];
            prop_assert_eq!(got, want);
            cursor += req.len as usize;
        }
        std::fs::remove_file(&path).ok();
    }

    /// Interleaved multi-group traffic never loses or corrupts a group.
    #[test]
    fn interleaved_groups_consistent(
        seeds in proptest::collection::vec(0u64..1000, 1..6),
        qd in 4u32..32,
    ) {
        let path = data_file(65_536);
        let truth = std::fs::read(&path).unwrap();
        let mut r = UringReader::open(&path, qd).unwrap();
        // Build one group per seed, all in flight simultaneously.
        let groups: Vec<Vec<ReadSlice>> = seeds
            .iter()
            .map(|&s| {
                (0..qd.min(8) as u64)
                    .map(|i| ReadSlice::new((s * 37 + i * 991) % 65_000, 4))
                    .collect()
            })
            .collect();
        let tokens: Vec<_> = groups
            .iter()
            .map(|g| r.submit_group(g, Vec::new()).unwrap())
            .collect();
        // Complete in reverse submission order (worst case for reordering).
        let mut results: Vec<Vec<u8>> = Vec::new();
        for t in tokens.into_iter().rev() {
            results.push(r.complete_group(t).unwrap());
        }
        results.reverse();
        for (g, buf) in groups.iter().zip(&results) {
            let mut cursor = 0;
            for req in g {
                prop_assert_eq!(
                    &buf[cursor..cursor + 4],
                    &truth[req.offset as usize..req.offset as usize + 4]
                );
                cursor += 4;
            }
        }
        std::fs::remove_file(&path).ok();
    }

    /// NOP storms never wedge the ring regardless of batch pattern.
    #[test]
    fn nop_storm(batches in proptest::collection::vec(1u32..32, 1..8)) {
        let mut ring = Ring::new(32).unwrap();
        let mut outstanding = 0u32;
        for (i, &n) in batches.iter().enumerate() {
            let n = n.min(ring.sq_space() as u32);
            for j in 0..n {
                ring.prepare_nop(((i as u64) << 32) | j as u64).unwrap();
            }
            ring.submit().unwrap();
            outstanding += n;
            // Drain roughly half each round.
            for _ in 0..(outstanding / 2) {
                ring.wait_completion().unwrap();
                outstanding -= 1;
            }
        }
        for _ in 0..outstanding {
            ring.wait_completion().unwrap();
        }
        prop_assert!(ring.peek_completion().is_none());
    }
}
