#![cfg_attr(not(test), deny(clippy::disallowed_types, clippy::disallowed_methods, clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable, clippy::todo, clippy::unimplemented, clippy::indexing_slicing, clippy::allow_attributes, clippy::allow_attributes_without_reason))]
//! `ringprof` — kernel-truth resource attribution.
//!
//! Everything else in this crate measures the sampler from the *inside*:
//! wall-clock stage timings and logical byte counters. This module is the
//! outside view — what the kernel says each worker actually consumed:
//!
//! * [`ResourceSample`] — a point-in-time reading of the calling thread's
//!   CPU clock (`CLOCK_THREAD_CPUTIME_ID`) and its scheduler/fault counters
//!   (`getrusage(RUSAGE_THREAD)`). Two samples subtract into an interval
//!   via [`ResourceSample::delta`].
//! * [`proc_io_now`] — the *process-wide* I/O counters, parsed
//!   dependency-free from `/proc/self/io`; the epoch driver brackets each
//!   epoch with it.
//! * [`thread_cpu_nanos`] — the one call sanctioned on the per-batch hot
//!   path: a single `clock_gettime` read, no `getrusage`, no procfs.
//!
//! Nothing here splits time: where a worker's in-batch time went is its
//! [`StageAccount`](crate::StageAccount), and the time between its batches
//! is its epoch wall minus the account's total.
//!
//! ## Sources and their failure modes
//!
//! * `CLOCK_THREAD_CPUTIME_ID` — per-thread, nanosecond resolution,
//!   cheap (vDSO-accelerated on common targets). Valid only on the
//!   thread being measured, which is why workers sample themselves.
//! * `getrusage(RUSAGE_THREAD)` — user/sys split, voluntary/involuntary
//!   context switches, minor/major faults. Also thread-scoped; the
//!   user/sys split has scheduler-tick granularity, so short intervals
//!   can legitimately read `0`.
//! * `/proc/self/io` — `rchar` (bytes requested from the kernel through
//!   read paths) and `read_bytes` (bytes fetched from the storage
//!   layer). Both are **process-wide**: per-worker physical bytes can
//!   only be attributed proportionally, and consumers must label them
//!   as such. `read_bytes` is ~0 when the page cache is warm, and
//!   `rchar` is not incremented by `io_uring` reads on current kernels
//!   — both are properties of the kernel counters, not bugs here, and
//!   are documented where the ratios surface. If `/proc` is unmounted
//!   the fields read as 0 and every derived ratio degrades to 0 rather
//!   than erroring.

/// A point-in-time kernel resource reading for the calling thread.
///
/// All fields are monotonically increasing counters; subtract two
/// samples with [`delta`](Self::delta) to get an interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ResourceSample {
    /// Thread CPU time (user + sys) in nanoseconds, from
    /// `CLOCK_THREAD_CPUTIME_ID`.
    pub cpu_nanos: u64,
    /// User-mode CPU nanoseconds from `getrusage` (tick granularity).
    pub user_nanos: u64,
    /// Kernel-mode CPU nanoseconds from `getrusage` (tick granularity).
    pub sys_nanos: u64,
    /// Voluntary context switches (blocked waiting: I/O, futex, ...).
    pub vol_ctx_switches: u64,
    /// Involuntary context switches (preempted: CPU contention signal).
    pub invol_ctx_switches: u64,
    /// Minor page faults (no I/O required).
    pub minor_faults: u64,
    /// Major page faults (required I/O — cold page cache signal).
    pub major_faults: u64,
}

impl ResourceSample {
    /// Takes a full sample for the calling thread: one `clock_gettime`
    /// and one `getrusage(RUSAGE_THREAD)`.
    ///
    /// This is an **epoch-boundary** call; the per-batch path must use
    /// [`thread_cpu_nanos`] instead.
    #[expect(clippy::disallowed_methods, reason = "this is the epoch-boundary sampler; each caller carries its own expect")]
    pub fn now() -> Self {
        let mut s = Self {
            cpu_nanos: thread_cpu_nanos(),
            ..Self::default()
        };
        let mut ru = libc::rusage::default();
        // SAFETY: `ru` is a valid, writable out-parameter; RUSAGE_THREAD
        // scopes the query to the calling thread.
        if unsafe { libc::getrusage(libc::RUSAGE_THREAD, &mut ru) } == 0 {
            s.user_nanos = timeval_nanos(ru.ru_utime);
            s.sys_nanos = timeval_nanos(ru.ru_stime);
            s.vol_ctx_switches = ru.ru_nvcsw.max(0) as u64;
            s.invol_ctx_switches = ru.ru_nivcsw.max(0) as u64;
            s.minor_faults = ru.ru_minflt.max(0) as u64;
            s.major_faults = ru.ru_majflt.max(0) as u64;
        }
        s
    }

    /// Counter-wise `self − earlier`, saturating at zero so a clock
    /// hiccup can never produce a negative interval.
    pub fn delta(&self, earlier: &Self) -> Self {
        Self {
            cpu_nanos: self.cpu_nanos.saturating_sub(earlier.cpu_nanos),
            user_nanos: self.user_nanos.saturating_sub(earlier.user_nanos),
            sys_nanos: self.sys_nanos.saturating_sub(earlier.sys_nanos),
            vol_ctx_switches: self
                .vol_ctx_switches
                .saturating_sub(earlier.vol_ctx_switches),
            invol_ctx_switches: self
                .invol_ctx_switches
                .saturating_sub(earlier.invol_ctx_switches),
            minor_faults: self.minor_faults.saturating_sub(earlier.minor_faults),
            major_faults: self.major_faults.saturating_sub(earlier.major_faults),
        }
    }

    /// Folds another *interval* into this one: every counter is
    /// thread-scoped (each worker measured its own thread), so they add.
    pub fn merge(&mut self, other: &Self) {
        self.cpu_nanos = self.cpu_nanos.saturating_add(other.cpu_nanos);
        self.user_nanos = self.user_nanos.saturating_add(other.user_nanos);
        self.sys_nanos = self.sys_nanos.saturating_add(other.sys_nanos);
        self.vol_ctx_switches = self.vol_ctx_switches.saturating_add(other.vol_ctx_switches);
        self.invol_ctx_switches = self
            .invol_ctx_switches
            .saturating_add(other.invol_ctx_switches);
        self.minor_faults = self.minor_faults.saturating_add(other.minor_faults);
        self.major_faults = self.major_faults.saturating_add(other.major_faults);
    }
}

/// Converts a `timeval` to nanoseconds, clamping negatives to zero.
fn timeval_nanos(tv: libc::timeval) -> u64 {
    let sec = tv.tv_sec.max(0) as u64;
    let usec = tv.tv_usec.max(0) as u64;
    sec.saturating_mul(1_000_000_000)
        .saturating_add(usec.saturating_mul(1_000))
}

/// Reads the calling thread's CPU clock (`CLOCK_THREAD_CPUTIME_ID`) in
/// nanoseconds. This is the **only** resource read sanctioned on the
/// per-batch hot path: a single clock read, no rusage, no procfs.
pub fn thread_cpu_nanos() -> u64 {
    let mut ts = libc::timespec::default();
    // SAFETY: `ts` is a valid, writable out-parameter.
    if unsafe { libc::clock_gettime(libc::CLOCK_THREAD_CPUTIME_ID, &mut ts) } != 0 {
        return 0;
    }
    (ts.tv_sec.max(0) as u64)
        .saturating_mul(1_000_000_000)
        .saturating_add(ts.tv_nsec.max(0) as u64)
}

/// Parses `read_bytes` and `rchar` out of `/proc/self/io` text. Pure and
/// dependency-free so it is unit-testable without procfs; unknown lines
/// are ignored, missing fields read as 0.
pub fn parse_proc_io(text: &str) -> (u64, u64) {
    let mut read_bytes = 0u64;
    let mut rchar = 0u64;
    for line in text.lines() {
        let mut it = line.splitn(2, ':');
        let key = it.next().unwrap_or("").trim();
        let val = it
            .next()
            .unwrap_or("")
            .trim()
            .parse::<u64>()
            .unwrap_or(0);
        match key {
            "read_bytes" => read_bytes = val,
            "rchar" => rchar = val,
            _ => {}
        }
    }
    (read_bytes, rchar)
}

/// Reads `(read_bytes, rchar)` from `/proc/self/io`. Both are
/// **process-wide**. Returns `(0, 0)` if procfs is unavailable — every
/// derived ratio then degrades to 0 instead of erroring.
#[expect(clippy::disallowed_methods, reason = "this is the epoch-boundary procfs read; each caller carries its own expect")]
pub fn proc_io_now() -> (u64, u64) {
    match std::fs::read_to_string("/proc/self/io") {
        Ok(text) => parse_proc_io(&text),
        Err(_) => (0, 0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_proc_io_extracts_both_fields() {
        let text = "rchar: 1048576\nwchar: 4096\nsyscr: 100\nsyscw: 2\n\
                    read_bytes: 20480\nwrite_bytes: 0\ncancelled_write_bytes: 0\n";
        assert_eq!(parse_proc_io(text), (20480, 1048576));
    }

    #[test]
    fn parse_proc_io_tolerates_garbage() {
        assert_eq!(parse_proc_io(""), (0, 0));
        assert_eq!(parse_proc_io("rchar: not-a-number\nnoise"), (0, 0));
        assert_eq!(parse_proc_io("read_bytes:42"), (42, 0));
    }

    #[test]
    fn live_sample_is_monotone_under_cpu_work() {
        let a = ResourceSample::now();
        let mut x = 0u64;
        for i in 0..200_000u64 {
            x = x.wrapping_add(i.wrapping_mul(i));
        }
        std::hint::black_box(x);
        let b = ResourceSample::now();
        let d = b.delta(&a);
        assert!(b.cpu_nanos >= a.cpu_nanos, "thread CPU clock must be monotone");
        assert!(d.cpu_nanos > 0, "spinning must consume thread CPU");
    }

    #[test]
    fn delta_saturates_instead_of_underflowing() {
        let big = ResourceSample {
            cpu_nanos: 100,
            ..Default::default()
        };
        let d = ResourceSample::default().delta(&big);
        assert_eq!(d.cpu_nanos, 0);
    }

    #[test]
    fn merge_adds_thread_fields() {
        let mut a = ResourceSample {
            cpu_nanos: 10,
            vol_ctx_switches: 3,
            ..Default::default()
        };
        let b = ResourceSample {
            cpu_nanos: 5,
            vol_ctx_switches: 2,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.cpu_nanos, 15);
        assert_eq!(a.vol_ctx_switches, 5);
    }

    #[test]
    fn hot_path_clock_is_cheap_and_monotone() {
        let a = thread_cpu_nanos();
        let b = thread_cpu_nanos();
        assert!(b >= a);
    }
}
