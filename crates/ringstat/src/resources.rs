//! `ringprof` — kernel-truth resource attribution.
//!
//! Everything else in this crate measures the sampler from the *inside*:
//! wall-clock stage timings and logical byte counters. This module is the
//! outside view — what the kernel says each worker actually consumed:
//!
//! * [`ResourceSample`] — a point-in-time reading of the calling thread's
//!   CPU clock (`CLOCK_THREAD_CPUTIME_ID`), its scheduler/fault counters
//!   (`getrusage(RUSAGE_THREAD)`), and the *process-wide* I/O counters
//!   parsed dependency-free from `/proc/self/io`. Two samples subtract
//!   into an interval via [`ResourceSample::delta`].
//! * [`thread_cpu_nanos`] — the one call sanctioned on the per-batch hot
//!   path: a single `clock_gettime` read, no `getrusage`, no procfs.
//! * [`TimeLedger`] — folds the stage attribution of the worker's lap
//!   clock ([`PhaseTimes`]) together with thread CPU time into the
//!   buckets `{compute, submit, io_wait, reap, other}`. The four stage
//!   buckets sum *exactly* to the in-batch wall the clock measured —
//!   that identity is the conservation rule — and `other` is the wall
//!   time between batches, reported explicitly and never gated.
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

use crate::span::{Phase, PhaseTimes};

/// A point-in-time kernel resource reading for the calling thread (plus
/// the process-wide `/proc/self/io` counters).
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
    /// **Process-wide** bytes fetched from the storage layer
    /// (`read_bytes` in `/proc/self/io`); ~0 when the page cache is warm.
    pub proc_read_bytes: u64,
    /// **Process-wide** bytes requested through kernel read paths
    /// (`rchar` in `/proc/self/io`); not bumped by `io_uring` reads.
    pub proc_rchar: u64,
}

impl ResourceSample {
    /// An all-zero sample.
    pub const fn zero() -> Self {
        Self {
            cpu_nanos: 0,
            user_nanos: 0,
            sys_nanos: 0,
            vol_ctx_switches: 0,
            invol_ctx_switches: 0,
            minor_faults: 0,
            major_faults: 0,
            proc_read_bytes: 0,
            proc_rchar: 0,
        }
    }

    /// Takes a full sample for the calling thread: one `clock_gettime`,
    /// one `getrusage(RUSAGE_THREAD)`, and one `/proc/self/io` read.
    ///
    /// This is an **epoch-boundary** call (3 syscalls + a procfs file);
    /// the per-batch path must use [`thread_cpu_nanos`] instead.
    pub fn now() -> Self {
        let mut s = Self::zero();
        s.cpu_nanos = thread_cpu_nanos();
        let mut ru = libc::rusage::default();
        // SAFETY: `ru` is a valid, writable out-parameter; RUSAGE_THREAD
        // scopes the query to the calling thread.
        // ringlint: allow(resource-discipline) — this IS the epoch-boundary sampler; callers are audited at their own sites
        if unsafe { libc::getrusage(libc::RUSAGE_THREAD, &mut ru) } == 0 {
            s.user_nanos = timeval_nanos(ru.ru_utime);
            s.sys_nanos = timeval_nanos(ru.ru_stime);
            s.vol_ctx_switches = ru.ru_nvcsw.max(0) as u64;
            s.invol_ctx_switches = ru.ru_nivcsw.max(0) as u64;
            s.minor_faults = ru.ru_minflt.max(0) as u64;
            s.major_faults = ru.ru_majflt.max(0) as u64;
        }
        // ringlint: allow(resource-discipline) — this IS the epoch-boundary sampler; callers are audited at their own sites
        let (read_bytes, rchar) = proc_io_now();
        s.proc_read_bytes = read_bytes;
        s.proc_rchar = rchar;
        s
    }

    /// Counter-wise `self − earlier`, saturating at zero so a clock
    /// hiccup or procfs quirk can never produce a negative interval.
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
            proc_read_bytes: self
                .proc_read_bytes
                .saturating_sub(earlier.proc_read_bytes),
            proc_rchar: self.proc_rchar.saturating_sub(earlier.proc_rchar),
        }
    }

    /// Folds another *interval* into this one: thread-scoped counters
    /// add (each worker measured its own thread), while the
    /// process-wide `proc_*` fields take the max — every worker observed
    /// the same process counters, so summing them would multiply the
    /// real traffic by the worker count.
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
        self.proc_read_bytes = self.proc_read_bytes.max(other.proc_read_bytes);
        self.proc_rchar = self.proc_rchar.max(other.proc_rchar);
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
pub fn proc_io_now() -> (u64, u64) {
    match std::fs::read_to_string("/proc/self/io") {
        Ok(text) => parse_proc_io(&text),
        Err(_) => (0, 0),
    }
}

/// A per-worker epoch time ledger: wall time split into five buckets
/// that sum exactly to wall. The four stage buckets come from the
/// worker's lap clock, which charges every in-batch nanosecond to one
/// stage, so together they equal the in-batch wall; `other` is what lies
/// between batches.
///
/// | bucket    | meaning                                                |
/// |-----------|--------------------------------------------------------|
/// | `compute` | the prepare and aggregate stages: drawing offsets,     |
/// |           | cache probe, read planning, frontier reduce, decode    |
/// | `submit`  | group building + SQE preparation + `io_uring_enter`    |
/// | `io_wait` | off-CPU time inside the completion stage (blocked on   |
/// |           | CQEs)                                                  |
/// | `reap`    | on-CPU time inside the completion stage (polling and   |
/// |           | draining CQEs)                                         |
/// | `other`   | wall time outside every batch — the consumer's         |
/// |           | callback, the sample's drop, thread start and join.    |
/// |           | Reported, never gated: the sampler does not own it.    |
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TimeLedger {
    /// Wall-clock nanoseconds the ledger covers.
    pub wall_nanos: u64,
    /// In-batch wall nanoseconds the stage clock measured (the sum of
    /// its four phases): what the stage buckets must add up to.
    pub batch_nanos: u64,
    /// Prepare + aggregate stage nanoseconds.
    pub compute_nanos: u64,
    /// Submission-stage nanoseconds.
    pub submit_nanos: u64,
    /// Off-CPU completion-wait nanoseconds.
    pub io_wait_nanos: u64,
    /// On-CPU completion-reap nanoseconds.
    pub reap_nanos: u64,
    /// Wall nanoseconds outside every batch.
    pub other_nanos: u64,
}

impl TimeLedger {
    /// Builds a ledger from one worker's wall time, its stage
    /// attribution, and its measured thread CPU time.
    ///
    /// The completion stage's wall time is split by the CPU clock: the
    /// part the thread spent off-CPU is `io_wait`, the on-CPU part is
    /// `reap` (with `cpu_nanos = 0`, profiling off, all of it is wait).
    /// Stage time cannot exceed the wall that contains it; should the
    /// inputs say otherwise (phases carried over from an earlier epoch)
    /// the stages are clamped in pipeline order so the five buckets still
    /// sum to `wall_nanos`, and [`conserves`](Self::conserves) reports it.
    pub fn build(wall_nanos: u64, phases: &PhaseTimes, cpu_nanos: u64) -> Self {
        let wall = wall_nanos;
        let submit = phases.get(Phase::Submit).min(wall);
        let complete = phases.get(Phase::Complete).min(wall - submit);
        let compute = phases
            .get(Phase::Prepare)
            .saturating_add(phases.get(Phase::Aggregate))
            .min(wall - submit - complete);
        let io_wait = complete.min(wall.saturating_sub(cpu_nanos));
        Self {
            wall_nanos: wall,
            batch_nanos: phases.total(),
            compute_nanos: compute,
            submit_nanos: submit,
            io_wait_nanos: io_wait,
            reap_nanos: complete - io_wait,
            other_nanos: wall - submit - complete - compute,
        }
    }

    /// Nanoseconds attributed to a named bucket (everything but `other`).
    pub fn accounted_nanos(&self) -> u64 {
        self.compute_nanos
            .saturating_add(self.submit_nanos)
            .saturating_add(self.io_wait_nanos)
            .saturating_add(self.reap_nanos)
    }

    /// `accounted / wall` in `[0, 1]`; an empty ledger counts as fully
    /// accounted.
    pub fn accounted_share(&self) -> f64 {
        if self.wall_nanos == 0 {
            return 1.0;
        }
        self.accounted_nanos() as f64 / self.wall_nanos as f64
    }

    /// The between-batches share, `other / wall`.
    pub fn unaccounted_share(&self) -> f64 {
        1.0 - self.accounted_share()
    }

    /// The conservation rule: the stage buckets sum exactly to the
    /// in-batch wall. Holds by construction whenever the stages fit in
    /// the wall; false only if [`build`](Self::build) had to clamp.
    pub fn conserves(&self) -> bool {
        self.accounted_nanos() == self.batch_nanos
    }

    /// Bucket-wise add (for fleet roll-ups). Lossless: sums conserve
    /// because each addend conserves.
    pub fn merge(&mut self, other: &TimeLedger) {
        self.wall_nanos = self.wall_nanos.saturating_add(other.wall_nanos);
        self.batch_nanos = self.batch_nanos.saturating_add(other.batch_nanos);
        self.compute_nanos = self.compute_nanos.saturating_add(other.compute_nanos);
        self.submit_nanos = self.submit_nanos.saturating_add(other.submit_nanos);
        self.io_wait_nanos = self.io_wait_nanos.saturating_add(other.io_wait_nanos);
        self.reap_nanos = self.reap_nanos.saturating_add(other.reap_nanos);
        self.other_nanos = self.other_nanos.saturating_add(other.other_nanos);
    }

    /// `(name, nanos)` pairs in canonical display order.
    pub fn buckets(&self) -> [(&'static str, u64); 5] {
        [
            ("compute", self.compute_nanos),
            ("submit", self.submit_nanos),
            ("io_wait", self.io_wait_nanos),
            ("reap", self.reap_nanos),
            ("other", self.other_nanos),
        ]
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
        // Reading /proc/self/io in now() itself moves rchar forward.
        assert!(b.proc_rchar >= a.proc_rchar);
    }

    #[test]
    fn delta_saturates_instead_of_underflowing() {
        let mut big = ResourceSample::zero();
        big.cpu_nanos = 100;
        let d = ResourceSample::zero().delta(&big);
        assert_eq!(d.cpu_nanos, 0);
    }

    #[test]
    fn merge_adds_thread_fields_and_maxes_process_fields() {
        let mut a = ResourceSample::zero();
        a.cpu_nanos = 10;
        a.vol_ctx_switches = 3;
        a.proc_read_bytes = 500;
        a.proc_rchar = 900;
        let mut b = ResourceSample::zero();
        b.cpu_nanos = 5;
        b.vol_ctx_switches = 2;
        b.proc_read_bytes = 700;
        b.proc_rchar = 100;
        a.merge(&b);
        assert_eq!(a.cpu_nanos, 15);
        assert_eq!(a.vol_ctx_switches, 5);
        assert_eq!(a.proc_read_bytes, 700, "process-wide fields take max");
        assert_eq!(a.proc_rchar, 900);
    }

    #[test]
    fn ledger_conserves_exactly_on_clean_input() {
        let mut phases = PhaseTimes::new();
        phases.add(Phase::Prepare, 200);
        phases.add(Phase::Submit, 100);
        phases.add(Phase::Complete, 400);
        phases.add(Phase::Aggregate, 100);
        // 1000ns wall, 500ns on CPU: completion stage splits 400 into
        // 400 off-CPU wait (off_cpu = 500 >= 400) and 0 reap.
        let l = TimeLedger::build(1000, &phases, 500);
        assert_eq!(l.submit_nanos, 100);
        assert_eq!(l.io_wait_nanos, 400);
        assert_eq!(l.reap_nanos, 0);
        assert_eq!(l.compute_nanos, 300, "prepare + aggregate, nothing else");
        assert_eq!(l.other_nanos, 200, "the time between batches");
        assert_eq!(l.accounted_nanos(), phases.total());
        assert_eq!(l.accounted_nanos() + l.other_nanos, l.wall_nanos);
        assert!(l.conserves());
    }

    #[test]
    fn ledger_splits_busy_completion_into_reap() {
        let mut phases = PhaseTimes::new();
        phases.add(Phase::Complete, 600);
        // Thread was on-CPU the whole second: completion time is reap,
        // not io_wait — and CPU burnt between batches stays in `other`.
        let l = TimeLedger::build(1000, &phases, 1000);
        assert_eq!(l.io_wait_nanos, 0);
        assert_eq!(l.reap_nanos, 600);
        assert_eq!(l.compute_nanos, 0);
        assert_eq!(l.other_nanos, 400);
        assert!(l.conserves());
    }

    #[test]
    fn ledger_degrades_to_stage_walls_without_cpu_profiling() {
        let mut phases = PhaseTimes::new();
        phases.add(Phase::Prepare, 300);
        phases.add(Phase::Submit, 100);
        phases.add(Phase::Complete, 500);
        phases.add(Phase::Aggregate, 50);
        let l = TimeLedger::build(1000, &phases, 0);
        assert_eq!(l.io_wait_nanos, 500, "no CPU signal: completion is wait");
        assert_eq!(l.reap_nanos, 0);
        assert_eq!(l.compute_nanos, 350);
        assert_eq!(l.other_nanos, 50);
        assert!(l.conserves());
    }

    #[test]
    fn ledger_clamps_overreported_stages() {
        let mut phases = PhaseTimes::new();
        phases.add(Phase::Submit, 5_000);
        phases.add(Phase::Complete, 5_000);
        phases.add(Phase::Prepare, 5_000);
        let l = TimeLedger::build(1000, &phases, 1000);
        let sum: u64 = l.buckets().iter().map(|&(_, ns)| ns).sum();
        assert_eq!(sum, 1000, "buckets must sum exactly to wall");
        assert_eq!(l.submit_nanos, 1000);
        assert!(!l.conserves(), "stages that cannot fit the wall are flagged");
    }

    #[test]
    fn merged_ledgers_still_conserve() {
        let mut phases = PhaseTimes::new();
        phases.add(Phase::Submit, 100);
        phases.add(Phase::Complete, 300);
        let mut a = TimeLedger::build(1000, &phases, 600);
        let b = TimeLedger::build(500, &phases, 450);
        a.merge(&b);
        assert_eq!(a.wall_nanos, 1500);
        assert_eq!(a.accounted_nanos(), 800);
        assert_eq!(a.accounted_nanos() + a.other_nanos, 1500);
        assert!(a.conserves());
    }

    #[test]
    fn hot_path_clock_is_cheap_and_monotone() {
        let a = thread_cpu_nanos();
        let b = thread_cpu_nanos();
        assert!(b >= a);
    }
}
