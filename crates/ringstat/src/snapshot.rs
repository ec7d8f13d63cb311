#![cfg_attr(not(test), deny(clippy::disallowed_types, clippy::disallowed_methods, clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable, clippy::todo, clippy::unimplemented, clippy::indexing_slicing, clippy::allow_attributes, clippy::allow_attributes_without_reason))]
//! Single-writer seqlock snapshot cells — the sync-free publishing half
//! of `ringscope` live telemetry.
//!
//! Each sampling worker owns one [`SnapshotCell`] and overwrites it after
//! every mini-batch with a plain (volatile) store of a `Copy` payload,
//! bracketed by two version-counter stores. Readers (the telemetry
//! thread) never block the writer: they sample the version, copy the
//! payload, and re-check the version, retrying if a write raced with the
//! copy. The worker's publish path therefore contains **no locks, no
//! RMW atomics, no syscalls** — just two word-sized stores and one
//! fence, which is what keeps the paper's §3.1 sync-free claim intact
//! while still giving outside observers a live view.
//!
//! ## Memory-ordering argument
//!
//! The protocol is the classic seqlock (as used by the Linux kernel and
//! `crossbeam`'s `AtomicCell` fallback):
//!
//! * **Writer**: `version ← odd` (relaxed) → `fence(Release)` →
//!   volatile payload stores → `version ← even` (release).
//! * **Reader**: `v1 ← version` (acquire) → volatile payload loads →
//!   `fence(Acquire)` → `v2 ← version` (relaxed); accept iff
//!   `v1 == v2` and `v1` is even.
//!
//! The release fence after the odd store orders the payload writes after
//! the odd marker, so a reader that loads an even `v1` and then sees
//! `v2 == v1` cannot have overlapped a write: the acquire fence before
//! the `v2` load orders the payload reads before it, and the final
//! release store orders the payload writes before any even version a
//! reader can observe. A torn read is therefore always detected by the
//! parity or equality check and retried — never returned.
//!
//! Payload accesses are volatile because they intentionally race (the
//! reader may copy while the writer stores); the versioned retry
//! protocol discards every value obtained from a racing copy, so no
//! decision is ever made on torn data.

use std::cell::UnsafeCell;
use std::sync::atomic::{fence, AtomicU64, Ordering};

use crate::counters::SampleMetrics;
use crate::stage::StageAccount;

/// Bounded retries in [`SnapshotCell::read`] before giving up. A
/// single-writer cell can only stay torn this long if the writer died
/// mid-publish, in which case `None` is the honest answer.
const READ_RETRIES: usize = 64;

/// A worker's live progress snapshot: the worker's own record — the
/// counters and stage account its epoch report will carry, copied whole —
/// plus what only its telemetry slot knows, in one `Copy` struct published
/// through a [`SnapshotCell`] with a single volatile store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WorkerSnapshot {
    /// Epoch counter (increments at each `sample_epoch` / loader run).
    pub epoch: u64,
    /// Mini-batches assigned to this worker for the current epoch
    /// (0 when unknown, e.g. streaming loaders).
    pub total_batches: u64,
    /// Seed nodes of the batches completed so far.
    pub seeds: u64,
    /// True while the worker is actively sampling; flipped off at epoch
    /// join so the watchdog ignores finished workers.
    pub active: bool,
    /// Cumulative thread CPU nanoseconds consumed this epoch
    /// (`CLOCK_THREAD_CPUTIME_ID`, read after every batch since the
    /// epoch's first); `/metrics` exports it as
    /// `ringsampler_worker_cpu_nanos_total`.
    pub cpu_nanos: u64,
    /// The worker's counters.
    pub metrics: SampleMetrics,
    /// The worker's stage account: the six stage sums and the batch, group
    /// and CQ-wait histograms.
    pub account: StageAccount,
}

/// A single-writer seqlock cell holding one `Copy` value.
///
/// **Contract**: exactly one thread (the owning worker) may call the
/// write-side methods ([`publish`](Self::publish),
/// [`begin_write`](Self::begin_write), [`write_payload`](Self::write_payload),
/// [`commit_write`](Self::commit_write)); any number of threads may call
/// the read side concurrently. The write side is wait-free; the read
/// side retries while a write is in progress.
pub struct SnapshotCell<T> {
    /// Even ⇒ stable, odd ⇒ write in progress; strictly increasing.
    version: AtomicU64,
    value: UnsafeCell<T>,
}

// SAFETY: the cell is shared across threads by design. All concurrent
// access to `value` goes through the seqlock protocol above: the single
// writer's volatile stores are bracketed by version transitions, and
// readers discard any copy whose bracketing version loads disagree or
// are odd, so no torn value ever escapes. `T: Copy` guarantees the
// payload has no drop glue or interior pointers to tear, and `T: Send`
// is required so the value itself may move between threads.
unsafe impl<T: Copy + Send> Sync for SnapshotCell<T> {}

impl<T: Copy + Send> SnapshotCell<T> {
    /// Creates a cell initialized to `initial`, version 0 (stable).
    pub const fn new(initial: T) -> Self {
        Self {
            version: AtomicU64::new(0),
            value: UnsafeCell::new(initial),
        }
    }

    /// Current version counter. Even ⇒ stable; strictly increases with
    /// every publish.
    pub fn version(&self) -> u64 {
        self.version.load(Ordering::Acquire)
    }

    /// Write side, step 1: mark a write in progress (version becomes
    /// odd). Exposed separately from [`publish`](Self::publish) so tests
    /// can exercise the reader's retry path deterministically.
    pub fn begin_write(&self) {
        let v = self.version.load(Ordering::Acquire);
        // The odd marker itself needs no release semantics: the fence
        // below orders it (and everything before it) ahead of the
        // payload stores, which is the only ordering the protocol needs.
        // ordering: seqlock odd-marker store is ordered by the explicit Release fence that follows
        self.version.store(v.wrapping_add(1), Ordering::Relaxed);
        fence(Ordering::Release);
    }

    /// Write side, step 2: overwrite the payload while the version is
    /// odd. Must be preceded by [`begin_write`](Self::begin_write).
    pub fn write_payload(&self, value: T) {
        // SAFETY: single-writer contract — only the owning thread calls
        // the write side, so no other thread writes `value` concurrently.
        // Concurrent readers may copy while we store; the volatile store
        // plus the versioned retry protocol ensures they discard any
        // torn copy. `T: Copy` means no drop glue runs on the overwrite.
        unsafe { std::ptr::write_volatile(self.value.get(), value) }
    }

    /// Write side, step 3: publish (version becomes even again).
    pub fn commit_write(&self) {
        let v = self.version.load(Ordering::Acquire);
        self.version.store(v.wrapping_add(1), Ordering::Release);
    }

    /// Publishes a new value: the whole wait-free write-side sequence.
    pub fn publish(&self, value: T) {
        self.begin_write();
        self.write_payload(value);
        self.commit_write();
    }

    /// One read attempt: `Some(value)` if the copy was not torn by a
    /// concurrent write, `None` if a write was in progress or raced.
    pub fn try_read(&self) -> Option<T> {
        let v1 = self.version.load(Ordering::Acquire);
        if v1 & 1 == 1 {
            return None; // write in progress
        }
        // SAFETY: `value` is valid for reads (initialized in `new`) and
        // `T: Copy`. The load may race with the writer's volatile store;
        // the version re-check below rejects any such torn copy, so the
        // racing value is never returned.
        let value = unsafe { std::ptr::read_volatile(self.value.get()) };
        fence(Ordering::Acquire);
        // The acquire fence above already orders the payload loads
        // before this check; the load itself needs no extra ordering.
        // ordering: seqlock validation re-load is ordered by the explicit Acquire fence above
        let v2 = self.version.load(Ordering::Relaxed);
        if v1 == v2 {
            Some(value)
        } else {
            None
        }
    }

    /// Reads with bounded retries (spinning past concurrent writes).
    /// Returns `None` only if the cell stayed torn for [`READ_RETRIES`]
    /// attempts — possible only if the writer died mid-publish.
    pub fn read(&self) -> Option<T> {
        for _ in 0..READ_RETRIES {
            if let Some(v) = self.try_read() {
                return Some(v);
            }
            std::hint::spin_loop();
        }
        None
    }
}

impl<T> std::fmt::Debug for SnapshotCell<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SnapshotCell")
            .field("version", &self.version.load(Ordering::Acquire))
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_cell_reads_initial_value() {
        let cell = SnapshotCell::new(7u64);
        assert_eq!(cell.version(), 0);
        assert_eq!(cell.try_read(), Some(7));
        assert_eq!(cell.read(), Some(7));
    }

    #[test]
    fn publish_advances_version_by_two() {
        let cell = SnapshotCell::new(0u64);
        cell.publish(1);
        assert_eq!(cell.version(), 2);
        assert_eq!(cell.read(), Some(1));
        cell.publish(2);
        assert_eq!(cell.version(), 4);
        assert_eq!(cell.read(), Some(2));
    }

    /// Deterministic, single-threaded walk through the retry path — the
    /// loom-style interleaving the concurrent proptest can only hit
    /// probabilistically: a reader that lands mid-write must observe the
    /// odd version and reject, and must succeed again after commit.
    #[test]
    fn reader_rejects_in_progress_write_and_recovers() {
        let cell = SnapshotCell::new(10u64);

        cell.begin_write();
        assert_eq!(cell.version() & 1, 1, "version must be odd mid-write");
        assert_eq!(cell.try_read(), None, "mid-write read must be rejected");
        assert_eq!(cell.read(), None, "bounded retry must give up mid-write");

        cell.write_payload(11);
        assert_eq!(cell.try_read(), None, "still mid-write after payload store");

        cell.commit_write();
        assert_eq!(cell.version() & 1, 0);
        assert_eq!(cell.try_read(), Some(11));
        assert_eq!(cell.read(), Some(11));
    }

    #[test]
    fn worker_snapshot_defaults_are_zero_and_inactive() {
        let s = WorkerSnapshot::default();
        assert_eq!(s.metrics.batches, 0);
        assert_eq!(s.metrics.sampled_edges, 0);
        assert!(!s.active);
        assert_eq!(s.account.batch_latency.count(), 0);
    }

    #[test]
    fn cell_is_sync_for_copy_payloads() {
        fn assert_sync<T: Sync>() {}
        assert_sync::<SnapshotCell<WorkerSnapshot>>();
    }

    #[test]
    fn debug_shows_version_only() {
        let cell = SnapshotCell::new(3u32);
        cell.publish(4);
        let dbg = format!("{cell:?}");
        assert!(dbg.contains("version: 2"), "{dbg}");
    }
}
