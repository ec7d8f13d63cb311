#![cfg_attr(not(test), deny(clippy::disallowed_types, clippy::disallowed_methods, clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable, clippy::todo, clippy::unimplemented, clippy::indexing_slicing, clippy::allow_attributes, clippy::allow_attributes_without_reason))]
//! Per-worker lifecycle flight recorder — the `ringtrace` event ring.
//!
//! Each sampling worker owns one [`EventRing`]: a fixed-capacity ring of
//! seqlock cells (one [`SnapshotCell`] per slot, reusing the audited
//! memory-ordering discipline of [`crate::snapshot`]) into which the
//! worker records compact [`TraceEvent`]s as its batches move through the
//! pipeline — batch start/end, read-plan construction, I/O-group submit
//! and completion, scatter/decode, cache hits and misses, registration
//! fallbacks. Recording is **allocation-free, lock-free, RMW-free and
//! never blocks**: when the ring is full, a new event overwrites the oldest
//! undrained one, which is counted in a drop counter, so the ring always
//! holds the worker's newest events and the paper's §3.1 sync-free
//! hot-path invariant holds (the hot-path clippy line above and the
//! `// ordering:` check in `tests/tests/invariants.rs` hold it there).
//!
//! ## Single-writer contract
//!
//! Exactly one thread — the owning worker — may call
//! [`record`](EventRing::record) and [`drain`](EventRing::drain). Any number of observer threads may
//! concurrently call the read side ([`recent`](EventRing::recent),
//! [`dropped`](EventRing::dropped), [`head`](EventRing::head)); they
//! never block the writer. All cursor atomics use store-only updates
//! (load-Acquire / store-Release, no `fetch_add`/CAS), which is sound
//! because only the single writer ever stores them.
//!
//! ## Timestamps
//!
//! The ring stores no clock. Callers stamp events with nanoseconds since
//! a shared epoch-start origin, so events from all workers of an epoch
//! share one timeline. The worker stamps its own events with the instant
//! of the stage-clock lap that measured them, so a stage event carries its
//! lap's duration and end; [`crate::stage`] says which word holds which
//! stage, and the worker's stage account is the fold of these events.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::snapshot::SnapshotCell;

/// What happened. Each variant documents the meaning of the generic
/// [`TraceEvent`] argument words `a`–`d` (unused words are zero).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum EventKind {
    /// A mini-batch began. `a` = batch index, `b` = seed (target) count.
    BatchStart = 0,
    /// A mini-batch finished. `a` = batch index, `b` = batch wall
    /// duration in ns, `c` = layers sampled.
    BatchEnd = 1,
    /// One layer's neighbor draws finished (CPU sampling stage, before
    /// the fetch). `a` = fanout, `b` = entries to fetch, `c` = sampling
    /// duration in ns. Also emitted with `a` = 0 for the inter-layer
    /// frontier reduce (neighbor dedup), which is the same stage's CPU
    /// work.
    SampleDone = 2,
    /// A read plan was built. `a` = requests in, `b` = requests out,
    /// `c` = bytes saved vs. the naive plan, `d` = planning duration ns.
    PlanBuilt = 3,
    /// An I/O group was submitted. `a` = group id (the worker's group
    /// count), `b` = requests in the group, `c` = requests handed to the
    /// reader and not yet got back, this group included (queue depth),
    /// `d` = the group's submit lap ns (forming the group, SQE prep and
    /// `io_uring_enter`).
    GroupSubmit = 4,
    /// An I/O group completed. `a` = group id, `b` = group latency ns
    /// (start of its submit lap → end of its completion lap, the same
    /// for every engine), `c` = ns of the completion lap the reader spent
    /// blocked waiting for a completion, `d` = the rest of the lap
    /// (non-blocking CQ reaping); `c + d` is the lap.
    GroupComplete = 5,
    /// Fetched payload was scattered/decoded into output order.
    /// `a` = entries placed, `b` = scatter duration ns.
    ScatterDone = 6,
    /// Cache hits resolved in one fetch call. `a` = hit count.
    CacheHit = 7,
    /// Cache misses (disk reads) in one fetch call. `a` = miss count.
    CacheMiss = 8,
    /// `register_file` failed; the worker degraded to plain fds.
    /// (Discriminant 9 was the registered-buffer fallback, removed with
    /// that pool; 10 is kept so recorded traces keep their meaning.)
    RegFileFallback = 10,
}

impl EventKind {
    /// Stable wire name used in JSON dumps and the `/trace` endpoint.
    pub fn name(self) -> &'static str {
        match self {
            EventKind::BatchStart => "batch_start",
            EventKind::BatchEnd => "batch_end",
            EventKind::SampleDone => "sample_done",
            EventKind::PlanBuilt => "plan_built",
            EventKind::GroupSubmit => "group_submit",
            EventKind::GroupComplete => "group_complete",
            EventKind::ScatterDone => "scatter_done",
            EventKind::CacheHit => "cache_hit",
            EventKind::CacheMiss => "cache_miss",
            EventKind::RegFileFallback => "regfile_fallback",
        }
    }

    /// Inverse of [`name`](Self::name); `None` for unknown names.
    pub fn from_name(name: &str) -> Option<Self> {
        Some(match name {
            "batch_start" => EventKind::BatchStart,
            "batch_end" => EventKind::BatchEnd,
            "sample_done" => EventKind::SampleDone,
            "plan_built" => EventKind::PlanBuilt,
            "group_submit" => EventKind::GroupSubmit,
            "group_complete" => EventKind::GroupComplete,
            "scatter_done" => EventKind::ScatterDone,
            "cache_hit" => EventKind::CacheHit,
            "cache_miss" => EventKind::CacheMiss,
            "regfile_fallback" => EventKind::RegFileFallback,
            _ => return None,
        })
    }
}

/// One compact lifecycle event: a timestamp, a kind, and four generic
/// argument words whose meaning is documented per [`EventKind`] variant.
/// `Copy` and fixed-size so it can live in a [`SnapshotCell`] slot and be
/// recorded without allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Nanoseconds since the epoch-start origin shared by all workers.
    pub ts_ns: u64,
    /// What happened.
    pub kind: EventKind,
    /// First argument word (see [`EventKind`]).
    pub a: u64,
    /// Second argument word.
    pub b: u64,
    /// Third argument word.
    pub c: u64,
    /// Fourth argument word.
    pub d: u64,
}

// A ring's slots start as zeroed memory, which must be a valid (unread)
// event: discriminant 0 is an `EventKind`.
const _: () = assert!(EventKind::BatchStart as u8 == 0);

/// A fixed-capacity, allocation-free, single-writer event ring that
/// keeps its newest events and counts the ones it overwrote. See the
/// module docs for the writer contract and memory-ordering argument.
pub struct EventRing {
    /// One seqlock cell per slot; slot `i % capacity` holds event `i`.
    slots: Box<[SnapshotCell<TraceEvent>]>,
    /// Monotonic count of events ever written (single-writer cursor).
    head: AtomicU64,
    /// The oldest undrained event: advanced by a drain, and by a record
    /// that overwrites it. `head - tail` is the ring occupancy.
    tail: AtomicU64,
    /// Events overwritten before a drain reached them.
    dropped: AtomicU64,
}

impl EventRing {
    /// Creates a ring holding at most `capacity` undrained events
    /// (clamped to at least 1). The slots are zeroed memory, so a slot's
    /// pages become resident only once an event is written there: a worker
    /// that records few events pays for those, not for the whole ring.
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        let slots = Box::<[SnapshotCell<TraceEvent>]>::new_zeroed_slice(capacity);
        // SAFETY: all-zero bytes are a valid `SnapshotCell<TraceEvent>`: the
        // version is an `AtomicU64` (same layout as `u64`), the value an
        // `UnsafeCell` (same layout as its `TraceEvent`) of five `u64`s and
        // an `EventKind` whose discriminant 0 exists (asserted above). It is
        // the cell `SnapshotCell::new` makes at version 0, and no slot is
        // read before an event is written to it (reads stop at `head`).
        let slots = unsafe { slots.assume_init() };
        Self {
            slots,
            head: AtomicU64::new(0),
            tail: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// Maximum undrained events the ring can hold.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Records one event (writer side; owning thread only). Wait-free:
    /// when the ring is full the event overwrites the oldest undrained one,
    /// which is counted in [`dropped`](Self::dropped) — never blocks, and
    /// never discards the newest event.
    pub fn record(&self, ev: TraceEvent) {
        let h = self.head.load(Ordering::Acquire);
        let t = self.tail.load(Ordering::Acquire);
        if h.wrapping_sub(t) >= self.slots.len() as u64 {
            // Store-only increments: sound because only the single writer
            // ever stores `tail` and `dropped`.
            self.tail.store(t.wrapping_add(1), Ordering::Release);
            let d = self.dropped.load(Ordering::Acquire);
            self.dropped.store(d.wrapping_add(1), Ordering::Release);
        }
        let idx = (h % self.slots.len() as u64) as usize;
        if let Some(slot) = self.slots.get(idx) {
            slot.publish(ev);
        }
        self.head.store(h.wrapping_add(1), Ordering::Release);
    }

    /// Drains every undrained event in write order and advances the tail
    /// (writer side; owning thread only — called at epoch join, off the
    /// hot path, so the returned `Vec` allocation is acceptable).
    pub fn drain(&self) -> Vec<TraceEvent> {
        let h = self.head.load(Ordering::Acquire);
        let t = self.tail.load(Ordering::Acquire);
        let mut out = Vec::with_capacity(h.wrapping_sub(t) as usize);
        let cap = self.slots.len() as u64;
        let mut i = t;
        while i < h {
            if let Some(ev) = self.slots.get((i % cap) as usize).and_then(SnapshotCell::try_read) {
                out.push(ev);
            }
            i = i.wrapping_add(1);
        }
        self.tail.store(h, Ordering::Release);
        out
    }

    /// Best-effort snapshot of the most recent `k` written events
    /// (reader side; any thread). Concurrent writes may tear individual
    /// slots — torn slots are skipped rather than retried, so the result
    /// can be shorter than `k`. Drained-but-not-yet-overwritten events
    /// still appear: this is a *tail of everything written*, which is
    /// exactly what a live `/trace` view wants.
    pub fn recent(&self, k: usize) -> Vec<TraceEvent> {
        let h = self.head.load(Ordering::Acquire);
        let n = (k as u64).min(h).min(self.slots.len() as u64);
        let cap = self.slots.len() as u64;
        let mut out = Vec::with_capacity(n as usize);
        let mut i = h.wrapping_sub(n);
        while i < h {
            if let Some(ev) = self.slots.get((i % cap) as usize).and_then(SnapshotCell::try_read) {
                out.push(ev);
            }
            i = i.wrapping_add(1);
        }
        out
    }

    /// Total events ever written (monotonic; readable from any thread).
    pub fn head(&self) -> u64 {
        self.head.load(Ordering::Acquire)
    }

    /// Undrained events currently held.
    pub fn len(&self) -> usize {
        let h = self.head.load(Ordering::Acquire);
        let t = self.tail.load(Ordering::Acquire);
        h.wrapping_sub(t) as usize
    }

    /// True if no undrained events are held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events overwritten before a drain reached them (readable from any
    /// thread).
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Acquire)
    }
}

impl std::fmt::Debug for EventRing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventRing")
            .field("capacity", &self.slots.len())
            .field("len", &self.len())
            .field("head", &self.head())
            .field("dropped", &self.dropped())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(ts: u64, kind: EventKind, a: u64) -> TraceEvent {
        TraceEvent {
            ts_ns: ts,
            kind,
            a,
            b: 0,
            c: 0,
            d: 0,
        }
    }

    #[test]
    fn records_and_drains_in_order() {
        let ring = EventRing::new(8);
        assert!(ring.is_empty());
        for i in 0..5 {
            ring.record(ev(i, EventKind::GroupSubmit, i));
        }
        assert_eq!(ring.len(), 5);
        let out = ring.drain();
        assert_eq!(out.len(), 5);
        for (i, e) in out.iter().enumerate() {
            assert_eq!(e.ts_ns, i as u64);
            assert_eq!(e.kind, EventKind::GroupSubmit);
        }
        assert!(ring.is_empty());
        assert_eq!(ring.dropped(), 0);
        assert_eq!(ring.head(), 5);
    }

    #[test]
    fn full_ring_drops_instead_of_blocking() {
        let ring = EventRing::new(4);
        for i in 0..10 {
            ring.record(ev(i, EventKind::BatchStart, i));
        }
        assert_eq!(ring.len(), 4);
        assert_eq!(ring.dropped(), 6);
        assert_eq!(ring.head(), 10, "every event is written");
        // The four *newest* events survive (overwrite-old, not drop-new).
        let out = ring.drain();
        let kept: Vec<u64> = out.iter().map(|e| e.ts_ns).collect();
        assert_eq!(kept, vec![6, 7, 8, 9]);
        // Capacity is available again after the drain.
        ring.record(ev(99, EventKind::BatchEnd, 0));
        assert_eq!(ring.drain().len(), 1);
        assert_eq!(ring.dropped(), 6, "drop counter is cumulative");
    }

    #[test]
    fn drain_wraps_across_ring_boundary() {
        let ring = EventRing::new(3);
        for round in 0..4u64 {
            ring.record(ev(2 * round, EventKind::ScatterDone, round));
            ring.record(ev(2 * round + 1, EventKind::ScatterDone, round));
            let out = ring.drain();
            assert_eq!(out.len(), 2, "round {round}");
            assert_eq!(out[0].ts_ns, 2 * round);
            assert_eq!(out[1].ts_ns, 2 * round + 1);
        }
        assert_eq!(ring.dropped(), 0);
    }

    #[test]
    fn recent_returns_tail_including_drained_events() {
        let ring = EventRing::new(8);
        for i in 0..6 {
            ring.record(ev(i, EventKind::CacheHit, i));
        }
        ring.drain();
        // Drained events are still visible to the live tail view.
        let tail = ring.recent(3);
        let ts: Vec<u64> = tail.iter().map(|e| e.ts_ns).collect();
        assert_eq!(ts, vec![3, 4, 5]);
        // Asking for more than was ever written returns everything.
        assert_eq!(ring.recent(100).len(), 6);
        assert_eq!(EventRing::new(4).recent(2).len(), 0);
    }

    #[test]
    fn zero_capacity_clamps_to_one() {
        let ring = EventRing::new(0);
        assert_eq!(ring.capacity(), 1);
        ring.record(ev(1, EventKind::PlanBuilt, 0));
        ring.record(ev(2, EventKind::PlanBuilt, 0));
        assert_eq!(ring.len(), 1);
        assert_eq!(ring.dropped(), 1);
        assert_eq!(ring.drain()[0].ts_ns, 2, "the newest event is kept");
    }

    #[test]
    fn kind_names_round_trip() {
        let kinds = [
            EventKind::BatchStart,
            EventKind::BatchEnd,
            EventKind::SampleDone,
            EventKind::PlanBuilt,
            EventKind::GroupSubmit,
            EventKind::GroupComplete,
            EventKind::ScatterDone,
            EventKind::CacheHit,
            EventKind::CacheMiss,
            EventKind::RegFileFallback,
        ];
        for k in kinds {
            assert_eq!(EventKind::from_name(k.name()), Some(k), "{}", k.name());
        }
        assert_eq!(EventKind::from_name("nope"), None);
    }

    #[test]
    fn ring_is_sync() {
        fn assert_sync<T: Sync + Send>() {}
        assert_sync::<EventRing>();
    }

    #[test]
    fn concurrent_reader_never_sees_torn_event() {
        use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
        use std::sync::Arc;
        let ring = Arc::new(EventRing::new(16));
        let stop = Arc::new(AtomicBool::new(false));
        let seen = Arc::new(AtomicU64::new(0));
        let reader = {
            let ring = Arc::clone(&ring);
            let stop = Arc::clone(&stop);
            let seen = Arc::clone(&seen);
            std::thread::spawn(move || {
                while !stop.load(Ordering::Acquire) {
                    for e in ring.recent(8) {
                        // Writer always stores a == b == ts_ns; a torn
                        // read would break the equality.
                        assert_eq!(e.a, e.b);
                        assert_eq!(e.a, e.ts_ns);
                        seen.fetch_add(1, Ordering::AcqRel);
                    }
                }
            })
        };
        // Keep writing until the reader has demonstrably observed events
        // (bounded so a wedged reader can't hang the suite).
        let mut i = 0u64;
        while (seen.load(Ordering::Acquire) == 0 && i < 50_000_000) || i < 20_000 {
            ring.record(TraceEvent {
                ts_ns: i,
                kind: EventKind::GroupComplete,
                a: i,
                b: i,
                c: 0,
                d: 0,
            });
            if i.is_multiple_of(64) {
                ring.drain();
            }
            i += 1;
        }
        stop.store(true, Ordering::Release);
        reader.join().expect("reader thread");
        assert!(seen.load(Ordering::Acquire) > 0, "reader should observe events");
    }
}
