//! Property tests for [`ringstat::EventRing`]: arbitrary write/drain
//! interleavings against a reference model. Below capacity **no event is
//! ever lost or reordered**; above capacity the ring keeps the newest
//! events and **every overwritten event is counted** in the drop counter —
//! the ring never silently truncates.

use proptest::prelude::*;
use ringstat::{EventKind, EventRing, TraceEvent};

fn ev(seq: u64) -> TraceEvent {
    TraceEvent {
        ts_ns: seq,
        kind: EventKind::GroupSubmit,
        a: seq,
        b: seq.wrapping_mul(3),
        c: 0,
        d: 0,
    }
}

/// One step of an interleaving: write `0..=24` events, or drain.
#[derive(Debug, Clone)]
enum Op {
    Write(u8),
    Drain,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // Roughly 3:1 writes to drains; write bursts of 0..=23 events.
    (0u8..=31).prop_map(|v| if v >= 24 { Op::Drain } else { Op::Write(v) })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Replays a random interleaving against a FIFO model that drops its
    /// oldest event when full: drains must return exactly the model's
    /// undrained events in order, and `dropped()` must equal the number of
    /// events the model overwrote.
    #[test]
    fn interleavings_lose_nothing_below_capacity_and_count_every_drop(
        capacity in 1usize..=32,
        ops in proptest::collection::vec(op_strategy(), 1..40),
    ) {
        let ring = EventRing::new(capacity);
        prop_assert_eq!(ring.capacity(), capacity.max(1));

        let mut next_seq = 0u64;
        let mut pending: Vec<u64> = Vec::new(); // undrained, newest last
        let mut expect_dropped = 0u64;

        for op in &ops {
            match op {
                Op::Write(n) => {
                    for _ in 0..*n {
                        ring.record(ev(next_seq));
                        if pending.len() == ring.capacity() {
                            pending.remove(0);
                            expect_dropped += 1;
                        }
                        pending.push(next_seq);
                        next_seq += 1;
                    }
                }
                Op::Drain => {
                    let drained = ring.drain();
                    let got: Vec<u64> = drained.iter().map(|e| e.a).collect();
                    prop_assert_eq!(&got, &pending, "drain mismatch");
                    for e in &drained {
                        prop_assert_eq!(e.b, e.a.wrapping_mul(3), "payload tear");
                        prop_assert_eq!(e.kind, EventKind::GroupSubmit);
                    }
                    pending.clear();
                }
            }
            prop_assert_eq!(ring.len(), pending.len());
            prop_assert_eq!(ring.dropped(), expect_dropped);
        }

        // Final drain returns the residual model state; nothing extra
        // appears, and the accounting identity holds exactly.
        let final_drained: Vec<u64> = ring.drain().iter().map(|e| e.a).collect();
        prop_assert_eq!(final_drained, pending);
        prop_assert_eq!(ring.dropped(), expect_dropped);
        prop_assert_eq!(ring.head(), next_seq);
    }

    /// A writer that never outruns the drain cadence loses nothing, no
    /// matter how the batch sizes land relative to capacity.
    #[test]
    fn draining_at_capacity_boundaries_preserves_everything(
        capacity in 1usize..=16,
        rounds in 1usize..=20,
    ) {
        let ring = EventRing::new(capacity);
        let mut seq = 0u64;
        let mut all: Vec<u64> = Vec::new();
        for _ in 0..rounds {
            for _ in 0..capacity {
                ring.record(ev(seq));
                seq += 1;
            }
            all.extend(ring.drain().iter().map(|e| e.a));
        }
        prop_assert_eq!(ring.dropped(), 0);
        let expect: Vec<u64> = (0..seq).collect();
        prop_assert_eq!(all, expect);
    }

    /// For n records into a ring of capacity c, with no drain between:
    /// `recent(k)` is the last min(k, n, c) events, `drain` the last
    /// min(n, c) in order, and `dropped` is n − min(n, c).
    #[test]
    fn the_ring_keeps_the_newest_events(
        capacity in 1usize..=32,
        n in 0u64..=100,
        k in 0usize..=40,
    ) {
        let ring = EventRing::new(capacity);
        for seq in 0..n {
            ring.record(ev(seq));
        }
        let last = |m: u64| -> Vec<u64> { (n - m..n).collect() };
        let kept = n.min(capacity as u64);
        let recent: Vec<u64> = ring.recent(k).iter().map(|e| e.a).collect();
        prop_assert_eq!(recent, last(kept.min(k as u64)));
        let drained: Vec<u64> = ring.drain().iter().map(|e| e.a).collect();
        prop_assert_eq!(drained, last(kept));
        prop_assert_eq!(ring.dropped(), n - kept);
    }
}
