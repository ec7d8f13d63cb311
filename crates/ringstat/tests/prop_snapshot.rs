//! Property tests for [`ringstat::SnapshotCell`]: a writer thread
//! spinning publishes while N reader threads hammer the cell — no reader
//! may ever observe a *torn* snapshot (a payload mixing two publishes).
//!
//! Tearing is made detectable by construction: every published payload
//! carries an internal invariant (`checksum == f(seq)` over a padded
//! body), so any cross-publish mixture fails the check. The version
//! counter's parity/equality protocol is what must prevent that.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use proptest::prelude::*;
use ringstat::SnapshotCell;

/// A payload wide enough that a single store cannot be atomic at the
/// hardware level, with a self-check: `pad[i] = seq + i` and
/// `checksum = seq * K`. Any torn mixture of two publishes breaks one of
/// the equations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct TornProbe {
    seq: u64,
    pad: [u64; 12],
    checksum: u64,
}

const K: u64 = 0x9E37_79B9_7F4A_7C15;

impl TornProbe {
    fn at(seq: u64) -> Self {
        let mut pad = [0u64; 12];
        for (i, p) in pad.iter_mut().enumerate() {
            *p = seq.wrapping_add(i as u64);
        }
        Self {
            seq,
            pad,
            checksum: seq.wrapping_mul(K),
        }
    }

    fn is_consistent(&self) -> bool {
        self.checksum == self.seq.wrapping_mul(K)
            && self
                .pad
                .iter()
                .enumerate()
                .all(|(i, &p)| p == self.seq.wrapping_add(i as u64))
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Writer spins `writes` publishes; `readers` threads read
    /// concurrently and assert every successful read is internally
    /// consistent and that observed sequence numbers never go backwards
    /// (the single writer publishes monotonically).
    #[test]
    fn concurrent_readers_never_observe_torn_snapshots(
        writes in 200u64..2_000,
        readers in 1usize..=4,
    ) {
        let cell = Arc::new(SnapshotCell::new(TornProbe::at(0)));
        let done = Arc::new(AtomicBool::new(false));

        let reader_handles: Vec<_> = (0..readers)
            .map(|_| {
                let cell = Arc::clone(&cell);
                let done = Arc::clone(&done);
                std::thread::spawn(move || {
                    let mut last_seq = 0u64;
                    let mut observed = 0u64;
                    // Read once more after the writer has finished: on a busy
                    // host a reader may first be scheduled only then, and the
                    // quiescent cell must still hand it a consistent value.
                    loop {
                        let finished = done.load(Ordering::Acquire);
                        if let Some(probe) = cell.read() {
                            assert!(
                                probe.is_consistent(),
                                "torn snapshot escaped: seq={} checksum={:#x}",
                                probe.seq,
                                probe.checksum
                            );
                            assert!(
                                probe.seq >= last_seq,
                                "sequence went backwards: {} -> {}",
                                last_seq,
                                probe.seq
                            );
                            last_seq = probe.seq;
                            observed += 1;
                        }
                        if finished {
                            break;
                        }
                    }
                    observed
                })
            })
            .collect();

        for seq in 1..=writes {
            cell.publish(TornProbe::at(seq));
            if seq % 64 == 0 {
                std::thread::yield_now();
            }
        }
        done.store(true, Ordering::Release);

        for h in reader_handles {
            let observed = h.join().expect("reader panicked (torn snapshot)");
            prop_assert!(observed > 0, "reader never completed a read");
        }

        // After the writer quiesces, the final value is exactly the last
        // publish and the version count is exact (2 per publish).
        prop_assert_eq!(cell.read(), Some(TornProbe::at(writes)));
        prop_assert_eq!(cell.version(), writes * 2);
    }
}

/// Version parity is externally observable: an even version means a
/// read at that instant would have been accepted, and versions strictly
/// increase across publishes.
#[test]
fn version_parity_tracks_publishes() {
    let cell = SnapshotCell::new(TornProbe::at(0));
    let mut prev = cell.version();
    assert_eq!(prev % 2, 0);
    for seq in 1..=100 {
        cell.publish(TornProbe::at(seq));
        let v = cell.version();
        assert_eq!(v % 2, 0, "stable cell must have even version");
        assert!(v > prev, "version must strictly increase");
        prev = v;
    }
}
