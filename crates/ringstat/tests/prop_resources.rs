//! Property tests for the `ringprof` time ledger: under *arbitrary*
//! stage sequences — any mix of stage additions, any CPU reading, any
//! wall time, including wildly over-reported stages — every bucket is
//! non-negative, the buckets sum to at most the wall time (in fact
//! exactly, since `other` is the explicit remainder), and the
//! conservation arithmetic never produces NaN or a share outside
//! `[0, 1]`.

use proptest::collection::vec;
use proptest::prelude::*;
use ringstat::{ResourceSample, Stage, StageAccount, TimeLedger};

/// An arbitrary stage sequence: a list of `(stage, nanos)` additions,
/// folded into one `StageAccount` the way a worker's events add them.
fn stages_of(adds: &[(u8, u64)]) -> StageAccount {
    let mut a = StageAccount::default();
    for &(which, ns) in adds {
        a.add(Stage::ALL[(which % 6) as usize], ns);
    }
    a
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Buckets are individually bounded by wall and sum *exactly* to
    /// wall — `other` absorbs the remainder explicitly, so nothing is
    /// ever silently dropped or double-counted, no matter how skewed
    /// the recorded stages are relative to the true wall time.
    #[test]
    fn ledger_buckets_conserve_under_arbitrary_stages(
        adds in vec((0u8..6, 0u64..2_000_000_000), 0..24),
        wall in 0u64..4_000_000_000,
        cpu in 0u64..8_000_000_000,
    ) {
        let stages = stages_of(&adds);
        let l = TimeLedger::build(wall, &stages, cpu);
        prop_assert_eq!(l.wall_nanos, wall);
        for (name, ns) in l.buckets() {
            prop_assert!(ns <= wall, "{} = {} > wall {}", name, ns, wall);
        }
        let sum: u64 = l.buckets().iter().map(|&(_, ns)| ns).sum();
        prop_assert_eq!(sum, wall, "buckets must sum exactly to wall");
        prop_assert_eq!(l.accounted_nanos() + l.other_nanos, wall);
        let share = l.accounted_share();
        prop_assert!((0.0..=1.0).contains(&share), "share {}", share);
        prop_assert!((share + l.unaccounted_share() - 1.0).abs() < 1e-9);
        // The restated rule: stages that fit the wall are reproduced to the
        // nanosecond — buckets minus `other` equal the in-batch wall —
        // and only a clamped ledger fails to conserve.
        let in_batch = stages.total();
        prop_assert_eq!(l.batch_nanos, in_batch);
        prop_assert_eq!(l.conserves(), in_batch <= wall);
        if in_batch <= wall {
            prop_assert_eq!(wall - l.other_nanos, in_batch);
            prop_assert_eq!(
                l.compute_nanos,
                stages.get(Stage::Sample) + stages.get(Stage::Plan) + stages.get(Stage::Scatter)
            );
            prop_assert_eq!(l.submit_nanos, stages.get(Stage::Submit));
        }
        // The io_wait/reap split partitions the completion stages.
        let complete = stages.complete().min(
            wall.saturating_sub(stages.get(Stage::Submit).min(wall)),
        );
        prop_assert_eq!(l.io_wait_nanos + l.reap_nanos, complete);
        // io_wait can never exceed the thread's off-CPU time.
        prop_assert!(l.io_wait_nanos <= wall.saturating_sub(cpu.min(wall)));
    }

    /// Merging ledgers preserves conservation: the fleet roll-up's
    /// buckets still sum exactly to the summed wall time.
    #[test]
    fn merged_ledgers_conserve(
        a_adds in vec((0u8..6, 0u64..1_000_000_000), 0..12),
        b_adds in vec((0u8..6, 0u64..1_000_000_000), 0..12),
        a_wall in 0u64..2_000_000_000,
        b_wall in 0u64..2_000_000_000,
        a_cpu in 0u64..2_000_000_000,
        b_cpu in 0u64..2_000_000_000,
    ) {
        let mut m = TimeLedger::build(a_wall, &stages_of(&a_adds), a_cpu);
        m.merge(&TimeLedger::build(b_wall, &stages_of(&b_adds), b_cpu));
        let sum: u64 = m.buckets().iter().map(|&(_, ns)| ns).sum();
        prop_assert_eq!(sum, m.wall_nanos);
        prop_assert_eq!(m.wall_nanos, a_wall + b_wall);
    }

    /// delta(now, earlier) then merge is monotone and never underflows,
    /// for arbitrary counter pairs.
    #[test]
    fn sample_delta_never_underflows(
        a in vec(0u64..u64::MAX / 4, 7),
        b in vec(0u64..u64::MAX / 4, 7),
    ) {
        let mk = |v: &[u64]| ResourceSample {
            cpu_nanos: v[0],
            user_nanos: v[1],
            sys_nanos: v[2],
            vol_ctx_switches: v[3],
            invol_ctx_switches: v[4],
            minor_faults: v[5],
            major_faults: v[6],
        };
        let (x, y) = (mk(&a), mk(&b));
        let d = x.delta(&y);
        prop_assert!(d.cpu_nanos <= x.cpu_nanos);
        let mut m = d;
        m.merge(&d);
        prop_assert_eq!(m.cpu_nanos, d.cpu_nanos * 2);
    }
}
