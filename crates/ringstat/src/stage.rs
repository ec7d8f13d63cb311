#![cfg_attr(not(test), deny(clippy::disallowed_types, clippy::disallowed_methods, clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable, clippy::todo, clippy::unimplemented, clippy::indexing_slicing, clippy::allow_attributes, clippy::allow_attributes_without_reason))]
//! Where a worker's in-batch time went: the stage vocabulary and the
//! account folded from it.
//!
//! A worker's lap clock times paper Fig. 3b's pipeline on one thread, and
//! each lap travels in one word of the flight-recorder event that ends its
//! stage. [`Stage::of`] is the one place that says which word of which
//! event; the [`StageAccount`], the Chrome export and ringtrace's stage
//! table all read stage time through it. Workers fold every event they
//! record into an account, so this module is under the hot-path lints (its
//! first line); an account is merged only at epoch join.

use crate::events::{EventKind, TraceEvent};
use crate::hist::LatencyHistogram;

/// A stage of a sampled batch, in critical-path order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Drawing a layer's fanout offsets, and reducing it into the next
    /// frontier.
    Sample,
    /// Probing the hot set and building the read plan.
    Plan,
    /// Forming an I/O group, SQE preparation and `io_uring_enter`.
    Submit,
    /// Blocked waiting for a group's completions.
    Wait,
    /// The rest of completing a group: non-blocking CQ reaping.
    Reap,
    /// Decoding completed buffers into the layer's output.
    Scatter,
}

impl Stage {
    /// Every stage, in critical-path order.
    pub const ALL: [Stage; 6] = [
        Stage::Sample,
        Stage::Plan,
        Stage::Submit,
        Stage::Wait,
        Stage::Reap,
        Stage::Scatter,
    ];

    /// Stable snake_case name (ringtrace's rows, the Chrome spans).
    pub fn name(self) -> &'static str {
        match self {
            Stage::Sample => "sample",
            Stage::Plan => "plan",
            Stage::Submit => "submit",
            Stage::Wait => "wait",
            Stage::Reap => "reap",
            Stage::Scatter => "scatter",
        }
    }

    /// The stage time `ev` carries, as `(stage, nanoseconds)` in the order
    /// the stages ran: one pair for a stage event, two for a group
    /// completion (its wait, then the reap that ended at its timestamp),
    /// none for any other event.
    pub fn of(ev: &TraceEvent) -> impl Iterator<Item = (Stage, u64)> {
        let (first, then) = match ev.kind {
            EventKind::SampleDone => (Some((Stage::Sample, ev.c)), None),
            EventKind::PlanBuilt => (Some((Stage::Plan, ev.d)), None),
            EventKind::GroupSubmit => (Some((Stage::Submit, ev.d)), None),
            EventKind::GroupComplete => (Some((Stage::Wait, ev.c)), Some((Stage::Reap, ev.d))),
            EventKind::ScatterDone => (Some((Stage::Scatter, ev.b)), None),
            _ => (None, None),
        };
        first.into_iter().chain(then)
    }
}

/// Everything a worker times, as one fold over its events
/// ([`record`](Self::record)): the six stage sums plus the batch, group
/// and completion-lap latency distributions. `Copy`, and merged losslessly
/// at epoch join.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StageAccount {
    nanos: [u64; 6],
    /// Wall latency per mini-batch; its sum is the in-batch wall.
    pub batch_latency: LatencyHistogram,
    /// Latency per I/O group: from the start of its submit lap to the end
    /// of its completion lap, the time its buffer was lent out.
    pub group_latency: LatencyHistogram,
    /// The completion lap per I/O group (its wait plus its reap): the whole
    /// `complete_group` call, not its blocking part alone.
    pub cq_wait: LatencyHistogram,
}

impl StageAccount {
    /// Folds one event in: the stage time it carries and the batch or
    /// group it closes.
    #[inline]
    pub fn record(&mut self, ev: &TraceEvent) {
        for (stage, nanos) in Stage::of(ev) {
            self.add(stage, nanos);
        }
        match ev.kind {
            EventKind::BatchEnd => self.batch_latency.record(ev.b),
            EventKind::GroupComplete => {
                self.group_latency.record(ev.b);
                self.cq_wait.record(ev.c.saturating_add(ev.d));
            }
            _ => {}
        }
    }

    /// Adds `nanos` to `stage` (saturating): what [`record`](Self::record)
    /// does per stage, and how a fixture builds an account without events.
    #[inline]
    pub fn add(&mut self, stage: Stage, nanos: u64) {
        if let Some(sum) = self.nanos.get_mut(stage as usize) {
            *sum = sum.saturating_add(nanos);
        }
    }

    /// Nanoseconds accumulated in `stage`.
    pub fn get(&self, stage: Stage) -> u64 {
        self.nanos.get(stage as usize).copied().unwrap_or(0)
    }

    /// All six stages: every nanosecond the lap clock measured.
    pub fn total(&self) -> u64 {
        self.nanos.iter().fold(0, |acc, &n| acc.saturating_add(n))
    }

    /// The completion stages, wait plus reap: the worker's completion laps.
    pub fn complete(&self) -> u64 {
        self.get(Stage::Wait).saturating_add(self.get(Stage::Reap))
    }

    /// The stage that took the most time and its share of all six, or
    /// `None` for an empty account; a tie goes to the earlier stage. What
    /// the report and `/progress` name as the reason a run was slow.
    pub fn dominant(&self) -> Option<(Stage, f64)> {
        let total = self.total();
        if total == 0 {
            return None;
        }
        let best = Stage::ALL
            .into_iter()
            .reduce(|best, s| if self.get(s) > self.get(best) { s } else { best })?;
        Some((best, self.get(best) as f64 / total as f64))
    }

    /// Merges `other` into `self`: stage sums add, histograms merge.
    pub fn merge(&mut self, other: &Self) {
        for (a, b) in self.nanos.iter_mut().zip(other.nanos) {
            *a = a.saturating_add(b);
        }
        self.batch_latency.merge(&other.batch_latency);
        self.group_latency.merge(&other.group_latency);
        self.cq_wait.merge(&other.cq_wait);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(kind: EventKind, a: u64, b: u64, c: u64, d: u64) -> TraceEvent {
        TraceEvent {
            ts_ns: 1_000_000,
            kind,
            a,
            b,
            c,
            d,
        }
    }

    #[test]
    fn each_event_kind_carries_its_stage_words() {
        let of = |e: TraceEvent| Stage::of(&e).collect::<Vec<_>>();
        assert_eq!(of(ev(EventKind::SampleDone, 10, 640, 45, 9)), [(Stage::Sample, 45)]);
        assert_eq!(of(ev(EventKind::PlanBuilt, 640, 480, 64, 28)), [(Stage::Plan, 28)]);
        assert_eq!(of(ev(EventKind::GroupSubmit, 1, 32, 32, 9)), [(Stage::Submit, 9)]);
        assert_eq!(
            of(ev(EventKind::GroupComplete, 1, 71, 60, 11)),
            [(Stage::Wait, 60), (Stage::Reap, 11)]
        );
        assert_eq!(of(ev(EventKind::ScatterDone, 640, 25, 3, 4)), [(Stage::Scatter, 25)]);
        for kind in [
            EventKind::BatchStart,
            EventKind::BatchEnd,
            EventKind::CacheHit,
            EventKind::CacheMiss,
            EventKind::RegFileFallback,
        ] {
            assert!(of(ev(kind, 1, 2, 3, 4)).is_empty(), "{}", kind.name());
        }
        let names: Vec<_> = Stage::ALL.iter().map(|s| s.name()).collect();
        assert_eq!(names, ["sample", "plan", "submit", "wait", "reap", "scatter"]);
    }

    #[test]
    fn record_folds_stages_and_histograms() {
        let mut a = StageAccount::default();
        for e in [
            ev(EventKind::BatchStart, 0, 128, 0, 0),
            ev(EventKind::SampleDone, 10, 640, 45, 0),
            ev(EventKind::PlanBuilt, 640, 480, 64, 28),
            ev(EventKind::GroupSubmit, 1, 32, 32, 9),
            ev(EventKind::GroupComplete, 1, 71, 60, 11),
            ev(EventKind::ScatterDone, 640, 25, 0, 0),
            ev(EventKind::BatchEnd, 0, 178, 1, 0),
        ] {
            a.record(&e);
        }
        assert_eq!(Stage::ALL.map(|s| a.get(s)), [45, 28, 9, 60, 11, 25]);
        assert_eq!(a.total(), 178);
        assert_eq!(a.total(), a.batch_latency.sum());
        assert_eq!((a.batch_latency.count(), a.group_latency.sum()), (1, 71));
        assert_eq!((a.cq_wait.count(), a.cq_wait.sum()), (1, 71));
        assert_eq!(a.complete(), 71);
    }

    #[test]
    fn dominant_is_the_largest_stage_and_ties_go_earlier() {
        let mut a = StageAccount::default();
        assert_eq!(a.dominant(), None, "an empty account has no dominant stage");
        a.add(Stage::Submit, 300);
        a.add(Stage::Wait, 500);
        a.add(Stage::Reap, 200);
        assert_eq!(a.dominant(), Some((Stage::Wait, 0.5)));
        a.add(Stage::Submit, 200);
        assert_eq!(a.dominant(), Some((Stage::Submit, 500.0 / 1200.0)), "submit ties wait and runs first");
    }

    #[test]
    fn merge_adds_sums_and_histograms() {
        let mut a = StageAccount::default();
        a.record(&ev(EventKind::GroupComplete, 1, 71, 60, 11));
        a.add(Stage::Sample, 25);
        let mut b = StageAccount::default();
        b.record(&ev(EventKind::GroupComplete, 2, 500, 490, 4));
        b.record(&ev(EventKind::BatchEnd, 0, 1_000, 1, 0));
        b.add(Stage::Sample, u64::MAX);
        let want = {
            let mut w = a;
            for e in [
                ev(EventKind::GroupComplete, 2, 500, 490, 4),
                ev(EventKind::BatchEnd, 0, 1_000, 1, 0),
            ] {
                w.record(&e);
            }
            w.add(Stage::Sample, u64::MAX);
            w
        };
        a.merge(&b);
        assert_eq!(a, want, "merging equals folding the other's events");
        assert_eq!(a.get(Stage::Sample), u64::MAX, "sums saturate");
        assert_eq!((a.get(Stage::Wait), a.get(Stage::Reap)), (550, 15));
        assert_eq!((a.group_latency.count(), a.batch_latency.count()), (2, 1));
    }
}
