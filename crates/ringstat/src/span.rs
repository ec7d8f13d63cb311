#![cfg_attr(not(test), deny(clippy::disallowed_types, clippy::disallowed_methods, clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable, clippy::todo, clippy::unimplemented, clippy::indexing_slicing, clippy::allow_attributes, clippy::allow_attributes_without_reason))]
//! Phase accounting: where a worker's in-batch time went.
//!
//! This module is under the hot-path lints (its first line): workers charge a
//! phase at every lap of their stage clock, so everything here is
//! panic-free and synchronization-free. A [`PhaseTimes`] is owned
//! privately by one worker thread; merging into an epoch view happens only
//! at epoch join, preserving the paper's sync-free invariant.

/// Number of pipeline phases.
pub const NUM_PHASES: usize = 4;

/// Where a sampling worker spends its time (paper Fig. 3b's pipeline
/// stages, plus the CPU-side decode).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Phase {
    /// CPU work around the reads: drawing fanout offsets, probing the
    /// page cache, building the read plan, and reducing a layer's
    /// neighbors into the next frontier.
    #[default]
    Prepare,
    /// Preparing SQEs and calling `io_uring_enter` (submission side).
    Submit,
    /// Polling/waiting on the CQ for group completions.
    Complete,
    /// Decoding completed buffers into neighbor entries.
    Aggregate,
}

impl Phase {
    /// All phases, in pipeline order.
    pub const ALL: [Phase; NUM_PHASES] =
        [Phase::Prepare, Phase::Submit, Phase::Complete, Phase::Aggregate];

    /// Stable snake_case name used in exports.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Prepare => "prepare",
            Phase::Submit => "submit",
            Phase::Complete => "complete",
            Phase::Aggregate => "aggregate",
        }
    }

    fn idx(self) -> usize {
        match self {
            Phase::Prepare => 0,
            Phase::Submit => 1,
            Phase::Complete => 2,
            Phase::Aggregate => 3,
        }
    }
}

/// Per-phase nanosecond accumulator (`Copy`, merged at epoch join).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PhaseTimes {
    nanos: [u64; NUM_PHASES],
}

impl PhaseTimes {
    /// A zeroed accumulator.
    pub const fn new() -> Self {
        Self {
            nanos: [0; NUM_PHASES],
        }
    }

    /// Adds `nanos` to `phase` (saturating).
    #[inline]
    pub fn add(&mut self, phase: Phase, nanos: u64) {
        if let Some(slot) = self.nanos.get_mut(phase.idx()) {
            *slot = slot.saturating_add(nanos);
        }
    }

    /// Nanoseconds accumulated in `phase`.
    pub fn get(&self, phase: Phase) -> u64 {
        self.nanos.get(phase.idx()).copied().unwrap_or(0)
    }

    /// Merges `other` into `self`.
    pub fn merge(&mut self, other: &Self) {
        for (a, b) in self.nanos.iter_mut().zip(other.nanos.iter()) {
            *a = a.saturating_add(*b);
        }
    }

    /// Total nanoseconds across all phases.
    pub fn total(&self) -> u64 {
        self.nanos.iter().fold(0u64, |acc, &n| acc.saturating_add(n))
    }

    /// Fraction of phase time spent in `phase` (0.0 if nothing recorded).
    pub fn fraction(&self, phase: Phase) -> f64 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            self.get(phase) as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_times_accumulate_and_merge() {
        let mut a = PhaseTimes::new();
        a.add(Phase::Prepare, 100);
        a.add(Phase::Submit, 50);
        a.add(Phase::Prepare, 25);
        let mut b = PhaseTimes::new();
        b.add(Phase::Complete, 300);
        a.merge(&b);
        assert_eq!(a.get(Phase::Prepare), 125);
        assert_eq!(a.get(Phase::Submit), 50);
        assert_eq!(a.get(Phase::Complete), 300);
        assert_eq!(a.get(Phase::Aggregate), 0);
        assert_eq!(a.total(), 475);
        assert!((a.fraction(Phase::Complete) - 300.0 / 475.0).abs() < 1e-12);
    }

    #[test]
    fn phase_names_are_stable() {
        let names: Vec<_> = Phase::ALL.iter().map(|p| p.name()).collect();
        assert_eq!(names, ["prepare", "submit", "complete", "aggregate"]);
    }
}
