#![cfg_attr(not(test), deny(clippy::disallowed_types, clippy::disallowed_methods, clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable, clippy::todo, clippy::unimplemented, clippy::indexing_slicing, clippy::allow_attributes, clippy::allow_attributes_without_reason))]
//! Offset-based uniform neighbor selection (paper §3.1).
//!
//! RingSampler's key trick: fanout offsets are drawn from the node's
//! offset-index range *before* any disk access, so only the chosen entries
//! are ever read. This module implements uniform sampling **without
//! replacement** over an index range, with two strategies:
//!
//! * **partial Fisher–Yates** for small ranges (scratch array of the whole
//!   range, shuffle the first `k` positions) — cache-friendly, zero rejects;
//! * **Floyd's algorithm** for huge ranges (hub nodes with hundreds of
//!   thousands of neighbors) — `O(k)` memory regardless of degree.
//!
//! Both are exactly uniform over `k`-subsets. The strategy switch is purely
//! an optimization and is covered by distribution tests.

use std::collections::HashSet;

use rand::Rng;

/// Degree threshold below which partial Fisher–Yates is used.
const FISHER_YATES_MAX: u64 = 4096;

/// Reusable scratch state for offset sampling (one per worker thread).
#[derive(Debug, Default)]
pub struct OffsetSampler {
    scratch: Vec<u64>,
    chosen: HashSet<u64>,
}

impl OffsetSampler {
    /// Creates an empty sampler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends `min(fanout, hi - lo)` distinct offsets drawn uniformly from
    /// `[lo, hi)` to `out`. Matches GraphSAGE "up to fanout" semantics:
    /// nodes with degree ≤ fanout contribute their whole neighborhood.
    ///
    /// Deterministic given the RNG state (no iteration over hash
    /// containers).
    pub fn sample_range<R: Rng + ?Sized>(
        &mut self,
        lo: u64,
        hi: u64,
        fanout: usize,
        rng: &mut R,
        out: &mut Vec<u64>,
    ) {
        debug_assert!(lo <= hi, "invalid range {lo}..{hi}");
        let deg = hi - lo;
        if deg == 0 {
            return;
        }
        if deg <= fanout as u64 {
            out.extend(lo..hi);
            return;
        }
        let k = fanout;
        if deg <= FISHER_YATES_MAX {
            // Partial Fisher–Yates: shuffle only the first k slots.
            self.scratch.clear();
            self.scratch.extend(lo..hi);
            let n = self.scratch.len();
            for i in 0..k {
                let j = rng.gen_range(i..n);
                self.scratch.swap(i, j);
                #[expect(clippy::indexing_slicing, reason = "i < k <= deg = scratch.len() in this branch")]
                out.push(self.scratch[i]);
            }
        } else {
            // Floyd's algorithm: k distinct values from [0, deg) in O(k).
            self.chosen.clear();
            for j in (deg - k as u64)..deg {
                let t = rng.gen_range(0..=j);
                let v = if self.chosen.insert(t) { t } else {
                    self.chosen.insert(j);
                    j
                };
                out.push(lo + v);
            }
        }
    }
}

impl OffsetSampler {
    /// Appends exactly `fanout` offsets drawn uniformly **with
    /// replacement** from `[lo, hi)` to `out` (DGL's `replace=True`:
    /// duplicates allowed, zero-degree nodes contribute nothing).
    pub fn sample_range_with_replacement<R: Rng + ?Sized>(
        &mut self,
        lo: u64,
        hi: u64,
        fanout: usize,
        rng: &mut R,
        out: &mut Vec<u64>,
    ) {
        debug_assert!(lo <= hi, "invalid range {lo}..{hi}");
        if hi == lo {
            return;
        }
        for _ in 0..fanout {
            out.push(rng.gen_range(lo..hi));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn collect(lo: u64, hi: u64, fanout: usize, seed: u64) -> Vec<u64> {
        let mut s = OffsetSampler::new();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut out = Vec::new();
        s.sample_range(lo, hi, fanout, &mut rng, &mut out);
        out
    }

    #[test]
    fn takes_all_when_degree_small() {
        assert_eq!(collect(10, 13, 5, 0), vec![10, 11, 12]);
        assert_eq!(collect(7, 7, 5, 0), Vec::<u64>::new());
    }

    #[test]
    fn exact_fanout_when_degree_large() {
        for (lo, hi) in [(0u64, 100u64), (500, 10_000), (0, 1_000_000)] {
            let out = collect(lo, hi, 16, 42);
            assert_eq!(out.len(), 16);
            let mut sorted = out.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), 16, "offsets must be distinct");
            assert!(out.iter().all(|&o| o >= lo && o < hi));
        }
    }

    #[test]
    fn deterministic_per_seed() {
        assert_eq!(collect(0, 10_000_000, 32, 9), collect(0, 10_000_000, 32, 9));
        assert_ne!(collect(0, 10_000_000, 32, 9), collect(0, 10_000_000, 32, 10));
    }

    #[test]
    fn fisher_yates_branch_is_uniform() {
        check_uniform(0, 100, 10); // deg=100 <= 4096 → Fisher–Yates
    }

    #[test]
    fn floyd_branch_is_uniform() {
        check_uniform(0, 8192, 10); // deg=8192 > 4096 → Floyd
    }

    /// Chi-square-style sanity check: every offset should be hit roughly
    /// k/deg of the time.
    fn check_uniform(lo: u64, hi: u64, k: usize) {
        let deg = (hi - lo) as usize;
        let trials = 40_000;
        let mut counts = vec![0u64; deg];
        let mut s = OffsetSampler::new();
        let mut rng = StdRng::seed_from_u64(1234);
        let mut out = Vec::new();
        for _ in 0..trials {
            out.clear();
            s.sample_range(lo, hi, k, &mut rng, &mut out);
            for &o in &out {
                counts[(o - lo) as usize] += 1;
            }
        }
        // Aggregate adjacent offsets into groups so each bucket has enough
        // mass for a tight relative-error bound (Poisson noise shrinks as
        // 1/sqrt(expected)); systematic bias (e.g. favoring low offsets)
        // survives aggregation and still trips the check.
        let groups = 32.min(deg);
        let group_size = deg / groups;
        let mut grouped = vec![0u64; groups];
        for (i, &c) in counts.iter().enumerate() {
            grouped[(i / group_size).min(groups - 1)] += c;
        }
        let total: u64 = grouped.iter().sum();
        let mut worst: f64 = 0.0;
        for (gi, &c) in grouped.iter().enumerate() {
            let size = if gi == groups - 1 {
                deg - group_size * (groups - 1)
            } else {
                group_size
            };
            let expected = total as f64 * size as f64 / deg as f64;
            let rel = (c as f64 - expected).abs() / expected;
            worst = worst.max(rel);
        }
        assert!(
            worst < 0.10,
            "worst grouped relative deviation {worst:.3} exceeds tolerance"
        );
    }

    #[test]
    fn with_replacement_always_exact_fanout() {
        let mut s = OffsetSampler::new();
        let mut rng = StdRng::seed_from_u64(8);
        let mut out = Vec::new();
        // Degree 2, fanout 10: with replacement still yields 10 draws.
        s.sample_range_with_replacement(100, 102, 10, &mut rng, &mut out);
        assert_eq!(out.len(), 10);
        assert!(out.iter().all(|&o| (100..102).contains(&o)));
        // Zero degree: nothing.
        out.clear();
        s.sample_range_with_replacement(5, 5, 10, &mut rng, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn scratch_reuse_across_calls() {
        let mut s = OffsetSampler::new();
        let mut rng = StdRng::seed_from_u64(5);
        let mut out = Vec::new();
        s.sample_range(0, 100, 5, &mut rng, &mut out);
        s.sample_range(1_000_000, 2_000_000, 5, &mut rng, &mut out);
        s.sample_range(50, 52, 5, &mut rng, &mut out);
        assert_eq!(out.len(), 5 + 5 + 2);
    }
}
