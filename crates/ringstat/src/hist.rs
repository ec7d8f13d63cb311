#![cfg_attr(not(test), deny(clippy::disallowed_types, clippy::disallowed_methods, clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable, clippy::todo, clippy::unimplemented, clippy::indexing_slicing, clippy::allow_attributes, clippy::allow_attributes_without_reason))]
//! Fixed-size log2-bucketed latency histogram.
//!
//! This module is under the hot-path lints (its first line): recording must be
//! allocation-free, panic-free and synchronization-free, because workers
//! call [`LatencyHistogram::record`] once per I/O group and once per batch
//! while the paper's sync-free pipeline is running.

/// Number of power-of-two buckets. Bucket `i` covers `[2^i, 2^(i+1))`
/// nanoseconds (bucket 0 additionally holds zero), so 64 buckets span the
/// full `u64` nanosecond range — from sub-nanosecond to ~584 years.
pub const NUM_BUCKETS: usize = 64;

/// A `Copy`-able log2 latency histogram with exact count/sum/min/max.
///
/// `record` touches a fixed-size array only: no allocation, no syscall,
/// no shared state. `merge` is lossless — merged buckets equal the buckets
/// of the concatenated sample streams, so quantile estimates commute with
/// merging (property-tested in `tests/prop_hist.rs`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyHistogram {
    counts: [u64; NUM_BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

/// The log2 bucket index for a nanosecond value.
#[inline]
fn bucket_of(nanos: u64) -> usize {
    if nanos == 0 {
        0
    } else {
        63 - nanos.leading_zeros() as usize
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub const fn new() -> Self {
        Self {
            counts: [0; NUM_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one sample. Allocation-free; safe on the hot path.
    #[inline]
    pub fn record(&mut self, nanos: u64) {
        if let Some(c) = self.counts.get_mut(bucket_of(nanos)) {
            *c = c.saturating_add(1);
        }
        self.count = self.count.saturating_add(1);
        self.sum = self.sum.saturating_add(nanos);
        if nanos < self.min {
            self.min = nanos;
        }
        if nanos > self.max {
            self.max = nanos;
        }
    }

    /// Records a [`std::time::Duration`] sample (clamped to `u64` nanos).
    #[inline]
    pub fn record_duration(&mut self, d: std::time::Duration) {
        self.record(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Losslessly merges `other` into `self` (bucket-wise addition).
    pub fn merge(&mut self, other: &Self) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a = a.saturating_add(*b);
        }
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
        if other.min < self.min {
            self.min = other.min;
        }
        if other.max > self.max {
            self.max = other.max;
        }
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all recorded nanoseconds (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded value (0 if empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded value (0 if empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Arithmetic mean of recorded values (0.0 if empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The inclusive `(lower, upper)` nanosecond bounds of bucket `i`.
    pub fn bucket_bounds(i: usize) -> (u64, u64) {
        let lower = if i == 0 { 0 } else { 1u64 << i.min(63) };
        let upper = if i >= 63 {
            u64::MAX
        } else {
            (1u64 << (i + 1)) - 1
        };
        (lower, upper)
    }

    /// Iterates non-empty buckets as `(lower, upper, count)`.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (u64, u64, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| {
                let (lo, hi) = Self::bucket_bounds(i);
                (lo, hi, c)
            })
    }

    /// Iterates all buckets as `(upper_bound, cumulative_count)` — the
    /// Prometheus `le` series.
    pub fn cumulative_buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        let mut cum = 0u64;
        self.counts.iter().enumerate().map(move |(i, &c)| {
            cum = cum.saturating_add(c);
            (Self::bucket_bounds(i).1, cum)
        })
    }

    /// Estimates the `q`-quantile (`q` in `[0, 1]`, clamped) from the
    /// buckets: the upper bound of the bucket where the cumulative count
    /// first reaches `ceil(q * count)`, clamped into `[min, max]` so the
    /// extremes are exact. Returns 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        if q <= 0.0 {
            return self.min();
        }
        if q >= 1.0 {
            return self.max;
        }
        let target = ((q * self.count as f64).ceil() as u64).max(1);
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            cum = cum.saturating_add(c);
            if cum >= target {
                let (_, hi) = Self::bucket_bounds(i);
                return hi.min(self.max).max(self.min);
            }
        }
        self.max
    }

    /// Median estimate.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 95th-percentile estimate.
    pub fn p95(&self) -> u64 {
        self.quantile(0.95)
    }

    /// 99th-percentile estimate.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_is_all_zeros() {
        let h = LatencyHistogram::new();
        assert!(h.is_empty());
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.p50(), 0);
        assert_eq!(h.nonzero_buckets().count(), 0);
    }

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 0);
        assert_eq!(bucket_of(2), 1);
        assert_eq!(bucket_of(3), 1);
        assert_eq!(bucket_of(4), 2);
        assert_eq!(bucket_of(1023), 9);
        assert_eq!(bucket_of(1024), 10);
        assert_eq!(bucket_of(u64::MAX), 63);
        assert_eq!(LatencyHistogram::bucket_bounds(0), (0, 1));
        assert_eq!(LatencyHistogram::bucket_bounds(1), (2, 3));
        assert_eq!(LatencyHistogram::bucket_bounds(10), (1024, 2047));
        assert_eq!(LatencyHistogram::bucket_bounds(63).1, u64::MAX);
    }

    #[test]
    fn record_extremes() {
        let mut h = LatencyHistogram::new();
        h.record(0);
        h.record(u64::MAX);
        assert_eq!(h.count(), 2);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), u64::MAX);
        // Sum saturates rather than wrapping.
        h.record(u64::MAX);
        assert_eq!(h.sum(), u64::MAX);
        assert_eq!(h.p99(), u64::MAX);
    }

    #[test]
    fn quantiles_of_known_distribution() {
        let mut h = LatencyHistogram::new();
        // 90 fast samples (~100ns bucket [64,127]), 10 slow (~1ms bucket).
        for _ in 0..90 {
            h.record(100);
        }
        for _ in 0..10 {
            h.record(1_000_000);
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.p50(), 127); // upper bound of the [64,127] bucket
        assert!(h.p95() >= 524_288, "p95 {} must land in the slow bucket", h.p95());
        assert_eq!(h.quantile(0.0), 100); // clamped to min
        assert_eq!(h.quantile(1.0), 1_000_000); // clamped to max
    }

    #[test]
    fn single_sample_quantiles_are_exact() {
        let mut h = LatencyHistogram::new();
        h.record(777);
        // Clamping to [min, max] makes every quantile exact.
        assert_eq!(h.p50(), 777);
        assert_eq!(h.p99(), 777);
        assert_eq!(h.mean(), 777.0);
    }

    #[test]
    fn merge_is_bucketwise_addition() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        a.record(10);
        a.record(1000);
        b.record(10);
        b.record(500_000);
        let mut merged = a;
        merged.merge(&b);
        assert_eq!(merged.count(), 4);
        assert_eq!(merged.sum(), 501_020);
        assert_eq!(merged.min(), 10);
        assert_eq!(merged.max(), 500_000);

        let mut concat = LatencyHistogram::new();
        for v in [10u64, 1000, 10, 500_000] {
            concat.record(v);
        }
        assert_eq!(merged, concat);
    }

    #[test]
    fn cumulative_buckets_end_at_count() {
        let mut h = LatencyHistogram::new();
        for v in [1u64, 5, 5, 1_000_000] {
            h.record(v);
        }
        let last = h.cumulative_buckets().last().unwrap();
        assert_eq!(last, (u64::MAX, 4));
    }

    #[test]
    fn record_duration_clamps() {
        let mut h = LatencyHistogram::new();
        h.record_duration(std::time::Duration::from_micros(3));
        assert_eq!(h.min(), 3000);
        h.record_duration(std::time::Duration::MAX);
        assert_eq!(h.max(), u64::MAX);
    }
}
