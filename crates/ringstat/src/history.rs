//! Per-worker telemetry time series — the arithmetic behind `ringtop`.
//!
//! A [`HistoryPoint`] is one timestamped [`WorkerSnapshot`]. The ringscope
//! thread keeps each worker's points in a plain series it alone owns
//! (`ringsampler::telemetry::Monitor`) and serves every live view from it,
//! so nothing here is shared and nothing needs an atomic or a lock.
//!
//! The free functions below are *pure* — they take a window of points
//! and return rates, EWMA trends, and least-squares slopes. All the
//! congestion policy (thresholds, verdicts) lives in the consumer
//! (`ringscope`'s detector); this module only does arithmetic, so the
//! estimators are unit-testable with synthetic series.

use crate::snapshot::WorkerSnapshot;

/// One timestamped history point: a full [`WorkerSnapshot`] as observed
/// at `t_ms`. Cumulative counters are kept as-is (not pre-differenced)
/// so every derivation below can pick its own window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistoryPoint {
    /// Milliseconds since the telemetry server started (a monotonic,
    /// server-local timeline shared by all workers' series).
    pub t_ms: u64,
    /// The worker's snapshot at that instant.
    pub snap: WorkerSnapshot,
}

/// Windowed throughput rates derived from the first and last point of a
/// history window (all cumulative-counter deltas over the wall span).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct WindowRates {
    /// Wall-clock span of the window in seconds.
    pub span_secs: f64,
    /// Sampled edges per second.
    pub edges_per_sec: f64,
    /// Mini-batches per second.
    pub batches_per_sec: f64,
    /// `io_uring_enter` submit batches (I/O groups) per second.
    pub enters_per_sec: f64,
    /// Payload bytes read per second.
    pub bytes_per_sec: f64,
}

/// Rates over a window: cumulative-counter deltas between the first and
/// last point, divided by the wall span. Returns zeros when the window
/// has fewer than two points or spans no time.
pub fn windowed_rates(points: &[HistoryPoint]) -> WindowRates {
    let (first, last) = match (points.first(), points.last()) {
        (Some(f), Some(l)) if l.t_ms > f.t_ms => (f, l),
        _ => return WindowRates::default(),
    };
    let span = last.t_ms.saturating_sub(first.t_ms) as f64 / 1000.0;
    let rate = |l: u64, f: u64| l.saturating_sub(f) as f64 / span;
    WindowRates {
        span_secs: span,
        edges_per_sec: rate(last.snap.sampled_edges, first.snap.sampled_edges),
        batches_per_sec: rate(last.snap.batches, first.snap.batches),
        enters_per_sec: rate(last.snap.io_groups, first.snap.io_groups),
        bytes_per_sec: rate(last.snap.bytes_read, first.snap.bytes_read),
    }
}

/// Exponentially-weighted moving average of a series: the final EWMA
/// value after folding every sample with smoothing factor `alpha` in
/// `(0, 1]` (higher = more weight on recent samples). Returns 0.0 for
/// an empty series.
pub fn ewma(values: &[f64], alpha: f64) -> f64 {
    let alpha = alpha.clamp(0.0, 1.0);
    let mut it = values.iter();
    let mut acc = match it.next() {
        Some(&v) => v,
        None => return 0.0,
    };
    for &v in it {
        acc += alpha * (v - acc);
    }
    acc
}

/// Least-squares slope of `(t_ms, value)` samples, in value-units per
/// *second*. Returns 0.0 when fewer than two distinct timestamps exist
/// (no trend is derivable).
pub fn slope_per_sec(series: &[(u64, f64)]) -> f64 {
    if series.len() < 2 {
        return 0.0;
    }
    let n = series.len() as f64;
    let mean_t = series.iter().map(|&(t, _)| t as f64 / 1000.0).sum::<f64>() / n;
    let mean_y = series.iter().map(|&(_, y)| y).sum::<f64>() / n;
    let mut num = 0.0;
    let mut den = 0.0;
    for &(t, y) in series {
        let dt = t as f64 / 1000.0 - mean_t;
        num += dt * (y - mean_y);
        den += dt * dt;
    }
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Per-interval rate series for one cumulative counter: for each
/// consecutive pair of points, `(t_ms of the later point, Δcounter/Δt)`.
/// Pairs spanning no time are skipped.
pub fn interval_series(
    points: &[HistoryPoint],
    counter: impl Fn(&WorkerSnapshot) -> u64,
) -> Vec<(u64, f64)> {
    points
        .windows(2)
        .filter_map(|w| {
            let (a, b) = (w.first()?, w.last()?);
            let dt = b.t_ms.saturating_sub(a.t_ms) as f64 / 1000.0;
            if dt <= 0.0 {
                return None;
            }
            let dv = counter(&b.snap).saturating_sub(counter(&a.snap)) as f64;
            Some((b.t_ms, dv / dt))
        })
        .collect()
}

/// Per-interval batch-latency p99 series: for each consecutive pair of
/// points, the p99 (in nanoseconds) of the batch-latency samples recorded
/// *between* them ([`crate::hist::LatencyHistogram::saturating_diff`]).
/// Intervals in which no batch completed are skipped.
pub fn batch_p99_series(points: &[HistoryPoint]) -> Vec<(u64, f64)> {
    points
        .windows(2)
        .filter_map(|w| {
            let (a, b) = (w.first()?, w.last()?);
            let diff = b.snap.batch_latency.saturating_diff(&a.snap.batch_latency);
            if diff.is_empty() {
                return None;
            }
            Some((b.t_ms, diff.p99() as f64))
        })
        .collect()
}

/// Least-squares slope of the per-interval batch p99, in ns per second.
/// Positive and large ⇒ batch latency is *getting worse*.
pub fn batch_p99_slope(points: &[HistoryPoint]) -> f64 {
    slope_per_sec(&batch_p99_series(points))
}

/// The cumulative CQ-wait share of one snapshot: the fraction of the
/// worker's I/O wall time spent blocked on completions,
/// `complete / (submit + complete)`. 0.0 before any I/O happened.
pub fn cq_wait_share(snap: &WorkerSnapshot) -> f64 {
    let total = snap.submit_nanos.saturating_add(snap.complete_nanos);
    if total == 0 {
        0.0
    } else {
        snap.complete_nanos as f64 / total as f64
    }
}

/// Per-interval CQ-wait-share series: for each consecutive pair of
/// points, the share of I/O time spent blocked on completions *within
/// that interval*. Intervals with no I/O time are skipped.
pub fn cq_wait_share_series(points: &[HistoryPoint]) -> Vec<(u64, f64)> {
    points
        .windows(2)
        .filter_map(|w| {
            let (a, b) = (w.first()?, w.last()?);
            let dc = b.snap.complete_nanos.saturating_sub(a.snap.complete_nanos);
            let dp = b.snap.submit_nanos.saturating_sub(a.snap.submit_nanos);
            let total = dc.saturating_add(dp);
            if total == 0 {
                return None;
            }
            Some((b.t_ms, dc as f64 / total as f64))
        })
        .collect()
}

/// Least-squares slope of the per-interval CQ-wait share, per second.
/// Positive ⇒ the worker is spending a growing fraction of its I/O time
/// blocked on the completion queue — the paper's congestion signature.
pub fn cq_wait_share_slope(points: &[HistoryPoint]) -> f64 {
    slope_per_sec(&cq_wait_share_series(points))
}

/// Per-interval CPU-share series: for each consecutive pair of points,
/// the fraction of that interval's wall clock the worker's thread spent
/// on-CPU, `Δcpu_nanos / Δt` clamped to `[0, 1]`. Zero-span intervals
/// are skipped. All-zero `cpu_nanos` (ringprof disabled) yields an
/// all-zero series, which consumers must treat as "no signal", not
/// "idle".
pub fn cpu_share_series(points: &[HistoryPoint]) -> Vec<(u64, f64)> {
    points
        .windows(2)
        .filter_map(|w| {
            let (a, b) = (w.first()?, w.last()?);
            let span_ns = b.t_ms.saturating_sub(a.t_ms).saturating_mul(1_000_000);
            if span_ns == 0 {
                return None;
            }
            let dc = b.snap.cpu_nanos.saturating_sub(a.snap.cpu_nanos);
            Some((b.t_ms, (dc as f64 / span_ns as f64).min(1.0)))
        })
        .collect()
}

/// The mean CPU share across a window: total thread-CPU delta over the
/// window's wall span, clamped to `[0, 1]`. High (≈1.0) means the
/// worker is compute-bound; low with high CQ-wait share means it is
/// I/O-bound. 0.0 for degenerate windows or when ringprof is disabled.
pub fn cpu_share(points: &[HistoryPoint]) -> f64 {
    let (Some(first), Some(last)) = (points.first(), points.last()) else {
        return 0.0;
    };
    let span_ns = last.t_ms.saturating_sub(first.t_ms).saturating_mul(1_000_000);
    if span_ns == 0 {
        return 0.0;
    }
    let dc = last.snap.cpu_nanos.saturating_sub(first.snap.cpu_nanos);
    (dc as f64 / span_ns as f64).min(1.0)
}

/// The fraction of the window's wall-clock time the worker spent in I/O
/// at all (submitting or waiting on completions). A CQ-wait
/// share only carries congestion signal when this is substantial: a
/// worker that touches the ring for 1 ms out of every 100 ms has a
/// noisy, meaningless share. 0.0 for windows of fewer than two points
/// or with no time span.
pub fn io_busy_share(points: &[HistoryPoint]) -> f64 {
    let (Some(first), Some(last)) = (points.first(), points.last()) else {
        return 0.0;
    };
    let span_ns = last.t_ms.saturating_sub(first.t_ms).saturating_mul(1_000_000);
    if span_ns == 0 {
        return 0.0;
    }
    let busy = last
        .snap
        .submit_nanos
        .saturating_sub(first.snap.submit_nanos)
        .saturating_add(
            last.snap
                .complete_nanos
                .saturating_sub(first.snap.complete_nanos),
        );
    (busy as f64 / span_ns as f64).min(1.0)
}

/// Mean in-flight read count (live queue depth) across a window.
/// 0.0 for an empty window.
pub fn mean_inflight(points: &[HistoryPoint]) -> f64 {
    if points.is_empty() {
        return 0.0;
    }
    points.iter().map(|p| p.snap.inflight as f64).sum::<f64>() / points.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pt(t_ms: u64, edges: u64, batches: u64) -> HistoryPoint {
        let mut snap = WorkerSnapshot::new();
        snap.sampled_edges = edges;
        snap.batches = batches;
        snap.active = true;
        HistoryPoint { t_ms, snap }
    }

    #[test]
    fn windowed_rates_from_endpoint_deltas() {
        // 2 seconds, 2000 edges, 4 batches ⇒ 1000 edges/s, 2 batches/s.
        let mut a = pt(1000, 500, 2);
        a.snap.io_groups = 10;
        a.snap.bytes_read = 4096;
        let mut b = pt(3000, 2500, 6);
        b.snap.io_groups = 30;
        b.snap.bytes_read = 12288;
        let r = windowed_rates(&[a, b]);
        assert_eq!(r.span_secs, 2.0);
        assert_eq!(r.edges_per_sec, 1000.0);
        assert_eq!(r.batches_per_sec, 2.0);
        assert_eq!(r.enters_per_sec, 10.0);
        assert_eq!(r.bytes_per_sec, 4096.0);
    }

    #[test]
    fn degenerate_windows_rate_zero() {
        assert_eq!(windowed_rates(&[]), WindowRates::default());
        assert_eq!(windowed_rates(&[pt(5, 5, 5)]), WindowRates::default());
        // Same timestamp twice: no span, no rate (not a NaN).
        assert_eq!(windowed_rates(&[pt(5, 5, 5), pt(5, 9, 9)]), WindowRates::default());
    }

    #[test]
    fn ewma_tracks_recent_values() {
        assert_eq!(ewma(&[], 0.5), 0.0);
        assert_eq!(ewma(&[4.0], 0.5), 4.0);
        // alpha=1.0 degenerates to "last value".
        assert_eq!(ewma(&[1.0, 2.0, 9.0], 1.0), 9.0);
        // alpha=0.5 over [0, 10]: 0 + 0.5*(10-0) = 5.
        assert_eq!(ewma(&[0.0, 10.0], 0.5), 5.0);
        // Constant series is a fixed point.
        assert_eq!(ewma(&[3.0, 3.0, 3.0, 3.0], 0.25), 3.0);
    }

    #[test]
    fn slope_of_linear_series_is_exact() {
        // y = 2·t_secs + 1 sampled at 0, 500, 1000, 1500 ms.
        let series: Vec<(u64, f64)> = (0..4)
            .map(|i| (i * 500, 2.0 * (i as f64 * 0.5) + 1.0))
            .collect();
        let s = slope_per_sec(&series);
        assert!((s - 2.0).abs() < 1e-9, "slope {s}");
        // Flat series has zero slope; degenerate series too.
        assert_eq!(slope_per_sec(&[(0, 5.0), (1000, 5.0)]), 0.0);
        assert_eq!(slope_per_sec(&[(7, 1.0)]), 0.0);
        assert_eq!(slope_per_sec(&[(7, 1.0), (7, 3.0)]), 0.0);
    }

    #[test]
    fn interval_series_rates_per_pair() {
        let pts = [pt(0, 0, 0), pt(1000, 100, 1), pt(3000, 500, 5)];
        let s = interval_series(&pts, |s| s.sampled_edges);
        assert_eq!(s, vec![(1000, 100.0), (3000, 200.0)]);
        // Zero-dt pairs are skipped, not divided by zero.
        let dup = [pt(0, 0, 0), pt(0, 50, 1)];
        assert!(interval_series(&dup, |s| s.sampled_edges).is_empty());
    }

    #[test]
    fn batch_p99_series_diffs_histograms() {
        let mut a = pt(0, 0, 0);
        a.snap.batch_latency.record(1000);
        let mut b = pt(1000, 0, 1);
        b.snap.batch_latency = a.snap.batch_latency;
        b.snap.batch_latency.record(8000); // the new sample in (a, b]
        let mut c = pt(2000, 0, 1);
        c.snap.batch_latency = b.snap.batch_latency; // idle interval
        let series = batch_p99_series(&[a, b, c]);
        assert_eq!(series.len(), 1, "idle interval must be skipped");
        let (t, p99) = series[0];
        assert_eq!(t, 1000);
        // The diffed histogram holds exactly the 8000ns sample's bucket.
        assert!((8000.0..=16383.0).contains(&p99), "p99 {p99}");
    }

    #[test]
    fn cq_wait_share_and_slope() {
        let mut a = pt(0, 0, 0);
        a.snap.submit_nanos = 900;
        a.snap.complete_nanos = 100;
        assert!((cq_wait_share(&a.snap) - 0.1).abs() < 1e-12);
        assert_eq!(cq_wait_share(&WorkerSnapshot::new()), 0.0);

        // Interval shares rise 0.1 → 0.5 → 0.9 over 2 seconds.
        let mut b = a;
        b.t_ms = 1000;
        b.snap.submit_nanos += 500;
        b.snap.complete_nanos += 500;
        let mut c = b;
        c.t_ms = 2000;
        c.snap.submit_nanos += 100;
        c.snap.complete_nanos += 900;
        let series = cq_wait_share_series(&[a, b, c]);
        assert_eq!(series.len(), 2);
        assert!((series[0].1 - 0.5).abs() < 1e-12);
        assert!((series[1].1 - 0.9).abs() < 1e-12);
        let slope = cq_wait_share_slope(&[a, b, c]);
        assert!((slope - 0.4).abs() < 1e-9, "slope {slope}");
    }

    #[test]
    fn cpu_share_tracks_thread_cpu_growth() {
        assert_eq!(cpu_share(&[]), 0.0);
        // 100 ms window, 75 ms of thread CPU ⇒ 0.75 share.
        let a = pt(0, 0, 0);
        let mut b = pt(100, 0, 0);
        b.snap.cpu_nanos = 75_000_000;
        assert!((cpu_share(&[a, b]) - 0.75).abs() < 1e-12);
        // Per-interval series: 0.75 then 0.25.
        let mut c = pt(200, 0, 0);
        c.snap.cpu_nanos = 100_000_000;
        let s = cpu_share_series(&[a, b, c]);
        assert_eq!(s.len(), 2);
        assert!((s[0].1 - 0.75).abs() < 1e-12);
        assert!((s[1].1 - 0.25).abs() < 1e-12);
        // Over-accounting clamps at 1.0; zero spans are skipped.
        let mut d = pt(201, 0, 0);
        d.snap.cpu_nanos = 900_000_000;
        assert_eq!(cpu_share(&[c, d]), 1.0);
        assert!(cpu_share_series(&[c, c]).is_empty());
        // ringprof disabled ⇒ all-zero signal, not NaN.
        assert_eq!(cpu_share(&[pt(0, 0, 0), pt(100, 5, 5)]), 0.0);
    }

    #[test]
    fn io_busy_share_is_wall_clock_fraction() {
        assert_eq!(io_busy_share(&[]), 0.0);
        assert_eq!(io_busy_share(&[pt(5, 0, 0)]), 0.0);
        // 100 ms window, 40 ms submitting + 20 ms waiting ⇒ 0.6 busy.
        let a = pt(0, 0, 0);
        let mut b = pt(100, 0, 0);
        b.snap.submit_nanos = 40_000_000;
        b.snap.complete_nanos = 20_000_000;
        assert!((io_busy_share(&[a, b]) - 0.6).abs() < 1e-12);
        // Clock skew can push busy past the span; the share is clamped.
        b.snap.submit_nanos = 500_000_000;
        assert_eq!(io_busy_share(&[a, b]), 1.0);
        // Zero span ⇒ no signal.
        let c = pt(0, 0, 0);
        assert_eq!(io_busy_share(&[a, c]), 0.0);
    }

    #[test]
    fn mean_inflight_averages_window() {
        assert_eq!(mean_inflight(&[]), 0.0);
        let mut a = pt(0, 0, 0);
        a.snap.inflight = 10;
        let mut b = pt(1, 0, 0);
        b.snap.inflight = 30;
        assert_eq!(mean_inflight(&[a, b]), 20.0);
    }
}
