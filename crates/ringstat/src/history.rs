//! Per-worker telemetry time series — the arithmetic behind `ringtop`.
//!
//! A [`HistoryPoint`] is one timestamped [`WorkerSnapshot`]. The ringscope
//! thread keeps each worker's points in a plain series it alone owns
//! (`ringsampler::telemetry::Monitor`) and serves every live view from it,
//! so nothing here is shared and nothing needs an atomic or a lock.
//!
//! The free functions below are *pure* — they take a window of points
//! and return rates, EWMA trends, and least-squares slopes, which
//! `/history` serves and `ringtop` draws. They judge nothing: why a worker
//! is slow is read off its stage account ([`crate::StageAccount::dominant`]),
//! and this module only does arithmetic, so the estimators are
//! unit-testable with synthetic series.

use crate::snapshot::WorkerSnapshot;
use crate::stage::Stage;

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
        edges_per_sec: rate(last.snap.metrics.sampled_edges, first.snap.metrics.sampled_edges),
        batches_per_sec: rate(last.snap.metrics.batches, first.snap.metrics.batches),
        enters_per_sec: rate(last.snap.metrics.io_groups, first.snap.metrics.io_groups),
        bytes_per_sec: rate(last.snap.metrics.io_bytes, first.snap.metrics.io_bytes),
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
            let diff = b.snap.account.batch_latency.saturating_diff(&a.snap.account.batch_latency);
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

/// A snapshot's I/O time, `(wait, io)` nanoseconds: the time blocked on
/// completions, and all I/O stage time (submit + wait + reap).
fn io_nanos(snap: &WorkerSnapshot) -> (u64, u64) {
    let wait = snap.account.get(Stage::Wait);
    let io = snap.account.get(Stage::Submit).saturating_add(snap.account.complete());
    (wait, io)
}

/// Per-interval CQ-wait-share series: for each consecutive pair of
/// points, the share of I/O time spent blocked on completions *within
/// that interval*, `wait / (submit + wait + reap)`. Reaping does not
/// block, so it counts as I/O time but not as waiting. Intervals with no
/// I/O time are skipped.
pub fn cq_wait_share_series(points: &[HistoryPoint]) -> Vec<(u64, f64)> {
    points
        .windows(2)
        .filter_map(|w| {
            let (a, b) = (w.first()?, w.last()?);
            let ((wa, ia), (wb, ib)) = (io_nanos(&a.snap), io_nanos(&b.snap));
            let io = ib.saturating_sub(ia);
            if io == 0 {
                return None;
            }
            Some((b.t_ms, wb.saturating_sub(wa) as f64 / io as f64))
        })
        .collect()
}

/// Least-squares slope of the per-interval CQ-wait share, per second.
/// Positive ⇒ the worker is spending a growing fraction of its I/O time
/// blocked on the completion queue.
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

#[cfg(test)]
mod tests {
    use super::*;

    fn pt(t_ms: u64, edges: u64, batches: u64) -> HistoryPoint {
        let mut snap = WorkerSnapshot {
            active: true,
            ..Default::default()
        };
        snap.metrics.sampled_edges = edges;
        snap.metrics.batches = batches;
        HistoryPoint { t_ms, snap }
    }

    #[test]
    fn windowed_rates_from_endpoint_deltas() {
        // 2 seconds, 2000 edges, 4 batches ⇒ 1000 edges/s, 2 batches/s.
        let mut a = pt(1000, 500, 2);
        a.snap.metrics.io_groups = 10;
        a.snap.metrics.io_bytes = 4096;
        let mut b = pt(3000, 2500, 6);
        b.snap.metrics.io_groups = 30;
        b.snap.metrics.io_bytes = 12288;
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
        let s = interval_series(&pts, |s| s.metrics.sampled_edges);
        assert_eq!(s, vec![(1000, 100.0), (3000, 200.0)]);
        // Zero-dt pairs are skipped, not divided by zero.
        let dup = [pt(0, 0, 0), pt(0, 50, 1)];
        assert!(interval_series(&dup, |s| s.metrics.sampled_edges).is_empty());
    }

    #[test]
    fn batch_p99_series_diffs_histograms() {
        let mut a = pt(0, 0, 0);
        a.snap.account.batch_latency.record(1000);
        let mut b = pt(1000, 0, 1);
        b.snap.account.batch_latency = a.snap.account.batch_latency;
        b.snap.account.batch_latency.record(8000); // the new sample in (a, b]
        let mut c = pt(2000, 0, 1);
        c.snap.account.batch_latency = b.snap.account.batch_latency; // idle interval
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
        a.snap.account.add(Stage::Submit, 900);
        a.snap.account.add(Stage::Wait, 100);

        // Interval shares rise 0.5 → 0.9 over 2 seconds; completion is
        // wait plus reap.
        let mut b = a;
        b.t_ms = 1000;
        b.snap.account.add(Stage::Submit, 500);
        b.snap.account.add(Stage::Wait, 500);
        let mut c = b;
        c.t_ms = 2000;
        c.snap.account.add(Stage::Submit, 100);
        c.snap.account.add(Stage::Wait, 800);
        c.snap.account.add(Stage::Reap, 100);
        let series = cq_wait_share_series(&[a, b, c]);
        assert_eq!(series.len(), 2);
        assert!((series[0].1 - 0.5).abs() < 1e-12);
        assert!((series[1].1 - 0.8).abs() < 1e-12);
        let slope = cq_wait_share_slope(&[a, b, c]);
        assert!((slope - 0.3).abs() < 1e-9, "slope {slope}");
    }

    #[test]
    fn reaping_is_not_waiting() {
        // A page-cache interval: completions are reaped, never waited for.
        let a = pt(0, 0, 0);
        let mut b = pt(1000, 0, 0);
        b.snap.account.add(Stage::Submit, 400);
        b.snap.account.add(Stage::Reap, 600);
        assert_eq!(cq_wait_share_series(&[a, b]), vec![(1000, 0.0)]);
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
}
