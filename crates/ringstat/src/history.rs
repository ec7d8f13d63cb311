//! Per-worker telemetry time series.
//!
//! A [`HistoryPoint`] is one timestamped [`WorkerSnapshot`]. The ringscope
//! thread keeps each worker's points in a plain series it alone owns
//! (`ringsampler::telemetry::Monitor`) and reads them for `/progress`'s
//! windowed rates, the stall watchdog and the stall black box, so nothing
//! here is shared and nothing needs an atomic or a lock. A scraper that
//! wants a longer history keeps its own from `/metrics`.

use crate::snapshot::WorkerSnapshot;

/// One timestamped history point: a full [`WorkerSnapshot`] as observed
/// at `t_ms`. Cumulative counters are kept as-is (not pre-differenced)
/// so a window can pick its own endpoints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistoryPoint {
    /// Milliseconds since the telemetry server started (a monotonic,
    /// server-local timeline shared by all workers' series).
    pub t_ms: u64,
    /// The worker's snapshot at that instant.
    pub snap: WorkerSnapshot,
}

/// Windowed throughput rates derived from the first and last point of a
/// history window (cumulative-counter deltas over the wall span).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct WindowRates {
    /// Sampled edges per second.
    pub edges_per_sec: f64,
    /// Mini-batches per second.
    pub batches_per_sec: f64,
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
        edges_per_sec: rate(last.snap.metrics.sampled_edges, first.snap.metrics.sampled_edges),
        batches_per_sec: rate(last.snap.metrics.batches, first.snap.metrics.batches),
    }
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
        let r = windowed_rates(&[pt(1000, 500, 2), pt(3000, 2500, 6)]);
        assert_eq!(r.edges_per_sec, 1000.0);
        assert_eq!(r.batches_per_sec, 2.0);
    }

    #[test]
    fn degenerate_windows_rate_zero() {
        assert_eq!(windowed_rates(&[]), WindowRates::default());
        assert_eq!(windowed_rates(&[pt(5, 5, 5)]), WindowRates::default());
        // Same timestamp twice: no span, no rate (not a NaN).
        assert_eq!(windowed_rates(&[pt(5, 5, 5), pt(5, 9, 9)]), WindowRates::default());
    }
}
