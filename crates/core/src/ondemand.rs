//! On-demand (per-request) sampling for near-real-time GNN inference
//! (paper §4.4, Fig. 6).
//!
//! Mini-batch size is forced to 1, simulating individual sampling requests
//! arriving from concurrent clients. Each request's *completion timestamp*
//! (relative to workload start) is logged; Fig. 6's CDF plots the fraction
//! of requests completed by time *t*, so "P50 = 1.15 s" reads "half the
//! nodes were served within 1.15 s of workload start".

use std::sync::Mutex;
use std::time::{Duration, Instant};

use ringsampler_graph::NodeId;

use crate::engine::RingSampler;
use crate::error::Result;
use crate::metrics::EpochReport;

/// Completion-time distribution of an on-demand sampling workload.
#[derive(Debug, Clone)]
pub struct OnDemandReport {
    /// Per-request completion times since workload start, sorted ascending.
    pub completion_times: Vec<Duration>,
    /// Total wall time.
    pub wall: Duration,
    /// Requests served.
    pub requests: usize,
    /// The underlying epoch report (I/O counters, latency histograms,
    /// phase times) for the whole workload.
    pub epoch: EpochReport,
}

impl OnDemandReport {
    /// Completion time by which `fraction` (0..=1) of requests finished —
    /// the paper's P50/P90/P95/P99 values.
    ///
    /// # Panics
    /// Panics if `fraction` is outside `[0, 1]`.
    pub fn percentile(&self, fraction: f64) -> Duration {
        assert!((0.0..=1.0).contains(&fraction), "fraction out of range");
        if self.completion_times.is_empty() {
            return Duration::ZERO;
        }
        let idx = ((self.completion_times.len() - 1) as f64 * fraction).round() as usize;
        self.completion_times[idx]
    }

    /// Requests served per second of wall time.
    pub fn throughput(&self) -> f64 {
        let s = self.wall.as_secs_f64();
        if s == 0.0 {
            0.0
        } else {
            self.requests as f64 / s
        }
    }

    /// `(time, fraction completed)` points for plotting the CDF.
    pub fn cdf_points(&self, resolution: usize) -> Vec<(f64, f64)> {
        let n = self.completion_times.len();
        if n == 0 {
            return Vec::new();
        }
        let step = (n / resolution.max(1)).max(1);
        let mut pts = Vec::new();
        let mut i = step - 1;
        while i < n {
            pts.push((
                self.completion_times[i].as_secs_f64(),
                (i + 1) as f64 / n as f64,
            ));
            i += step;
        }
        if pts.last().map(|p| p.1) != Some(1.0) {
            pts.push((self.completion_times[n - 1].as_secs_f64(), 1.0));
        }
        pts
    }
}

impl std::fmt::Display for OnDemandReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} requests in {:.3}s ({:.0} req/s); P50 {:.3}s P90 {:.3}s P95 {:.3}s P99 {:.3}s",
            self.requests,
            self.wall.as_secs_f64(),
            self.throughput(),
            self.percentile(0.50).as_secs_f64(),
            self.percentile(0.90).as_secs_f64(),
            self.percentile(0.95).as_secs_f64(),
            self.percentile(0.99).as_secs_f64(),
        )
    }
}

/// Runs the Fig. 6 workload: every target is an independent batch-of-one
/// request; all other configuration (fanouts, threads, ring size) applies
/// unchanged.
///
/// # Errors
/// Propagates sampling errors.
pub fn run_on_demand(sampler: &RingSampler, targets: &[NodeId]) -> Result<OnDemandReport> {
    let one = sampler.rebatched(1)?;
    let start = Instant::now();
    let stamps: Mutex<Vec<Duration>> = Mutex::new(Vec::with_capacity(targets.len()));
    let report = one.sample_epoch_with(targets, |_, _sample| {
        stamps.lock().unwrap().push(start.elapsed());
    })?;
    let mut completion_times = stamps.into_inner().unwrap();
    completion_times.sort_unstable();
    Ok(OnDemandReport {
        requests: completion_times.len(),
        completion_times,
        wall: report.wall,
        epoch: report,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SamplerConfig;
    use ringsampler_graph::edgefile::write_csr;
    use ringsampler_graph::gen::GeneratorSpec;
    use ringsampler_graph::CsrGraph;

    fn sampler(tag: &str) -> RingSampler {
        let base =
            std::env::temp_dir().join(format!("rs-core-ondemand-{}-{tag}", std::process::id()));
        let spec = GeneratorSpec::PowerLaw {
            nodes: 200,
            edges: 2_000,
            exponent: 0.7,
        };
        let csr =
            CsrGraph::from_edges(200, spec.stream(7).collect::<Vec<_>>()).unwrap();
        let g = write_csr(&csr, &base).unwrap();
        RingSampler::new(
            g,
            SamplerConfig::new().fanouts(&[3, 2]).threads(2).ring_entries(16),
        )
        .unwrap()
    }

    #[test]
    fn serves_every_request() {
        let s = sampler("all");
        let targets: Vec<NodeId> = (0..100).collect();
        let r = run_on_demand(&s, &targets).unwrap();
        assert_eq!(r.requests, 100);
        assert_eq!(r.completion_times.len(), 100);
        // Sorted ascending.
        assert!(r.completion_times.windows(2).all(|w| w[0] <= w[1]));
        assert!(r.throughput() > 0.0);
    }

    #[test]
    fn percentiles_monotone() {
        let s = sampler("pct");
        let targets: Vec<NodeId> = (0..50).collect();
        let r = run_on_demand(&s, &targets).unwrap();
        let p50 = r.percentile(0.5);
        let p90 = r.percentile(0.9);
        let p99 = r.percentile(0.99);
        assert!(p50 <= p90 && p90 <= p99);
        assert!(r.percentile(1.0) >= p99);
        assert!(r.to_string().contains("P50"));
    }

    #[test]
    fn cdf_points_reach_one() {
        let s = sampler("cdf");
        let targets: Vec<NodeId> = (0..40).collect();
        let r = run_on_demand(&s, &targets).unwrap();
        let pts = r.cdf_points(10);
        assert!(!pts.is_empty());
        assert_eq!(pts.last().unwrap().1, 1.0);
        // Fractions non-decreasing.
        assert!(pts.windows(2).all(|w| w[0].1 <= w[1].1));
    }

    #[test]
    #[should_panic(expected = "fraction out of range")]
    fn bad_fraction_panics() {
        let r = OnDemandReport {
            completion_times: vec![Duration::from_millis(1)],
            wall: Duration::from_millis(1),
            requests: 1,
            epoch: EpochReport::default(),
        };
        let _ = r.percentile(1.5);
    }

    #[test]
    fn empty_report_is_safe() {
        let r = OnDemandReport {
            completion_times: Vec::new(),
            wall: Duration::ZERO,
            requests: 0,
            epoch: EpochReport::default(),
        };
        assert_eq!(r.percentile(0.5), Duration::ZERO);
        assert_eq!(r.throughput(), 0.0);
        assert!(r.cdf_points(10).is_empty());
    }
}
