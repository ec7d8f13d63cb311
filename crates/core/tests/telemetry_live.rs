//! Live telemetry acceptance test: real two-worker epochs with the
//! ringscope server on. One phase checks the zero-interference invariant:
//! enabling telemetry with history changes no sampled byte. Another checks
//! that the published queue gauge measures backlog, not group size: with
//! the default ring and batches two full groups wide, `pread` publishes 0
//! and io_uring stays within the async window of 2 × `ring_entries`.
//!
//! All phases share one `#[test]` body: the engine's telemetry server is
//! process-global (first config wins), so the phases run sequentially
//! against the same registry rather than racing each other's epochs.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use ringsampler::{EpochReport, RingSampler, SamplerConfig, TelemetryConfig};
use ringsampler_graph::edgefile::write_csr;
use ringsampler_graph::{CsrGraph, NodeId, OnDiskGraph};
use ringsampler_io::EngineKind;

fn build_graph_of(tag: &str, nodes: u32) -> OnDiskGraph {
    let base = std::env::temp_dir().join(format!("rs-telemetry-{}-{tag}", std::process::id()));
    // Deterministic xorshift so both phases sample identical structure.
    let mut state = 0x1234_5678_9ABC_DEF0u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut edges = Vec::new();
    for v in 0..nodes {
        for _ in 0..6 {
            edges.push((v, (next() % nodes as u64) as u32));
        }
    }
    let csr = CsrGraph::from_edges(nodes as usize, edges).unwrap();
    write_csr(&csr, &base).unwrap()
}

fn config(telemetry: bool) -> SamplerConfig {
    let mut cfg = SamplerConfig::new()
        .fanouts(&[5, 3])
        .ring_entries(8)
        .threads(2)
        .batch_size(8)
        .seed(0xFEED);
    if telemetry {
        cfg = cfg.telemetry(live_telemetry());
    }
    cfg
}

fn live_telemetry() -> TelemetryConfig {
    TelemetryConfig::new("127.0.0.1:0")
        .poll_interval(Duration::from_millis(10))
}

/// 40 batches over 96 nodes: workers 0 and 1 own 20 each
/// (round-robin by batch index).
fn targets() -> Vec<NodeId> {
    (0..320u32).map(|i| i % 96).collect()
}

/// Runs one epoch over `targets`; returns the report and the largest
/// `inflight` any worker published.
fn run_epoch(sampler: &RingSampler, targets: &[NodeId]) -> (EpochReport, u64) {
    let registry = sampler.telemetry().expect("telemetry on").registry();
    let backlog = AtomicU64::new(0);
    let report = sampler
        .sample_epoch_with(targets, |_, _sample| {
            // The callback runs on the owning worker's thread, right
            // after that worker published its batch.
            for s in registry.observe().iter().filter_map(|o| o.snapshot) {
                backlog.fetch_max(s.inflight, Ordering::Relaxed);
            }
        })
        .expect("epoch");
    (report, backlog.into_inner())
}

#[test]
fn telemetry_changes_no_sample_and_gauges_backlog() {
    // Zero interference: telemetry with history enabled must not change a
    // single sampled byte versus telemetry off.
    let with_telemetry = RingSampler::new(build_graph_of("obs-a", 96), config(true)).unwrap();
    let without = RingSampler::new(build_graph_of("obs-b", 96), config(false)).unwrap();
    let collect = |sampler: &RingSampler| {
        let samples = Mutex::new(Vec::new());
        sampler
            .sample_epoch_with(&targets(), |idx, sample| {
                samples.lock().unwrap().push((idx, sample));
            })
            .expect("epoch");
        let mut samples = samples.into_inner().unwrap();
        samples.sort_by_key(|(idx, _)| *idx);
        samples
    };
    assert_eq!(
        collect(&with_telemetry),
        collect(&without),
        "sampling output must be byte-identical with telemetry history on vs off"
    );

    // Group size is not backlog. With the default 512-entry ring and at
    // least 1024 reads a batch the worker lends the engine two full groups
    // at once; a gauge of lent-out requests would read 1024 on every
    // healthy run, pread included. The gauge is the backlog the worker was
    // blocked behind: pread never leaves one, and io_uring's is bounded by
    // the async window.
    let wide: Vec<NodeId> = (0..40 * 256u32).map(|i| i % 4096).collect();
    for engine in [EngineKind::Uring, EngineKind::Pread] {
        let cfg = SamplerConfig::new()
            .fanouts(&[4, 2])
            .threads(2)
            .batch_size(256)
            .seed(0xFEED)
            .engine(engine)
            .telemetry(live_telemetry());
        let window = 2 * u64::from(cfg.ring_entries);
        let graph = build_graph_of(&format!("wide-{engine:?}"), 4096);
        let sampler = RingSampler::new(graph, cfg).unwrap();
        let (report, backlog) = run_epoch(&sampler, &wide);
        assert!(report.metrics.io_requests >= 40 * 1024, "{engine:?}: batches too narrow");
        assert!(backlog <= window, "{engine:?}: published {backlog}, window {window}");
        if engine == EngineKind::Pread {
            assert_eq!(backlog, 0, "pread never queues anything");
        }
    }
}
