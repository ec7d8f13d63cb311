//! Live telemetry acceptance test: a real two-worker epoch with the
//! ringscope server on checks the zero-interference invariant: enabling
//! telemetry with history changes no sampled byte.

use std::sync::Mutex;
use std::time::Duration;

use ringsampler::{RingSampler, SamplerConfig, TelemetryConfig};
use ringsampler_graph::edgefile::write_csr;
use ringsampler_graph::{CsrGraph, NodeId, OnDiskGraph};

fn build_graph_of(tag: &str, nodes: u32) -> OnDiskGraph {
    let base = std::env::temp_dir().join(format!("rs-telemetry-{}-{tag}", std::process::id()));
    // Deterministic xorshift so both samplers see identical structure.
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

#[test]
fn telemetry_changes_no_sample() {
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
}
