//! Quickstart: build a graph on disk, sample an epoch with RingSampler,
//! and print what happened.
//!
//! Run with: `cargo run --release --example quickstart`

use ringsampler::{epoch_targets, RingSampler, SamplerConfig};
use ringsampler_graph::gen::GeneratorSpec;
use ringsampler_graph::preprocess::{build_dataset, PreprocessOptions};
use ringsampler_graph::stats::{human_bytes, GraphStats};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Generate a heavy-tailed R-MAT graph (the Graph500 generator the
    //    paper's Synthetic dataset uses) and store it in the paper's
    //    hybrid layout: on-disk edge file + in-memory offset index.
    let dir = std::env::temp_dir().join("ringsampler-quickstart");
    std::fs::create_dir_all(&dir)?;
    let base = dir.join("rmat-demo");
    let spec = GeneratorSpec::Rmat {
        scale: 16,          // 65,536 nodes
        edges: 1 << 20,     // ~1M edges
    };
    println!("generating {} nodes / {} edges ...", spec.num_nodes(), spec.num_edges());
    let graph = build_dataset(
        spec.num_nodes(),
        spec.stream(42),
        &base,
        &PreprocessOptions::default(),
    )?;
    let stats = GraphStats::from_graph(&graph);
    println!(
        "stored: {stats}\n  edge file: {} on disk, offset index: {} in memory",
        human_bytes(stats.binary_bytes),
        human_bytes(graph.metadata_bytes()),
    );

    // 2. Configure RingSampler with the paper's defaults scaled down:
    //    3-layer GraphSAGE, fanout [20, 15, 10], batch 1024.
    let sampler = RingSampler::new(
        graph,
        SamplerConfig::new()
            .fanouts(&[20, 15, 10])
            .batch_size(1024)
            .ring_entries(512),
    )?;
    println!(
        "sampling with {} threads, ring size {}, engine auto-detected",
        sampler.config().num_threads,
        sampler.config().ring_entries
    );

    // 3. Sample one training epoch over a shuffled target permutation.
    let targets = epoch_targets(sampler.graph().num_nodes(), 0, 7);
    let report = sampler.sample_epoch(&targets)?;
    println!("epoch done: {report}");
    println!(
        "  -> {:.1}M sampled edges/s, {:.0} reads per syscall (io_uring batching)",
        report.edges_per_second() / 1e6,
        report.metrics.requests_per_syscall(),
    );

    // 4. Peek at one concrete sample, Fig. 1 style.
    let mut worker = sampler.worker()?;
    let sample = worker.sample_batch(&[1], 0)?;
    for (l, layer) in sample.layers.iter().enumerate() {
        println!(
            "  layer {l} (fanout {}): {} targets -> {} sampled neighbors",
            layer.fanout,
            layer.targets.len(),
            layer.num_edges()
        );
    }
    Ok(())
}
