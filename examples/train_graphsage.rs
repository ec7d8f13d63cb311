//! End-to-end GraphSAGE training on a larger-than-memory-style graph:
//! RingSampler feeds a prefetching DataLoader (paper §5) while the
//! aggregation substrate trains a node classifier on a synthetic
//! homophilous task.
//!
//! Run with: `cargo run --release --example train_graphsage`
//!
//! Pass `--stats-json PATH` to dump the sampling-side observability report
//! of every epoch (counters, latency histograms, phase times), and
//! `--trace-events PATH` for the raw flight-recorder dump that the
//! `ringtrace` analyzer turns into a per-stage latency breakdown (and,
//! with `--chrome OUT`, into a per-worker Perfetto timeline). Pass
//! `--serve <addr>` to watch the run live: `curl <addr>/progress`.

use ringsampler::{RingSampler, SamplerConfig, TelemetryConfig};
use ringsampler_bench::StatsSink;
use ringsampler_gnn::features::SyntheticFeatures;
use ringsampler_gnn::model::SageModel;
use ringsampler_gnn::train::{evaluate, train_epoch};
use ringsampler_graph::preprocess::{build_dataset, PreprocessOptions};
use ringsampler_graph::NodeId;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let classes = 8u32;
    let n: u32 = 20_000;

    // Homophilous synthetic graph: each node links to ~8 same-class nodes
    // and 2 random ones, so neighborhood aggregation is informative.
    let dir = std::env::temp_dir().join("ringsampler-train");
    std::fs::create_dir_all(&dir)?;
    let base = dir.join("homophily");
    let mut state = 0x0123_4567_89AB_CDEF_u64;
    let mut rand = move |m: u32| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % m as u64) as u32
    };
    let mut edges: Vec<(NodeId, NodeId)> = Vec::new();
    for v in 0..n {
        for _ in 0..8 {
            let u = v % classes + classes * rand(n / classes);
            edges.push((v, u % n));
        }
        for _ in 0..2 {
            edges.push((v, rand(n)));
        }
    }
    let graph = build_dataset(n as u64, edges.into_iter(), &base, &PreprocessOptions::default())?;
    println!("graph: {} nodes, {} edges", graph.num_nodes(), graph.num_edges());

    // `--serve <addr>` turns on ringscope live telemetry for the
    // DataLoader's prefetch worker.
    let args: Vec<String> = std::env::args().skip(1).collect();
    let serve = args.windows(2).find(|w| w[0] == "--serve").map(|w| w[1].clone());

    let sampler = RingSampler::new(
        graph,
        SamplerConfig::new()
            .fanouts(&[10, 5])
            .batch_size(512)
            .telemetry_opt(serve.map(TelemetryConfig::new))
            .seed(3),
    )?;

    let feats = SyntheticFeatures::new(16, classes as usize, 0.5, 11);
    let mut model = SageModel::new(16, &[32], classes as usize, 2, 21);

    // 90/10 train/validation split.
    let split = (n as usize * 9) / 10;
    let train: Vec<NodeId> = (0..split as NodeId).collect();
    let valid: Vec<NodeId> = (split as NodeId..n).collect();

    let mut sink = StatsSink::from_args();
    println!("training 5 epochs ({} train / {} valid nodes)", train.len(), valid.len());
    for epoch in 0..5 {
        let t = train_epoch(&sampler, &mut model, &feats, |v| feats.label(v), &train, 0.3)?;
        let v = evaluate(&sampler, &model, &feats, |v| feats.label(v), &valid)?;
        println!(
            "epoch {epoch}: train[{t}]  valid[loss {:.4}, acc {:.1}%]",
            v.loss,
            v.accuracy * 100.0
        );
        // The prefetch worker's own epoch report: I/O counters, latency
        // quantiles, phase breakdown.
        if let Some(report) = &t.sampling {
            println!("  sampling: {report}");
            sink.note(&format!("train/epoch{epoch}"), report);
        }
        if let Some(report) = &v.sampling {
            sink.note(&format!("valid/epoch{epoch}"), report);
        }
    }
    sink.finish()?;
    let final_stats = evaluate(&sampler, &model, &feats, |v| feats.label(v), &valid)?;
    println!(
        "final validation accuracy: {:.1}% (chance = {:.1}%)",
        final_stats.accuracy * 100.0,
        100.0 / classes as f32
    );
    Ok(())
}
