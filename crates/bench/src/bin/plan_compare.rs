//! Read-plan ablation: naive one-read-per-entry vs dedup vs coalescing on
//! a skewed power-law graph with replacement sampling — the
//! duplicate-heavy regime the planner targets.
//!
//! Every variant samples the same epoch with the same seed; the binary
//! cross-checks that all variants produce identical samples (a checksum
//! over every mini-batch) and exits nonzero on divergence. With
//! `RS_PLAN_ASSERT=1` it additionally fails unless Coalesce submits at
//! least 20% fewer read requests than the naive plan (the CI smoke gate).
//!
//! Knobs: `RS_PLAN_NODES` / `RS_PLAN_EDGES` (graph shape, default
//! 20k/200k), `RS_TARGETS`, `RS_THREADS`, `RS_TRACE_CAPACITY` (0 turns
//! the flight recorder off), plus the standard `--stats-json` /
//! `--prometheus` / `--trace` / `--trace-events` artifact flags.

use ringsampler::{epoch_targets, ReadPlanMode, RingSampler, SamplerConfig};
use ringsampler_bench::{emit_table, HarnessConfig, StatsSink};
use ringsampler_graph::gen::GeneratorSpec;
use ringsampler_graph::preprocess::{build_dataset, PreprocessOptions};

/// The issue's reference workload: 2 layers, fanout [25, 10], replace=True.
const FANOUTS: [usize; 2] = [25, 10];

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&v| v > 0)
        .unwrap_or(default)
}

/// Order-independent checksum of a batch sample: batches complete on
/// whichever thread gets them, so per-batch digests are combined with a
/// commutative wrapping add, keyed by batch index.
fn batch_digest(idx: usize, s: &ringsampler::BatchSample) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ (idx as u64).wrapping_mul(0x100_0000_01b3);
    let mut fold = |v: u64| {
        h ^= v;
        h = h.wrapping_mul(0x100_0000_01b3);
    };
    for layer in &s.layers {
        for &t in &layer.targets {
            fold(t as u64);
        }
        for &d in &layer.dst {
            fold(d as u64);
        }
        for &p in &layer.src_pos {
            fold(p as u64);
        }
    }
    h
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let h = HarnessConfig::from_env();
    let mut sink = StatsSink::from_args();
    let nodes = env_u64("RS_PLAN_NODES", 20_000);
    let edges = env_u64("RS_PLAN_EDGES", 200_000);
    let targets_n = (h.targets_per_epoch as u64).min(nodes) as usize;

    let spec = GeneratorSpec::PowerLaw {
        nodes,
        edges,
        exponent: 0.7,
    };
    std::fs::create_dir_all(&h.data_dir)?;
    let base = h.data_dir.join(format!("plan-compare-{nodes}-{edges}"));
    let graph = build_dataset(nodes, spec.stream(42), &base, &PreprocessOptions::default())?;

    let mut targets = epoch_targets(graph.num_nodes(), 0, 0xBEEF);
    targets.truncate(targets_n);

    println!(
        "Read-plan ablation: power-law graph ({nodes} nodes, {edges} edges), \
         fanout {FANOUTS:?} with replacement, {targets_n} targets, {} threads\n",
        h.threads
    );

    let variants: [(&str, ReadPlanMode); 3] = [
        ("naive", ReadPlanMode::Off),
        ("dedup", ReadPlanMode::Dedup),
        ("coalesce", ReadPlanMode::coalesce()),
    ];

    struct Row {
        label: &'static str,
        seconds: f64,
        io_requests: u64,
        reads_saved: u64,
        bytes_saved: u64,
        ratio: f64,
        digest: u64,
    }
    let mut rows: Vec<Row> = Vec::new();

    for (label, mode) in variants {
        let mut cfg = SamplerConfig::new()
            .fanouts(&FANOUTS)
            .batch_size(256)
            .threads(h.threads)
            .with_replacement(true)
            .read_plan(mode)
            .telemetry_opt(h.telemetry())
            .seed(7);
        if let Some(n) = h.trace_capacity {
            cfg = cfg.trace_capacity(n);
        }
        let sampler = RingSampler::new(graph.clone(), cfg)?;
        let digest = std::sync::atomic::AtomicU64::new(0);
        let report = sampler.sample_epoch_with(&targets, |idx, s| {
            digest.fetch_add(batch_digest(idx, &s), std::sync::atomic::Ordering::Relaxed);
        })?;
        sink.note(&format!("plan_compare/{label}"), &report);
        rows.push(Row {
            label,
            seconds: report.wall.as_secs_f64(),
            io_requests: report.metrics.io_requests,
            reads_saved: report.metrics.reads_saved,
            bytes_saved: report.metrics.bytes_saved,
            ratio: report.metrics.coalesce_ratio(),
            digest: digest.into_inner(),
        });
    }

    let naive_reqs = rows.first().map(|r| r.io_requests).unwrap_or(0).max(1);
    let header = format!(
        "{:<16} {:>9} {:>12} {:>8} {:>12} {:>12} {:>7}",
        "variant", "seconds", "io_requests", "vs naive", "reads_saved", "bytes_saved", "ratio"
    );
    let lines: Vec<String> = rows
        .iter()
        .map(|r| {
            let delta = 100.0 * (1.0 - r.io_requests as f64 / naive_reqs as f64);
            format!(
                "{:<16} {:>9.3} {:>12} {:>7.1}% {:>12} {:>12} {:>7.2}",
                r.label, r.seconds, r.io_requests, delta, r.reads_saved, r.bytes_saved, r.ratio
            )
        })
        .collect();
    emit_table("plan_compare", &header, &lines)?;
    sink.finish()?;

    // Correctness gate: every variant must produce the exact same epoch.
    let reference = rows.first().map(|r| r.digest).unwrap_or(0);
    for r in &rows {
        if r.digest != reference {
            eprintln!(
                "FAIL: variant {} diverged from naive (digest {:#x} != {:#x})",
                r.label, r.digest, reference
            );
            std::process::exit(1);
        }
    }
    println!("\nall variants produced identical samples (digest {reference:#x})");

    // CI smoke gate: coalescing must beat naive by >= 20% submitted reads.
    if std::env::var("RS_PLAN_ASSERT").is_ok() {
        let coalesce = rows
            .iter()
            .find(|r| r.label == "coalesce")
            .expect("coalesce variant present");
        let reduction = 100.0 * (1.0 - coalesce.io_requests as f64 / naive_reqs as f64);
        if reduction < 20.0 {
            eprintln!(
                "FAIL: coalesce reduced submitted reads by only {reduction:.1}% (< 20%)"
            );
            std::process::exit(1);
        }
        println!("RS_PLAN_ASSERT ok: coalesce cut submitted reads by {reduction:.1}%");
    }
    h.serve_linger();
    Ok(())
}
