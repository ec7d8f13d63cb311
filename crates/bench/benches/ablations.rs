//! Ablation benches for the design choices DESIGN.md calls out:
//!
//! * **offset-based sampling vs full-list fetch** (paper Fig. 2) — read
//!   only the sampled entries vs the baselines' whole-neighborhood reads;
//! * **hot set on/off** — the Fig. 8 mechanism (one profiled page region
//!   shared by every worker);
//! * **offset-sampler strategies** — partial Fisher–Yates vs Floyd.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rand::rngs::StdRng;
use rand::SeedableRng;

use ringsampler::sampling::OffsetSampler;
use ringsampler::{CachePolicy, RingSampler, SamplerConfig};
use ringsampler_graph::gen::GeneratorSpec;
use ringsampler_graph::preprocess::{build_dataset, PreprocessOptions};
use ringsampler_graph::{NodeId, OnDiskGraph};

fn bench_graph() -> OnDiskGraph {
    let base = std::env::temp_dir().join("rs-bench-ablation-graph");
    let spec = GeneratorSpec::PowerLaw {
        nodes: 100_000,
        edges: 1_000_000,
        exponent: 0.7,
    };
    if let Ok(g) = OnDiskGraph::open(&base) {
        if g.num_edges() == spec.num_edges() {
            return g;
        }
    }
    build_dataset(
        spec.num_nodes(),
        spec.stream(11),
        &base,
        &PreprocessOptions::default(),
    )
    .unwrap()
}

fn targets(n: usize) -> Vec<NodeId> {
    (0..n as NodeId).map(|i| (i * 97) % 100_000).collect()
}

fn bench_offset_vs_full_fetch(c: &mut Criterion) {
    // Compare fetching `fanout` sampled 4-byte entries per node against
    // reading the node's entire neighbor list (what §2.2.1's out-of-core
    // baselines do). Run on the same hub-heavy graph.
    use ringsampler_io::engine::{read_group_blocking, ReadSlice, UringReader};
    let graph = bench_graph();
    let hubs: Vec<NodeId> = {
        // Take the 256 highest-degree nodes: where the difference matters.
        let mut deg: Vec<(u64, NodeId)> = (0..graph.num_nodes() as NodeId)
            .map(|v| (graph.degree(v), v))
            .collect();
        deg.sort_unstable_by(|a, b| b.cmp(a));
        deg.into_iter().take(256).map(|(_, v)| v).collect()
    };
    let fanout = 10usize;

    let mut g = c.benchmark_group("ablation/fetch_strategy");
    g.throughput(Throughput::Elements(hubs.len() as u64));
    g.bench_function("offset_sampled_entries", |b| {
        let mut r = UringReader::open(graph.edge_path(), 512).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let mut sampler = OffsetSampler::new();
        let mut picks = Vec::new();
        b.iter(|| {
            let mut reqs = Vec::new();
            for &v in &hubs {
                let range = graph.neighbor_range(v);
                picks.clear();
                sampler.sample_range(range.start, range.end, fanout, &mut rng, &mut picks);
                reqs.extend(
                    picks
                        .iter()
                        .map(|&e| ReadSlice::new(OnDiskGraph::entry_byte_offset(e), 4)),
                );
            }
            let mut total = 0usize;
            for chunk in reqs.chunks(512) {
                let buf = read_group_blocking(&mut r, chunk, Vec::new()).unwrap();
                total += buf.len();
            }
            total
        });
    });
    g.bench_function("full_neighbor_lists", |b| {
        let file = std::fs::File::open(graph.edge_path()).unwrap();
        b.iter(|| {
            let mut total = 0usize;
            for &v in &hubs {
                total += graph.read_neighbors(&file, v).unwrap().len();
            }
            total
        });
    });
    g.finish();
}

fn bench_cache_policies(c: &mut Criterion) {
    let graph = bench_graph();
    let t = targets(2_000);
    let mut g = c.benchmark_group("ablation/cache");
    for (label, cache) in [
        ("none", CachePolicy::None),
        (
            "hot_set_8MiB",
            CachePolicy::Page {
                budget_bytes: 8 << 20,
            },
        ),
    ] {
        g.bench_function(label, |b| {
            let sampler = RingSampler::new(
                graph.clone(),
                SamplerConfig::new()
                    .fanouts(&[10, 10])
                    .batch_size(512)
                    .threads(2)
                    .cache(cache)
                    .seed(2),
            )
            .unwrap();
            b.iter(|| sampler.sample_epoch(&t).unwrap());
        });
    }
    g.finish();
}

fn bench_offset_sampler_strategies(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation/offset_sampler");
    g.throughput(Throughput::Elements(1));
    // deg 1000 → partial Fisher–Yates branch; deg 100_000 → Floyd branch.
    for deg in [1_000u64, 100_000] {
        g.bench_with_input(BenchmarkId::from_parameter(deg), &deg, |b, &deg| {
            let mut sampler = OffsetSampler::new();
            let mut rng = StdRng::seed_from_u64(3);
            let mut out = Vec::new();
            b.iter(|| {
                out.clear();
                sampler.sample_range(0, deg, 20, &mut rng, &mut out);
                out.len()
            });
        });
    }
    g.finish();
}

fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .measurement_time(std::time::Duration::from_secs(3))
        .warm_up_time(std::time::Duration::from_millis(500))
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_offset_vs_full_fetch, bench_cache_policies,
        bench_offset_sampler_strategies
}
criterion_main!(benches);
