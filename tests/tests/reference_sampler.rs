//! The worker against the exact reference sampler
//! (`ringsampler_integration::reference`): for every fetch shape, engine,
//! ring size and replacement setting, and for shuffled seeds, seeds with
//! duplicates and a single seed, `sample_batch` returns exactly the sample
//! the reference rebuilds from the graph in memory.

use ringsampler::{epoch_targets, CachePolicy, ReadPlanMode, RingSampler, SamplerConfig};
use ringsampler_graph::gen::GeneratorSpec;
use ringsampler_graph::preprocess::{build_dataset, PreprocessOptions};
use ringsampler_graph::{NodeId, OnDiskGraph};
use ringsampler_integration::reference;
use ringsampler_io::EngineKind;

const NODES: u64 = 5_000;
const FANOUTS: [usize; 3] = [10, 5, 3];
const SEED: u64 = 29;

#[test]
fn worker_samples_equal_the_reference() {
    let spec = GeneratorSpec::PowerLaw {
        nodes: NODES,
        edges: 12 * NODES,
        exponent: 0.7,
    };
    let base = std::env::temp_dir().join(format!("rs-it-reference-{}", std::process::id()));
    build_dataset(NODES, spec.stream(5), &base, &PreprocessOptions::default()).unwrap();
    let csr = OnDiskGraph::open(&base).unwrap().load_csr().unwrap();
    let shuffled = epoch_targets(NODES, 0, 3);
    // Every seed twice, the repeats 64 positions apart.
    let duplicated: Vec<NodeId> = shuffled[..64]
        .iter()
        .chain(&shuffled[..64])
        .copied()
        .collect();
    let batches: [&[NodeId]; 3] = [&shuffled[..128], &duplicated, &shuffled[200..201]];
    // An eighth of the edge file: hits and misses.
    let hot = CachePolicy::Page {
        budget_bytes: 12 * NODES * 4 / 8,
    };
    let shapes = [
        (ReadPlanMode::Off, CachePolicy::None),
        (ReadPlanMode::coalesce(), CachePolicy::None),
        (ReadPlanMode::Coalesce { gap: 0 }, CachePolicy::None),
        (ReadPlanMode::Off, hot),
    ];
    for replace in [false, true] {
        let want: Vec<_> = (0..)
            .zip(batches)
            .map(|(i, seeds)| reference::sample_batch(&csr, seeds, &FANOUTS, SEED, i, replace))
            .collect();
        for (mode, cache) in shapes {
            for engine in [EngineKind::Uring, EngineKind::Pread] {
                for ring_entries in [8, 512] {
                    let cfg = SamplerConfig::new()
                        .fanouts(&FANOUTS)
                        .batch_size(128)
                        .ring_entries(ring_entries)
                        .engine(engine)
                        .read_plan(mode)
                        .cache(cache)
                        .with_replacement(replace)
                        .seed(SEED);
                    let sampler = RingSampler::new(OnDiskGraph::open(&base).unwrap(), cfg).unwrap();
                    let mut w = sampler.worker().unwrap();
                    let what = format!(
                        "{mode:?} {cache:?} {engine:?} ring {ring_entries} replace {replace}"
                    );
                    for ((i, seeds), want) in (0..).zip(batches).zip(&want) {
                        assert_eq!(
                            &w.sample_batch(seeds, i).unwrap(),
                            want,
                            "{what}: batch {i}"
                        );
                    }
                    if cache != CachePolicy::None {
                        let m = w.metrics();
                        assert!(m.cache_hits > 0 && m.cache_misses > 0, "{what}: {m:?}");
                    }
                }
            }
        }
    }
}
