//! The sample stream, pinned: FNV digests of three batches on a generated
//! skew graph, for every fetch shape (plan mode × hot set), both engines,
//! with and without replacement.
//!
//! Samples are a pure function of (graph, seeds, fanouts, batch seed), so
//! every shape and engine must fold to the same digests, and a change to
//! how a layer is drawn, planned or read must not move them. A change that
//! means to alter the stream (a new sampling rule, a different RNG use)
//! updates the constants below, and says so.

use ringsampler::{epoch_targets, BatchSample, CachePolicy, ReadPlanMode, RingSampler, SamplerConfig};
use ringsampler_graph::gen::GeneratorSpec;
use ringsampler_graph::preprocess::{build_dataset, PreprocessOptions};
use ringsampler_graph::{NodeId, OnDiskGraph};
use ringsampler_io::EngineKind;

const NODES: u64 = 20_000;
const BATCH: usize = 128;

/// FNV-1a over each layer's targets, its neighbours and its width, seeded
/// by the batch index: the digest ringbench's oracle folds per batch.
fn batch_digest(idx: usize, sample: &BatchSample) -> u64 {
    const PRIME: u64 = 0x100_0000_01b3;
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ (idx as u64).wrapping_mul(PRIME);
    let mut fold = |v: u64| h = (h ^ v).wrapping_mul(PRIME);
    for layer in &sample.layers {
        layer.targets.iter().for_each(|&t| fold(u64::from(t)));
        layer.dst.iter().for_each(|&d| fold(u64::from(d)));
        fold(layer.dst.len() as u64);
    }
    h
}

/// The pinned digests of batches 0, 1 and 2, without and with replacement.
const WITHOUT_REPLACEMENT: [u64; 3] = [0x02ed_2a15_c209_1550, 0xcc02_52c1_a598_35a1, 0x1a8b_c4e5_5457_52e5];
const WITH_REPLACEMENT: [u64; 3] = [0xed94_a219_f3db_ac9c, 0x167f_595c_035d_5dfb, 0x06a8_e4f0_56d0_b7bc];

#[test]
fn sample_stream_is_pinned() {
    let spec = GeneratorSpec::PowerLaw {
        nodes: NODES,
        edges: 20 * NODES,
        exponent: 0.7,
    };
    let base = std::env::temp_dir().join(format!("rs-it-stream-{}", std::process::id()));
    build_dataset(NODES, spec.stream(3), &base, &PreprocessOptions::default()).unwrap();
    // Two shuffled batches (the first layer in caller order) and one of
    // ascending seeds (every layer in frontier order).
    let shuffled = epoch_targets(NODES, 0, 7);
    let mut ascending = shuffled[2 * BATCH..3 * BATCH].to_vec();
    ascending.sort_unstable();
    let batches: [&[NodeId]; 3] = [&shuffled[..BATCH], &shuffled[BATCH..2 * BATCH], &ascending];
    // A hot set of 64 pages, an eighth of the edge file: hits and misses.
    let hot = CachePolicy::Page { budget_bytes: 64 * 4096 };
    let shapes = [
        (ReadPlanMode::Off, CachePolicy::None),
        (ReadPlanMode::coalesce(), CachePolicy::None),
        (ReadPlanMode::coalesce(), hot),
    ];
    for (replace, want) in [(false, WITHOUT_REPLACEMENT), (true, WITH_REPLACEMENT)] {
        for (mode, cache) in shapes {
            for engine in [EngineKind::Uring, EngineKind::Pread] {
                let cfg = SamplerConfig::new()
                    .fanouts(&[15, 10, 5])
                    .batch_size(BATCH)
                    .ring_entries(64)
                    .engine(engine)
                    .read_plan(mode)
                    .cache(cache)
                    .with_replacement(replace)
                    .seed(11);
                let sampler = RingSampler::new(OnDiskGraph::open(&base).unwrap(), cfg).unwrap();
                let mut w = sampler.worker().unwrap();
                let got: Vec<u64> = batches
                    .iter()
                    .enumerate()
                    .map(|(i, seeds)| batch_digest(i, &w.sample_batch(seeds, i as u64).unwrap()))
                    .collect();
                let what = format!("{mode:?} {cache:?} {engine:?} replace {replace}");
                assert_eq!(got, want, "{what}: {:#x?}", got);
                if cache != CachePolicy::None {
                    let m = w.metrics();
                    assert!(m.cache_hits > 0 && m.cache_misses > 0, "{what}: {m:?}");
                }
            }
        }
    }
}
