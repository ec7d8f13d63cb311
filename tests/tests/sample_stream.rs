//! The sample stream, pinned: FNV digests of three batches on a generated
//! skew graph, for every fetch shape (plan mode × hot set), both engines,
//! with and without replacement.
//!
//! Samples are a pure function of (graph, seeds, fanouts, batch seed), so
//! every shape and engine must fold to the same digests, and a change to
//! how a layer is planned or read must not move them. A change that means
//! to alter the stream (a new sampling rule, a different RNG use) updates
//! the constants below, and says so.
//!
//! Every layer draws its targets in node order. The two shuffled batches
//! pin that order for caller-ordered seeds, whose first layer keeps the
//! caller's targets while its draws follow node order; the ascending
//! batch's seeds are already in node order.
//!
//! The same graph with its edge file dropped from the page cache is read
//! as a new sampler reads a cold file — buffered, a group that finds pages
//! missing leading the next to stage its same-page runs — and the cold
//! shapes must fold to the same digests. (The worker test
//! `direct_reads_sample_what_buffered_reads_sample` pins the direct
//! reader's samples to the buffered ones.)

use ringsampler::{epoch_targets, BatchSample, CachePolicy, ReadPlanMode, RingSampler, SamplerConfig};
use ringsampler_graph::gen::GeneratorSpec;
use ringsampler_graph::preprocess::{build_dataset, PreprocessOptions};
use ringsampler_graph::{NodeId, OnDiskGraph};
use ringsampler_io::{sys, EngineKind};

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

/// Puts the edge file of `graph` in the page cache, or, `cold`, writes it
/// back and drops it from there. Just written, an ext4 file can keep pages
/// its journal still holds past a drop, so that drops until none is cached.
fn set_cached(graph: &OnDiskGraph, cold: bool) {
    use std::os::fd::AsRawFd;
    if !cold {
        std::fs::read(graph.edge_path()).unwrap();
        return;
    }
    let file = std::fs::File::open(graph.edge_path()).unwrap();
    file.sync_all().unwrap();
    for _ in 0..1000 {
        sys::fadvise(file.as_raw_fd(), sys::POSIX_FADV_DONTNEED).unwrap();
        if sys::cachestat(file.as_raw_fd(), 0, 0).unwrap().nr_cache == 0 {
            return;
        }
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    panic!("the page cache keeps the edge file (is TMPDIR on tmpfs?)");
}

/// The pinned digests of batches 0, 1 and 2, without and with replacement.
const WITHOUT_REPLACEMENT: [u64; 3] = [0x6bda_0e15_f42e_41df, 0x7405_bf37_0e60_ae6c, 0x1a8b_c4e5_5457_52e5];
const WITH_REPLACEMENT: [u64; 3] = [0x3237_f82f_c480_c316, 0xfdd1_8c88_4bb5_30ca, 0x06a8_e4f0_56d0_b7bc];

#[test]
fn sample_stream_is_pinned() {
    let spec = GeneratorSpec::PowerLaw {
        nodes: NODES,
        edges: 20 * NODES,
        exponent: 0.7,
    };
    let base = std::env::temp_dir().join(format!("rs-it-stream-{}", std::process::id()));
    build_dataset(NODES, spec.stream(3), &base, &PreprocessOptions::default()).unwrap();
    // Two shuffled batches (the first layer's targets in caller order) and
    // one of ascending seeds (already in node order).
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
            for (engine, cold) in [(EngineKind::Uring, false), (EngineKind::Pread, false), (EngineKind::Uring, true)] {
                let cfg = SamplerConfig::new()
                    .fanouts(&[15, 10, 5])
                    .batch_size(BATCH)
                    .ring_entries(64)
                    .engine(engine)
                    .read_plan(mode)
                    .cache(cache)
                    .with_replacement(replace)
                    .seed(11);
                let graph = OnDiskGraph::open(&base).unwrap();
                set_cached(&graph, cold);
                let sampler = RingSampler::new(graph, cfg).unwrap();
                let mut w = sampler.worker().unwrap();
                let got: Vec<u64> = batches
                    .iter()
                    .enumerate()
                    .map(|(i, seeds)| batch_digest(i, &w.sample_batch(seeds, i as u64).unwrap()))
                    .collect();
                let what = format!("{mode:?} {cache:?} {engine:?} cold {cold} replace {replace}");
                assert_eq!(got, want, "{what}: {:#x?}", got);
                let m = w.metrics();
                if cache != CachePolicy::None {
                    assert!(m.cache_hits > 0 && m.cache_misses > 0, "{what}: {m:?}");
                }
                // Warm, nothing is missing and nothing is staged.
                if !cold {
                    assert_eq!(m.spanned_reads, 0, "{what}: {m:?}");
                }
            }
        }
    }
}
