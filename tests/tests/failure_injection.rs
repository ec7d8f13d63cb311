//! Failure injection: corrupt files, truncations, budget exhaustion
//! mid-flight, and engine fallback behavior.

use ringsampler::{CachePolicy, MemoryBudget, RingSampler, SamplerConfig, SamplerError};
use ringsampler_graph::edgefile::{write_csr, EDGE_EXT, INDEX_EXT};
use ringsampler_graph::{CsrGraph, GraphError, NodeId, OnDiskGraph};
use ringsampler_io::IoEngineError;

fn make_graph(tag: &str) -> (std::path::PathBuf, OnDiskGraph) {
    make_graph_of(tag, 200)
}

/// `nodes` nodes, node `v` with `v % 6 + 1` neighbours: ~14 bytes a node.
fn make_graph_of(tag: &str, nodes: u32) -> (std::path::PathBuf, OnDiskGraph) {
    let base = std::env::temp_dir().join(format!("rs-it-fail-{}-{tag}", std::process::id()));
    let mut edges = Vec::new();
    for v in 0..nodes {
        for j in 0..(v % 6 + 1) {
            edges.push((v, (v * 11 + j) % nodes));
        }
    }
    let csr = CsrGraph::from_edges(nodes as usize, edges).unwrap();
    let g = write_csr(&csr, &base).unwrap();
    (base, g)
}

fn cleanup(base: &std::path::Path) {
    std::fs::remove_file(base.with_extension(EDGE_EXT)).ok();
    std::fs::remove_file(base.with_extension(INDEX_EXT)).ok();
}

#[test]
fn truncated_edge_file_fails_at_open_not_at_sample() {
    let (base, _g) = make_graph("trunc");
    let edge = base.with_extension(EDGE_EXT);
    let bytes = std::fs::read(&edge).unwrap();
    std::fs::write(&edge, &bytes[..bytes.len() / 2]).unwrap();
    // Validation catches the inconsistency before any sampling starts.
    match OnDiskGraph::open(&base) {
        Err(GraphError::Truncated { .. }) => {}
        other => panic!("expected Truncated, got {other:?}"),
    }
    cleanup(&base);
}

#[test]
fn file_shrunk_after_open_surfaces_as_short_read() {
    let (base, g) = make_graph("shrink");
    let sampler = RingSampler::new(
        g,
        SamplerConfig::new().fanouts(&[3]).batch_size(64).threads(1),
    )
    .unwrap();
    // Sabotage: shrink the edge file while the sampler holds it open.
    let edge = base.with_extension(EDGE_EXT);
    let bytes = std::fs::read(&edge).unwrap();
    std::fs::write(&edge, &bytes[..100]).unwrap();
    let targets: Vec<NodeId> = (0..200).collect();
    match sampler.sample_epoch(&targets) {
        Err(SamplerError::Io(e)) => {
            let msg = e.to_string();
            assert!(
                msg.contains("short read") || msg.contains("failed"),
                "unexpected error: {msg}"
            );
        }
        other => panic!("expected I/O failure, got {:?}", other.map(|_| ())),
    }
    cleanup(&base);
}

#[test]
fn file_shrunk_after_open_with_hot_set_never_pads() {
    // The hot set keeps the bytes it loaded in `new`; misses read the file
    // as it is now, cut mid-page. Every batch must fail with a short read
    // or return only true edges of the original graph: a page read short
    // is never padded with zeros and served later.
    const PAGE: u64 = 4096;
    for hot_pages in [2u64, 64] {
        let (base, g) = make_graph_of(&format!("shrinkhot{hot_pages}"), 3_000);
        let csr = g.load_csr().unwrap();
        let cfg = SamplerConfig::new()
            .fanouts(&[3])
            .batch_size(1)
            .threads(1)
            .cache(CachePolicy::Page {
                budget_bytes: hot_pages * PAGE,
            });
        let sampler = RingSampler::new(g, cfg).unwrap();
        let edge = base.with_extension(EDGE_EXT);
        let bytes = std::fs::read(&edge).unwrap();
        let whole = hot_pages * PAGE >= bytes.len() as u64;
        std::fs::write(&edge, &bytes[..2 * PAGE as usize + 1000]).unwrap();
        // One worker over every node: a short page it read once must not
        // answer a later batch either.
        let mut w = sampler.worker().unwrap();
        let (mut ok, mut short) = (0, 0);
        for v in 0..3_000u32 {
            match w.sample_batch(&[v], u64::from(v)) {
                Ok(s) => {
                    ok += 1;
                    for (src, dst) in s.layers[0].iter_edges() {
                        assert!(csr.neighbors(src).contains(&dst), "{dst} is no neighbour of {src}");
                    }
                }
                Err(SamplerError::Io(IoEngineError::ShortRead { .. })) => short += 1,
                Err(e) => panic!("expected a short read, got {e}"),
            }
        }
        if whole {
            assert_eq!((ok, short), (3_000, 0), "the file is all in memory");
        } else {
            assert!(ok > 0 && short > 0, "{ok} ok, {short} short");
        }
        let targets: Vec<NodeId> = (0..3_000).collect();
        match sampler.sample_epoch(&targets) {
            Ok(_) => assert!(whole, "a partial hot set cannot cover the cut"),
            Err(SamplerError::Io(IoEngineError::ShortRead { .. })) => assert!(!whole),
            Err(e) => panic!("expected a short read, got {e}"),
        }
        cleanup(&base);
    }
}

#[test]
fn budget_exhaustion_mid_epoch_reports_oom_not_corruption() {
    let (base, g) = make_graph("midoom");
    let meta = g.metadata_bytes();
    // Enough for the index and the worker's base charge, but not for
    // workspace growth during deep sampling.
    let budget = MemoryBudget::limited(meta + 600 * 1024);
    let sampler = RingSampler::new(
        g,
        SamplerConfig::new()
            .fanouts(&[10, 10, 10])
            .batch_size(200)
            .threads(1)
            .ring_entries(64)
            .budget(budget.clone()),
    )
    .unwrap();
    let targets: Vec<NodeId> = (0..200).collect();
    match sampler.sample_epoch(&targets) {
        Err(SamplerError::OutOfMemory { what, .. }) => {
            assert!(!what.is_empty());
        }
        Ok(_) => {
            // If the workspace happened to fit, the budget must balance.
        }
        Err(e) => panic!("expected OOM or success, got {e}"),
    }
    // Whatever happened, all charges are released once the sampler drops.
    drop(sampler);
    assert_eq!(budget.used(), 0);
    cleanup(&base);
}

#[test]
fn empty_target_list_is_a_clean_noop() {
    let (base, g) = make_graph("empty");
    let sampler = RingSampler::new(g, SamplerConfig::new().fanouts(&[3]).threads(2)).unwrap();
    let r = sampler.sample_epoch(&[]).unwrap();
    assert_eq!(r.metrics.batches, 0);
    assert_eq!(r.metrics.sampled_edges, 0);
    cleanup(&base);
}

#[test]
fn missing_index_file_is_reported_with_path() {
    let (base, _g) = make_graph("noidx");
    std::fs::remove_file(base.with_extension(INDEX_EXT)).unwrap();
    match OnDiskGraph::open(&base) {
        Err(GraphError::Io { path, .. }) => {
            assert!(path.expect("path attached").to_string_lossy().contains("rsix"));
        }
        other => panic!("expected Io error, got {other:?}"),
    }
    cleanup(&base);
}
