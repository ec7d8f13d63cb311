//! Layer-wise sampling (FastGCN/LADIES style) — the extension the paper
//! lists as planned work (§5 "Limitations": "RingSampler currently
//! supports only node-wise GNN sampling, but we are planning to extend it
//! to layer-wise sampling too").
//!
//! Node-wise GraphSAGE samples `fanout` neighbors *per target*, so layer
//! width multiplies by the fanout each hop. Layer-wise sampling instead
//! draws a **fixed number of nodes per layer** for all targets jointly,
//! with probability proportional to (out-)degree — bounding the width and
//! the I/O of deep models.
//!
//! The io_uring mechanics are identical to node-wise sampling: candidate
//! *entry offsets* are drawn first, and only those 4-byte entries are
//! fetched. Candidates are drawn from the union of the targets' offset
//! ranges (which weights nodes by degree exactly), then the fetched
//! neighbor values are deduplicated into the layer's node set and edges
//! are kept for targets whose range produced them.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use ringsampler_graph::NodeId;

use crate::block::{BatchSample, LayerSample};
use crate::error::Result;
use crate::worker::SamplerWorker;

/// Per-layer node budgets for layer-wise sampling.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayerwisePlan {
    /// Number of nodes to draw for each successive layer.
    pub layer_sizes: Vec<usize>,
    /// Oversampling factor: how many candidate entries are drawn per
    /// requested node (collisions and duplicates shrink the draw).
    pub oversample: usize,
}

impl LayerwisePlan {
    /// A plan with the given per-layer node budgets and default 4×
    /// oversampling.
    ///
    /// # Panics
    /// Panics if `layer_sizes` is empty or contains zeros.
    pub fn new(layer_sizes: &[usize]) -> Self {
        assert!(!layer_sizes.is_empty(), "need at least one layer");
        assert!(layer_sizes.iter().all(|&s| s > 0), "zero layer size");
        Self {
            layer_sizes: layer_sizes.to_vec(),
            oversample: 4,
        }
    }
}

impl SamplerWorker {
    /// Samples a mini-batch **layer-wise**: each layer draws
    /// `plan.layer_sizes[l]` nodes (degree-proportional, via uniform
    /// entry-offset draws over the targets' combined ranges) instead of
    /// `fanout` per node.
    ///
    /// The returned [`BatchSample`] has the same shape as node-wise
    /// output, so the GNN substrate consumes it unchanged.
    ///
    /// # Errors
    /// Propagates I/O errors and memory-budget exhaustion.
    pub fn sample_batch_layerwise(
        &mut self,
        seeds: &[NodeId],
        plan: &LayerwisePlan,
        batch_seed: u64,
    ) -> Result<BatchSample> {
        let mut rng = StdRng::seed_from_u64(
            0x4C57 ^ batch_seed.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        );
        let mut targets: Vec<NodeId> = seeds.to_vec();
        let mut layers = Vec::with_capacity(plan.layer_sizes.len());
        for &layer_size in &plan.layer_sizes {
            let layer = self.sample_layerwise_once(&targets, layer_size, plan.oversample, &mut rng)?;
            targets = layer.unique_neighbors();
            layers.push(layer);
            if targets.is_empty() {
                // Remaining layers are empty but must exist for shape.
                while layers.len() < plan.layer_sizes.len() {
                    layers.push(LayerSample::default());
                }
                break;
            }
        }
        Ok(BatchSample { layers })
    }

    fn sample_layerwise_once(
        &mut self,
        targets: &[NodeId],
        layer_size: usize,
        oversample: usize,
        rng: &mut StdRng,
    ) -> Result<LayerSample> {
        // Prefix-sum the targets' degrees so a uniform draw over
        // [0, total) lands in target i's range with p ∝ degree(i) — the
        // degree-proportional layer-wise distribution.
        let graph = self.graph_handle();
        let mut prefix = Vec::with_capacity(targets.len() + 1);
        prefix.push(0u64);
        for &t in targets {
            prefix.push(prefix.last().expect("non-empty") + graph.degree(t));
        }
        let total = *prefix.last().expect("non-empty");
        if total == 0 {
            return Ok(LayerSample {
                fanout: layer_size,
                targets: targets.to_vec(),
                src_pos: Vec::new(),
                dst: Vec::new(),
            });
        }

        let draws = layer_size.saturating_mul(oversample).min(total as usize).max(1);
        // Draw candidate positions in the virtual concatenated range and
        // map them to (target, entry offset).
        let mut picks: Vec<(u32, u64)> = Vec::with_capacity(draws);
        for _ in 0..draws {
            let x = rng.gen_range(0..total);
            let i = match prefix.binary_search(&x) {
                Ok(i) => i,     // x is exactly a boundary: belongs to range i
                Err(i) => i - 1,
            };
            let range = graph.neighbor_range(targets[i]);
            let entry = range.start + (x - prefix[i]);
            picks.push((i as u32, entry));
        }
        // Dedup identical entries (same edge drawn twice).
        picks.sort_unstable_by_key(|&(_, e)| e);
        picks.dedup_by_key(|p| p.1);

        let entries: Vec<u64> = picks.iter().map(|&(_, e)| e).collect();
        let values = self.fetch_entries(&entries, &[])?;

        // Keep edges until `layer_size` distinct neighbor values are
        // collected (scanning in a rng-shuffled order to avoid biasing
        // toward low entry offsets after the sort above).
        let mut order: Vec<usize> = (0..picks.len()).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.gen_range(0..=i));
        }
        let mut kept_nodes: Vec<NodeId> = Vec::new();
        let mut src_pos = Vec::new();
        let mut dst = Vec::new();
        for idx in order {
            let v = values[idx];
            let is_new = !kept_nodes.contains(&v);
            if is_new && kept_nodes.len() >= layer_size {
                continue; // layer is full; only accept edges to kept nodes
            }
            if is_new {
                kept_nodes.push(v);
            }
            src_pos.push(picks[idx].0);
            dst.push(v);
        }
        Ok(LayerSample {
            fanout: layer_size,
            targets: targets.to_vec(),
            src_pos,
            dst,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SamplerConfig;
    use crate::engine::RingSampler;
    use ringsampler_graph::edgefile::write_csr;
    use ringsampler_graph::CsrGraph;

    fn sampler(tag: &str) -> (RingSampler, CsrGraph) {
        let base =
            std::env::temp_dir().join(format!("rs-core-lw-{}-{tag}", std::process::id()));
        let mut edges = Vec::new();
        // Node 0 is a hub (degree 40), the rest have degree v % 5.
        for j in 0..40u32 {
            edges.push((0, (j + 1) % 100));
        }
        for v in 1..100u32 {
            for j in 0..(v % 5) {
                edges.push((v, (v + j + 1) % 100));
            }
        }
        let csr = CsrGraph::from_edges(100, edges).unwrap();
        let g = write_csr(&csr, &base).unwrap();
        let s = RingSampler::new(
            g,
            SamplerConfig::new().fanouts(&[4, 4]).ring_entries(32).seed(1),
        )
        .unwrap();
        (s, csr)
    }

    #[test]
    fn layerwise_sample_is_valid_and_bounded() {
        let (s, csr) = sampler("valid");
        let mut w = s.worker().unwrap();
        let plan = LayerwisePlan::new(&[8, 4]);
        let seeds: Vec<NodeId> = (0..50).collect();
        let b = w.sample_batch_layerwise(&seeds, &plan, 0).unwrap();
        assert_eq!(b.layers.len(), 2);
        for (l, layer) in b.layers.iter().enumerate() {
            // All sampled edges are real edges.
            for (src, dst) in layer.iter_edges() {
                assert!(csr.neighbors(src).contains(&dst), "bad edge {src}->{dst}");
            }
            // Layer width bounded by the plan.
            let width = layer.unique_neighbors().len();
            assert!(
                width <= plan.layer_sizes[l],
                "layer {l} width {width} exceeds {}",
                plan.layer_sizes[l]
            );
        }
    }

    #[test]
    fn layerwise_is_deterministic() {
        let (s, _) = sampler("det");
        let mut w1 = s.worker().unwrap();
        let mut w2 = s.worker().unwrap();
        let plan = LayerwisePlan::new(&[6, 3]);
        let seeds: Vec<NodeId> = (0..30).collect();
        let a = w1.sample_batch_layerwise(&seeds, &plan, 5).unwrap();
        let b = w2.sample_batch_layerwise(&seeds, &plan, 5).unwrap();
        assert_eq!(a, b);
        let c = w2.sample_batch_layerwise(&seeds, &plan, 6).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn hub_nodes_dominate_layerwise_draws() {
        // Degree-proportional sampling must hit the hub's neighbors far
        // more often than a uniform-over-nodes scheme would.
        let (s, csr) = sampler("hub");
        let mut w = s.worker().unwrap();
        let plan = LayerwisePlan::new(&[10]);
        let seeds: Vec<NodeId> = (0..100).collect();
        let mut hub_edges = 0usize;
        let mut total_edges = 0usize;
        for batch in 0..30 {
            let b = w.sample_batch_layerwise(&seeds, &plan, batch).unwrap();
            for (src, _) in b.layers[0].iter_edges() {
                if src == 0 {
                    hub_edges += 1;
                }
                total_edges += 1;
            }
        }
        let hub_degree_share = 40.0 / csr.num_edges() as f64;
        let observed = hub_edges as f64 / total_edges as f64;
        assert!(
            observed > hub_degree_share * 0.5,
            "hub share {observed:.3} far below degree share {hub_degree_share:.3}"
        );
    }

    #[test]
    fn zero_degree_frontier_terminates_early() {
        let base =
            std::env::temp_dir().join(format!("rs-core-lw-zero-{}", std::process::id()));
        // Star: 0 -> {1, 2, 3}, leaves have no out-edges.
        let csr = CsrGraph::from_edges(4, vec![(0, 1), (0, 2), (0, 3)]).unwrap();
        let g = write_csr(&csr, &base).unwrap();
        let s = RingSampler::new(
            g,
            SamplerConfig::new().fanouts(&[2, 2, 2]).ring_entries(8),
        )
        .unwrap();
        let mut w = s.worker().unwrap();
        let plan = LayerwisePlan::new(&[2, 2, 2]);
        let b = w.sample_batch_layerwise(&[0], &plan, 0).unwrap();
        assert_eq!(b.layers.len(), 3);
        assert!(b.layers[0].num_edges() > 0);
        assert_eq!(b.layers[2].num_edges(), 0);
    }

    #[test]
    #[should_panic(expected = "at least one layer")]
    fn empty_plan_rejected() {
        let _ = LayerwisePlan::new(&[]);
    }
}
