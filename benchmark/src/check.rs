//! Output checking against an independent copy of the graph, and the
//! sample digest that must not depend on plan mode, cache or epoch.

use ringsampler::BatchSample;
use ringsampler_graph::CsrGraph;

/// The whole graph in memory (`OnDiskGraph::load_csr`), read with plain file
/// I/O: nothing the sampler's read path does can make it agree by accident.
pub struct Oracle {
    csr: CsrGraph,
    fanouts: Vec<usize>,
}

impl Oracle {
    pub fn new(csr: CsrGraph, fanouts: &[usize]) -> Self {
        Self {
            csr,
            fanouts: fanouts.to_vec(),
        }
    }

    /// Whether every sampled `(target, dst)` is an edge of the graph and
    /// every target got exactly `min(fanout, degree)` neighbours.
    pub fn batch_ok(&self, sample: &BatchSample) -> bool {
        if sample.layers.len() != self.fanouts.len() {
            return false;
        }
        sample
            .layers
            .iter()
            .zip(&self.fanouts)
            .all(|(layer, &fanout)| {
                if layer.src_pos.len() != layer.dst.len() {
                    return false;
                }
                let mut got = vec![0u64; layer.targets.len()];
                for (&pos, &dst) in layer.src_pos.iter().zip(&layer.dst) {
                    let Some(&target) = layer.targets.get(pos as usize) else {
                        return false;
                    };
                    if target as usize >= self.csr.num_nodes() {
                        return false;
                    }
                    let nbrs = self.csr.neighbors(target);
                    // Neighbour lists come out of the preprocessing sort, so
                    // the binary search finds every edge; the scan keeps the
                    // check right for an unsorted list.
                    if nbrs.binary_search(&dst).is_err() && !nbrs.contains(&dst) {
                        return false;
                    }
                    got[pos as usize] += 1;
                }
                layer.targets.iter().zip(&got).all(|(&t, &n)| {
                    (t as usize) < self.csr.num_nodes()
                        && n == self.csr.degree(t).min(fanout as u64)
                })
            })
    }
}

/// FNV-style digest of one batch, keyed by its index. Batches finish in any
/// order on any thread, so a run combines them with a wrapping add.
pub fn batch_digest(idx: usize, sample: &BatchSample) -> u64 {
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
