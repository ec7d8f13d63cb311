//! An exact reference sampler, for `==` checks of the worker's samples.
//!
//! [`sample_batch`] rebuilds a mini-batch's [`BatchSample`] from the graph
//! held in memory, sharing nothing with the sampler but its
//! [`OffsetSampler`]: no reader, plan, hot set or pipeline. It states the
//! sampling rule the worker must keep whatever feeds its fetch:
//!
//! * the batch draws from one stream, `StdRng` seeded with
//!   `seed ^ batch_seed · 0x9E37_79B9_7F4A_7C15`, layer after layer;
//! * each layer draws its targets in node order, equal nodes by position,
//!   so its `dst` is grouped by node while `src_pos` points at the target's
//!   position and the targets keep the order they came in;
//! * each target draws `fanout` offsets from its range of the offset index
//!   (up to its degree without replacement, none when it has no neighbour),
//!   and a drawn offset's neighbour is the entry there;
//! * the next layer's targets are the layer's sorted, unique neighbours;
//!   nothing samples the last layer's.

use rand::rngs::StdRng;
use rand::SeedableRng;

use ringsampler::sampling::OffsetSampler;
use ringsampler::{BatchSample, LayerSample};
use ringsampler_graph::{CsrGraph, NodeId};

/// The batch stream's multiplier: batch `b` of a sampler seeded `s` draws
/// from `StdRng::seed_from_u64(s ^ b · BATCH_MIX)`.
pub const BATCH_MIX: u64 = 0x9E37_79B9_7F4A_7C15;

/// The sample of the batch `seeds` of index `batch_seed`, for a sampler
/// seeded `seed` with `fanouts`, drawing `with_replacement` or not, over
/// `csr` (the graph `OnDiskGraph::load_csr` reads back).
pub fn sample_batch(
    csr: &CsrGraph,
    seeds: &[NodeId],
    fanouts: &[usize],
    seed: u64,
    batch_seed: u64,
    with_replacement: bool,
) -> BatchSample {
    let mut rng = StdRng::seed_from_u64(seed ^ batch_seed.wrapping_mul(BATCH_MIX));
    let mut sampler = OffsetSampler::new();
    let mut targets = seeds.to_vec();
    let mut layers = Vec::with_capacity(fanouts.len());
    for &fanout in fanouts {
        let layer = sample_layer(
            csr,
            targets,
            fanout,
            with_replacement,
            &mut sampler,
            &mut rng,
        );
        let mut next = layer.dst.clone();
        next.sort_unstable();
        next.dedup();
        targets = next;
        layers.push(layer);
    }
    BatchSample { layers }
}

/// One layer over `targets`, drawn in node order.
fn sample_layer(
    csr: &CsrGraph,
    targets: Vec<NodeId>,
    fanout: usize,
    with_replacement: bool,
    sampler: &mut OffsetSampler,
    rng: &mut StdRng,
) -> LayerSample {
    let mut order: Vec<usize> = (0..targets.len()).collect();
    order.sort_by_key(|&pos| targets[pos]);
    let (offsets, entries) = (csr.offsets(), csr.neighbor_array());
    let (mut src_pos, mut dst, mut drawn) = (Vec::new(), Vec::new(), Vec::new());
    for pos in order {
        let t = targets[pos] as usize;
        let (lo, hi) = (offsets[t], offsets[t + 1]);
        drawn.clear();
        if with_replacement {
            sampler.sample_range_with_replacement(lo, hi, fanout, rng, &mut drawn);
        } else {
            sampler.sample_range(lo, hi, fanout, rng, &mut drawn);
        }
        src_pos.extend(drawn.iter().map(|_| pos as u32));
        dst.extend(drawn.iter().map(|&e| entries[e as usize]));
    }
    LayerSample {
        fanout,
        targets,
        src_pos,
        dst,
    }
}
