#![cfg_attr(not(test), deny(clippy::disallowed_types, clippy::disallowed_methods, clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable, clippy::todo, clippy::unimplemented, clippy::indexing_slicing, clippy::allow_attributes, clippy::allow_attributes_without_reason))]
//! The hot set: the sampler's neighbor cache, one immutable region of
//! edge-file pages chosen ahead of time and shared read-only by every worker
//! (policy and rationale in [`crate::cache`]).
//!
//! Built once by `RingSampler::new` under `CachePolicy::Page`, charged once,
//! then only read: a lookup is one bounds-checked load from the per-page
//! slot table. No hash, no insert, no eviction, no atomics, no locks.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use ringsampler_graph::{NodeId, OnDiskGraph};

use crate::block::BatchSample;
use crate::cache::PAGE_SIZE;
use crate::config::{CachePolicy, SamplerConfig};
use crate::error::{Result, SamplerError};
use crate::memory::MemoryCharge;
use crate::plan::ReadPlanMode;
use crate::worker::SamplerWorker;

/// Salts the profile's seeds, so the set is learned from a batch the run
/// never samples itself — never from `epoch_targets(n, 0, seed)`.
const PROFILE_SALT: u64 = 0x486F_7453_6574_5EED;

/// Slot of a page that is not resident.
const NIL: u32 = u32::MAX;

/// The resident pages and the slot table that finds them.
pub(crate) struct HotSet {
    /// Per page of the edge file: its slot in `region`, or [`NIL`].
    slot: Box<[u32]>,
    /// The resident pages in file order, back to back; the file's final
    /// page, when resident, holds only its valid bytes.
    region: Box<[u8]>,
    _charge: MemoryCharge,
}

impl std::fmt::Debug for HotSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HotSet")
            .field("bytes", &self.region.len())
            .finish_non_exhaustive()
    }
}

impl HotSet {
    /// Profiles `graph` under `cfg` and loads the `budget_bytes / PAGE_SIZE`
    /// hottest pages (the whole file if it is no longer than the budget),
    /// charging `budget_bytes` once.
    ///
    /// The profile is one batch of `cfg.batch_size` uniformly drawn targets
    /// (salted seeds) sampled by an uncached worker on the normal fetch
    /// path. Every sampled neighbor list spreads its draws evenly over its
    /// bytes and a page scores what lands on it; the top pages are kept,
    /// ties to the lower page, and a budget with room to spare is filled
    /// in file order — so a budget of at least the file holds all of it.
    /// The pages are then read through that worker's pipeline.
    ///
    /// # Errors
    /// `InvalidConfig` below one page, `OutOfMemory` if the budget cannot
    /// be charged, and whatever the profile batch or the load reads fail
    /// with.
    pub(crate) fn build(
        graph: &Arc<OnDiskGraph>,
        cfg: &SamplerConfig,
        budget_bytes: u64,
    ) -> Result<Self> {
        if budget_bytes < PAGE_SIZE as u64 {
            return Err(SamplerError::InvalidConfig(format!(
                "page cache budget {budget_bytes} below one page"
            )));
        }
        let charge = cfg.budget.charge(budget_bytes, "hot set")?;
        let seed = cfg.seed ^ PROFILE_SALT;
        let profiler = cfg
            .clone()
            .cache(CachePolicy::None)
            .read_plan(ReadPlanMode::coalesce())
            .seed(seed)
            .trace_capacity(0)
            .telemetry_opt(None);
        let mut worker = SamplerWorker::new(Arc::clone(graph), profiler, None)?;
        let file_len = worker.file_len();
        let pages = usize::try_from(file_len.div_ceil(PAGE_SIZE as u64))
            .map_err(|_| SamplerError::Internal("edge file has more pages than memory"))?;
        // Whole pages, except that the file's short final page costs only
        // its valid bytes: a budget of the file's length holds all of it.
        let fit = if budget_bytes >= file_len {
            pages
        } else {
            (budget_bytes / PAGE_SIZE as u64) as usize
        };
        // The profile's sample (~30 MB at full size) is freed before the
        // long-lived tables are allocated, so they can reuse its heap rather
        // than sit on top of it (EXPERIMENTS.md, "One hot set").
        let chosen = {
            let mut rng = StdRng::seed_from_u64(seed);
            let targets: Vec<NodeId> = match graph.num_nodes() {
                0 => Vec::new(),
                n => (0..cfg.batch_size)
                    .map(|_| rng.gen_range(0..n) as NodeId)
                    .collect(),
            };
            let sample = worker.sample_batch(&targets, 0)?;
            choose(&score_pages(graph, &sample, pages), fit)
        };
        let mut slot = vec![NIL; pages].into_boxed_slice();
        for (i, &p) in (0u32..).zip(&chosen) {
            if let Some(s) = slot.get_mut(p as usize) {
                *s = i;
            }
        }
        let bytes: u64 = chosen
            .iter()
            .map(|&p| file_len.saturating_sub(p * PAGE_SIZE as u64).min(PAGE_SIZE as u64))
            .sum();
        let mut region = vec![0u8; bytes as usize].into_boxed_slice();
        worker.read_pages(&chosen, &mut region)?;
        Ok(Self {
            slot,
            region,
            _charge: charge,
        })
    }

    /// The valid bytes of `page` if it is resident.
    #[inline]
    pub(crate) fn get(&self, page: u64) -> Option<&[u8]> {
        let slot = *self.slot.get(usize::try_from(page).ok()?)?;
        if slot == NIL {
            return None;
        }
        let start = slot as usize * PAGE_SIZE;
        self.region
            .get(start..(start + PAGE_SIZE).min(self.region.len()))
    }

    /// The resident page numbers, ascending.
    #[cfg(test)]
    pub(crate) fn pages(&self) -> impl Iterator<Item = u64> + '_ {
        (0u64..)
            .zip(self.slot.iter())
            .filter(|&(_, &s)| s != NIL)
            .map(|(p, _)| p)
    }
}

/// Per page of the edge file, the draws of `sample` expected to land on
/// it: each sampled list's draws spread evenly over the list's bytes.
fn score_pages(graph: &OnDiskGraph, sample: &BatchSample, pages: usize) -> Vec<f64> {
    let page = PAGE_SIZE as u64;
    let mut score = vec![0f64; pages];
    let mut draws: Vec<u32> = Vec::new();
    for layer in &sample.layers {
        draws.clear();
        draws.resize(layer.targets.len(), 0);
        for &pos in &layer.src_pos {
            if let Some(k) = draws.get_mut(pos as usize) {
                *k += 1;
            }
        }
        for (&t, &k) in layer.targets.iter().zip(&draws) {
            let range = graph.neighbor_range(t);
            let start = OnDiskGraph::entry_byte_offset(range.start);
            let end = OnDiskGraph::entry_byte_offset(range.end);
            if k == 0 || end <= start {
                continue;
            }
            let per_byte = f64::from(k) / (end - start) as f64;
            let mut b = start;
            while b < end {
                let next = ((b / page + 1) * page).min(end);
                if let Some(s) = score.get_mut((b / page) as usize) {
                    *s += per_byte * (next - b) as f64;
                }
                b = next;
            }
        }
    }
    score
}

/// The `fit` best-scored pages, ties to the lower page, topped up with
/// unscored pages in file order; returned ascending.
fn choose(scores: &[f64], fit: usize) -> Vec<u64> {
    let score = |p: u64| scores.get(p as usize).copied().unwrap_or(0.0);
    let all = 0..scores.len() as u64;
    let mut chosen: Vec<u64> = all.clone().filter(|&p| score(p) > 0.0).collect();
    // sort: build time, once per sampler: the profile's scored pages.
    chosen.sort_unstable_by(|&a, &b| score(b).total_cmp(&score(a)).then(a.cmp(&b)));
    chosen.truncate(fit);
    let room = fit - chosen.len();
    chosen.extend(all.filter(|&p| score(p) <= 0.0).take(room));
    // sort: build time, once per sampler: the pages to load, in file order.
    chosen.sort_unstable();
    chosen
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::MemoryBudget;
    use ringsampler_graph::edgefile::write_csr;
    use ringsampler_graph::gen::GeneratorSpec;
    use ringsampler_graph::CsrGraph;

    /// A power-law graph whose edge file spans ~40 pages.
    fn skewed(tag: &str) -> Arc<OnDiskGraph> {
        let base =
            std::env::temp_dir().join(format!("rs-core-hotset-{}-{tag}", std::process::id()));
        let spec = GeneratorSpec::PowerLaw {
            nodes: 4_000,
            edges: 40_000,
            exponent: 0.7,
        };
        let csr = CsrGraph::from_edges(4_000, spec.stream(3).collect::<Vec<_>>()).unwrap();
        Arc::new(write_csr(&csr, &base).unwrap())
    }

    fn cfg(pages: u64) -> SamplerConfig {
        SamplerConfig::new()
            .fanouts(&[10, 5])
            .batch_size(256)
            .seed(8)
            .cache(CachePolicy::Page {
                budget_bytes: pages * PAGE_SIZE as u64,
            })
    }

    fn build(graph: &Arc<OnDiskGraph>, cfg: &SamplerConfig) -> HotSet {
        let CachePolicy::Page { budget_bytes } = cfg.cache else {
            panic!("cached config")
        };
        HotSet::build(graph, cfg, budget_bytes).unwrap()
    }

    #[test]
    fn equal_graph_and_config_build_the_same_pages() {
        let graph = skewed("same");
        let a: Vec<u64> = build(&graph, &cfg(8)).pages().collect();
        let b: Vec<u64> = build(&graph, &cfg(8)).pages().collect();
        assert_eq!(a.len(), 8);
        assert_eq!(a, b);
        // The profile seed is the configuration's: another seed may choose
        // otherwise, but still exactly the budget's worth.
        assert_eq!(build(&graph, &cfg(8).seed(9)).pages().count(), 8);
    }

    #[test]
    fn resident_pages_hold_the_file_bytes() {
        let graph = skewed("bytes");
        let file = std::fs::read(graph.edge_path()).unwrap();
        let hot = build(&graph, &cfg(8));
        let mut resident = 0;
        for page in 0..file.len().div_ceil(PAGE_SIZE) as u64 {
            let at = page as usize * PAGE_SIZE;
            let want = &file[at..(at + PAGE_SIZE).min(file.len())];
            if let Some(got) = hot.get(page) {
                assert_eq!(got, want, "page {page}");
                resident += 1;
            }
        }
        assert_eq!(resident, 8);
        assert!(hot.get(1 << 40).is_none());
    }

    #[test]
    fn budget_over_the_file_holds_all_of_it_and_the_short_final_page_stays_short() {
        let graph = skewed("whole");
        let file_len = std::fs::metadata(graph.edge_path()).unwrap().len() as usize;
        let pages = file_len.div_ceil(PAGE_SIZE);
        assert_ne!(file_len % PAGE_SIZE, 0, "the test wants a short final page");
        let hot = build(&graph, &cfg(pages as u64 + 5));
        assert_eq!(
            hot.pages().collect::<Vec<_>>(),
            (0..pages as u64).collect::<Vec<_>>()
        );
        let last = hot.get(pages as u64 - 1).unwrap();
        assert_eq!(
            last.len(),
            file_len % PAGE_SIZE,
            "only the file's valid bytes"
        );
    }

    #[test]
    fn hot_pages_are_the_most_drawn() {
        // Scores follow the draws: the set's pages out-score every page
        // it leaves out, and ties go to the lower page.
        let scores = [0.0, 3.0, 1.0, 3.0, 0.5, 0.0];
        assert_eq!(choose(&scores, 2), [1, 3]);
        assert_eq!(choose(&scores, 3), [1, 2, 3]);
        // Room left after every scored page: unscored ones in file order.
        assert_eq!(choose(&scores, 5), [0, 1, 2, 3, 4]);
        assert_eq!(choose(&scores, 9), [0, 1, 2, 3, 4, 5]);
        assert_eq!(choose(&[2.0, 2.0, 2.0], 2), [0, 1]);
    }

    #[test]
    fn budget_is_charged_once_and_released_with_the_set() {
        let graph = skewed("charge");
        let budget = MemoryBudget::unlimited();
        let hot = build(&graph, &cfg(8).budget(budget.clone()));
        assert_eq!(
            budget.used(),
            8 * PAGE_SIZE as u64,
            "the profile worker's charge is gone"
        );
        drop(hot);
        assert_eq!(budget.used(), 0);
        let tight = cfg(8).budget(MemoryBudget::limited(8 * PAGE_SIZE as u64 - 1));
        assert!(matches!(
            HotSet::build(&graph, &tight, 8 * PAGE_SIZE as u64),
            Err(SamplerError::OutOfMemory { .. })
        ));
        assert!(matches!(
            HotSet::build(&graph, &cfg(1), PAGE_SIZE as u64 - 1),
            Err(SamplerError::InvalidConfig(_))
        ));
    }
}
