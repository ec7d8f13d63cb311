#![cfg_attr(not(test), deny(clippy::disallowed_types, clippy::disallowed_methods, clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable, clippy::todo, clippy::unimplemented, clippy::indexing_slicing, clippy::allow_attributes, clippy::allow_attributes_without_reason))]
//! The multi-threaded epoch engine (paper Fig. 3a, lower half).
//!
//! Mini-batches are statically partitioned across worker threads
//! round-robin ("equally distribute mini-batches across threads"); each
//! thread owns a private [`SamplerWorker`] with its own io_uring, so the
//! epoch runs with zero inter-thread synchronization besides the final
//! metric merge.

use std::sync::Arc;
use std::time::Instant;

use ringsampler_graph::{NodeId, OnDiskGraph, ENTRY_BYTES};

use ringstat::proc_io_now;

use crate::block::BatchSample;
use crate::config::{CachePolicy, SamplerConfig};
use crate::error::{Result, SamplerError};
use crate::hotset::HotSet;
use crate::memory::MemoryCharge;
use crate::metrics::{EpochReport, WorkerStats};
use crate::telemetry::{ensure_server, TelemetryHandle};
use crate::worker::SamplerWorker;

/// The RingSampler system handle: a stored graph plus a sampling
/// configuration.
///
/// Construction charges the in-memory offset index against the memory
/// budget (that is RingSampler's only `O(|V|)` resident structure) and,
/// under `CachePolicy::Page`, builds and charges the hot set once;
/// everything else is per-worker.
#[derive(Debug)]
pub struct RingSampler {
    graph: Arc<OnDiskGraph>,
    cfg: SamplerConfig,
    /// The read-only page region every worker shares (`CachePolicy::Page`).
    hot: Option<Arc<HotSet>>,
    /// Shared with the on-demand service's rebatched copy, which shares
    /// the graph.
    _index_charge: Arc<MemoryCharge>,
    /// `ringscope` server handle when `cfg.telemetry` is set (the
    /// process-global listener, shared across sequential samplers).
    telemetry: Option<TelemetryHandle>,
}

impl RingSampler {
    /// Creates a sampler over `graph` with `cfg`. Under
    /// `CachePolicy::Page` this profiles one batch and loads the hot set
    /// (see [`crate::cache`]).
    ///
    /// # Errors
    /// Fails on invalid configuration, if the offset index or the hot set
    /// does not fit the memory budget (simulated OOM), if the hot set's
    /// profile or load fails to read, or if telemetry is requested and the
    /// embedded server cannot bind its address.
    pub fn new(graph: OnDiskGraph, cfg: SamplerConfig) -> Result<Self> {
        cfg.validate()?;
        let index_charge = cfg.budget.charge(graph.metadata_bytes(), "offset index")?;
        let graph = Arc::new(graph);
        let hot = match cfg.cache {
            CachePolicy::None => None,
            CachePolicy::Page { budget_bytes } => {
                Some(Arc::new(HotSet::build(&graph, &cfg, budget_bytes)?))
            }
        };
        let telemetry = match &cfg.telemetry {
            Some(tcfg) => Some(ensure_server(tcfg)?),
            None => None,
        };
        Ok(Self {
            graph,
            cfg,
            hot,
            _index_charge: Arc::new(index_charge),
            telemetry,
        })
    }

    /// This sampler under `batch_size` (the on-demand service's batch of
    /// one), sharing its graph, index charge and hot set: nothing is
    /// charged, profiled or loaded again.
    pub(crate) fn rebatched(&self, batch_size: usize) -> Result<Self> {
        let cfg = self.cfg.clone().batch_size(batch_size);
        cfg.validate()?;
        Ok(Self {
            graph: Arc::clone(&self.graph),
            cfg,
            hot: self.hot.clone(),
            _index_charge: Arc::clone(&self._index_charge),
            telemetry: self.telemetry.clone(),
        })
    }

    /// The live-telemetry handle, when `cfg.telemetry` is set.
    pub fn telemetry(&self) -> Option<&TelemetryHandle> {
        self.telemetry.as_ref()
    }

    /// The stored graph.
    pub fn graph(&self) -> &OnDiskGraph {
        &self.graph
    }

    /// The active configuration.
    pub fn config(&self) -> &SamplerConfig {
        &self.cfg
    }

    /// Creates a standalone worker (e.g. for a training data loader that
    /// pulls batches at its own pace).
    ///
    /// # Errors
    /// Propagates worker construction failures.
    pub fn worker(&self) -> Result<SamplerWorker> {
        let mut worker =
            SamplerWorker::new(Arc::clone(&self.graph), self.cfg.clone(), self.hot.clone())?;
        if let Some(h) = &self.telemetry {
            // A standalone worker (DataLoader path) appends its own slot;
            // batch totals are unknown, so the snapshot carries 0.
            let epoch = h.registry().next_epoch();
            worker.attach_telemetry(h.registry(), None, epoch, 0);
        }
        Ok(worker)
    }

    /// Samples one epoch over `targets`, discarding the samples (the
    /// benchmark path: measures pure sampling time like the paper's
    /// "execution time of the sampling phase per epoch").
    ///
    /// # Errors
    /// Propagates the first worker error (I/O or OOM).
    pub fn sample_epoch(&self, targets: &[NodeId]) -> Result<EpochReport> {
        self.sample_epoch_with(targets, |_, _| {})
    }

    /// Samples one epoch, invoking `on_batch(batch_index, sample)` for
    /// every completed mini-batch (possibly from multiple threads
    /// concurrently).
    ///
    /// The target array is split into contiguous mini-batches of
    /// `config.batch_size`; batch *i* is processed by thread
    /// `i % num_threads`. Batch RNG streams depend only on
    /// `(seed, batch index)`, so results are reproducible for any thread
    /// count and ring size. Every layer draws its targets in node order,
    /// duplicate seeds adjacently, so a batch's samples do not depend on
    /// the order of its seeds: its first layer keeps the seeds as given,
    /// and only its `dst`/`src_pos` layout follows node order.
    ///
    /// # Errors
    /// Propagates the first worker error (I/O or OOM).
    pub fn sample_epoch_with<F>(&self, targets: &[NodeId], on_batch: F) -> Result<EpochReport>
    where
        F: Fn(usize, BatchSample) + Sync,
    {
        let batches: Vec<&[NodeId]> = targets.chunks(self.cfg.batch_size).collect();
        let num_threads = self.cfg.num_threads.min(batches.len().max(1));
        let start = Instant::now();
        // Process-wide I/O counters bracket the epoch: `/proc/self/io`
        // cannot be read per-thread, so physical bytes are measured once
        // here and attributed to workers proportionally by logical bytes.
        #[expect(clippy::disallowed_methods, reason = "epoch driver boundary: one procfs read before the workers spawn")]
        let (rb0, rc0) = proc_io_now();

        // Fresh telemetry slots for this epoch (cold path; untouched when
        // telemetry is off, costing the workers nothing).
        let epoch = self.telemetry.as_ref().map_or(0, |h| {
            h.registry().reset_epoch(num_threads);
            h.registry().next_epoch()
        });

        let results: Vec<Result<WorkerStats>> = std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(num_threads);
            for t in 0..num_threads {
                let batches = &batches;
                let on_batch = &on_batch;
                handles.push(scope.spawn(move || -> Result<WorkerStats> {
                    let mut worker = SamplerWorker::new(
                        Arc::clone(&self.graph),
                        self.cfg.clone(),
                        self.hot.clone(),
                    )?;
                    // All workers share the epoch-start origin, so their
                    // flight-recorder timestamps are comparable across
                    // threads in the Chrome trace and the ringtrace tables.
                    worker.set_trace_origin(start);
                    if let Some(h) = &self.telemetry {
                        // Round-robin partition: worker t owns batches
                        // t, t + n, t + 2n, … — its assigned total. One
                        // cold-path call installs its snapshot cell and its
                        // live `/trace` ring together, at index t.
                        let assigned =
                            batches.len().saturating_sub(t).div_ceil(num_threads) as u64;
                        worker.attach_telemetry(h.registry(), Some(t), epoch, assigned);
                    }
                    let mut idx = t;
                    while idx < batches.len() {
                        #[expect(clippy::indexing_slicing, reason = "idx < batches.len() is the loop condition")]
                        let sample = worker.sample_batch(batches[idx], idx as u64)?;
                        on_batch(idx, sample);
                        idx += num_threads;
                    }
                    Ok(worker.take_stats())
                }));
            }
            handles
                .into_iter()
                .map(|h| match h.join() {
                    Ok(r) => r,
                    Err(p) => Err(SamplerError::WorkerPanic(panic_message(&p))),
                })
                .collect()
        });
        let mut report = EpochReport::default();
        for r in results {
            report.absorb(r?);
        }
        report.wall = start.elapsed();
        report.threads = num_threads;
        if let Some(res) = report.resources.as_mut() {
            #[expect(clippy::disallowed_methods, reason = "epoch driver boundary: one procfs read after the workers join")]
            let (rb1, rc1) = proc_io_now();
            res.physical_read_bytes = rb1.saturating_sub(rb0);
            res.physical_rchar = rc1.saturating_sub(rc0);
            res.logical_bytes = report.metrics.sampled_edges * ENTRY_BYTES;
        }
        Ok(report)
    }
}

fn panic_message(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "unknown panic".to_string()
    }
}

/// Builds a deterministic pseudo-random permutation of `0..n` used as an
/// epoch's target ordering (the paper shuffles target nodes into
/// mini-batches each epoch).
pub fn epoch_targets(num_nodes: u64, epoch: u64, seed: u64) -> Vec<NodeId> {
    use rand::seq::SliceRandom;
    use rand::SeedableRng;
    let mut order: Vec<NodeId> = (0..num_nodes as NodeId).collect();
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ epoch.wrapping_mul(0xA24B_AED4_963E_E407));
    order.shuffle(&mut rng);
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use crate::memory::MemoryBudget;
    use ringsampler_graph::edgefile::write_csr;
    use ringsampler_graph::gen::GeneratorSpec;
    use ringsampler_graph::CsrGraph;
    use ringsampler_io::EngineKind;

    fn test_graph(tag: &str, nodes: u64, edges: u64) -> OnDiskGraph {
        let base =
            std::env::temp_dir().join(format!("rs-core-engine-{}-{tag}", std::process::id()));
        let spec = GeneratorSpec::PowerLaw {
            nodes,
            edges,
            exponent: 0.7,
        };
        let csr = CsrGraph::from_edges(
            nodes as usize,
            spec.stream(42).collect::<Vec<_>>(),
        )
        .unwrap();
        write_csr(&csr, &base).unwrap()
    }

    #[test]
    fn epoch_covers_all_batches() {
        let g = test_graph("cover", 500, 5_000);
        let sampler = RingSampler::new(
            g,
            SamplerConfig::new()
                .fanouts(&[3, 2])
                .batch_size(64)
                .threads(4)
                .ring_entries(32),
        )
        .unwrap();
        let targets = epoch_targets(500, 0, 1);
        let counter = AtomicU64::new(0);
        let report = sampler
            .sample_epoch_with(&targets, |_, s| {
                assert!(!s.seeds().is_empty());
                counter.fetch_add(1, Ordering::Relaxed);
            })
            .unwrap();
        let batches = counter.into_inner();
        assert_eq!(batches, 500u64.div_ceil(64));
        assert_eq!(report.metrics.batches, batches);
        assert!(report.metrics.sampled_edges > 0);
        assert!(report.seconds() > 0.0);
        assert_eq!(report.threads, 4);
    }

    #[test]
    fn thread_count_does_not_change_samples() {
        let g = test_graph("threads", 300, 3_000);
        let collect = |threads: usize| -> Vec<(usize, usize)> {
            let sampler = RingSampler::new(
                g.clone(),
                SamplerConfig::new()
                    .fanouts(&[3, 2])
                    .batch_size(50)
                    .threads(threads)
                    .ring_entries(16)
                    .seed(77),
            )
            .unwrap();
            let targets: Vec<NodeId> = (0..300).collect();
            let acc = std::sync::Mutex::new(Vec::new());
            sampler
                .sample_epoch_with(&targets, |i, s| {
                    acc.lock().unwrap().push((i, s.num_sampled_edges()));
                })
                .unwrap();
            let mut v = acc.into_inner().unwrap();
            v.sort_unstable();
            v
        };
        assert_eq!(collect(1), collect(4));
    }

    #[test]
    fn more_threads_not_slower_smoke() {
        // Not a perf assertion (CI noise), just exercises >1 thread paths.
        let g = test_graph("smoke", 1_000, 20_000);
        for threads in [1, 2, 8] {
            let sampler = RingSampler::new(
                g.clone(),
                SamplerConfig::new()
                    .fanouts(&[5, 5])
                    .batch_size(128)
                    .threads(threads),
            )
            .unwrap();
            let targets: Vec<NodeId> = (0..1_000).collect();
            let r = sampler.sample_epoch(&targets).unwrap();
            assert_eq!(r.metrics.batches, 8);
        }
    }

    #[test]
    fn epoch_report_carries_merged_distributions() {
        let g = test_graph("obsv", 400, 6_000);
        let sampler = RingSampler::new(
            g,
            SamplerConfig::new()
                .fanouts(&[3, 2])
                .batch_size(64)
                .threads(2)
                .ring_entries(16),
        )
        .unwrap();
        let targets: Vec<NodeId> = (0..400).collect();
        let r = sampler.sample_epoch(&targets).unwrap();
        assert_eq!(r.account.batch_latency.count(), r.metrics.batches);
        assert_eq!(r.account.group_latency.count(), r.metrics.io_groups);
        assert!(r.account.total() > 0);
        // The JSON export and the event dump are self-consistent.
        assert_eq!(r.thread_events.len(), 2, "one event list per worker");
        assert!(
            r.thread_events.iter().all(|e| !e.is_empty()),
            "every worker records trace events by default"
        );
        assert_eq!(r.trace_dropped, 0, "small epoch must not overflow rings");
        use ringstat::{EventKind, Json};
        let json = Json::parse(&r.to_json()).unwrap();
        let at = |path: &[&str]| path.iter().try_fold(&json, |j, k| j.get(k)).and_then(Json::as_u64);
        assert_eq!(at(&["schema_version"]), Some(12));
        assert_eq!(at(&["counters", "batches"]), Some(r.metrics.batches));
        assert_eq!(at(&["histograms", "io_group_latency", "count"]), Some(r.metrics.io_groups));
        let events = r.thread_events.iter().flatten();
        let batch_ends = events.filter(|e| e.kind == EventKind::BatchEnd).count();
        assert_eq!(batch_ends as u64, r.metrics.batches);
    }

    #[test]
    fn epoch_report_carries_resource_attribution() {
        let g = test_graph("prof", 400, 6_000);
        let sampler = RingSampler::new(
            g,
            SamplerConfig::new()
                .fanouts(&[3, 2])
                .batch_size(64)
                .threads(2)
                .ring_entries(16),
        )
        .unwrap();
        let targets: Vec<NodeId> = (0..400).collect();
        let r = sampler.sample_epoch(&targets).unwrap();
        let res = r.resources.as_ref().expect("profiling is always on");
        assert_eq!(res.workers.len(), 2, "one resource row per worker");
        // Each worker's stages fit inside its wall, and together they are
        // the report's in-batch wall.
        for w in &res.workers {
            assert!(w.wall_nanos > 0);
            assert!(w.account.total() <= w.wall_nanos, "{w:?}");
        }
        let stage_sum: u64 = res.workers.iter().map(|w| w.account.total()).sum();
        assert_eq!(stage_sum, r.account.batch_latency.sum());
        assert_eq!(
            res.logical_bytes,
            r.metrics.sampled_edges * ENTRY_BYTES,
            "logical bytes mirror the sampled edge volume"
        );
        let json = r.to_json();
        assert!(json.contains("\"resources\""));
        assert!(json.contains("\"read_amplification\""));
        assert!(json.contains("\"physical_attribution\": \"proportional\""));
        assert!(json.contains(&format!("\"user_nanos\": {}", res.fleet.user_nanos)));
    }

    #[test]
    fn standalone_worker_traces_under_its_own_slot() {
        // An idle standalone worker, then a sampling one, each appending
        // its slot the way `worker()` does, to a registry no other test
        // reaches: the second worker's `/trace` tail must be listed under
        // its `/progress` slot.
        use crate::telemetry::{Monitor, SnapshotRegistry};
        use ringstat::Json;
        const SEEDS: u64 = 37;
        let g = test_graph("slots", 300, 3_000);
        let cfg = SamplerConfig::new().fanouts(&[3]).batch_size(64).ring_entries(16);
        let sampler = RingSampler::new(g, cfg).unwrap();
        let registry = SnapshotRegistry::new();
        let mut off = sampler.worker().unwrap();
        off.attach_telemetry(&registry, None, 1, 0);
        let mut on = sampler.worker().unwrap();
        on.attach_telemetry(&registry, None, 1, 0);
        on.sample_batch(&(0..SEEDS as NodeId).collect::<Vec<_>>(), 0).unwrap();
        let mut monitor = Monitor::new(Instant::now());
        monitor.tick(registry.observe(), Instant::now());
        // The indices of `path`'s workers that `is_on` picks out.
        let listed = |path: &str, is_on: &dyn Fn(&Json) -> bool| -> Vec<u64> {
            let doc = Json::parse(monitor.route(path, &registry).body()).unwrap();
            let workers = doc.get("workers").and_then(Json::as_array).unwrap().to_vec();
            workers.iter().filter(|w| is_on(w)).filter_map(|w| w.get("worker")?.as_u64()).collect()
        };
        let progress = listed("/progress", &|w| w.get("targets").and_then(Json::as_u64) == Some(SEEDS));
        let trace = listed("/trace", &|w| {
            let events = w.get("events").and_then(Json::as_array).unwrap_or(&[]);
            events.iter().any(|e| {
                e.get("kind").and_then(Json::as_str) == Some("batch_start")
                    && e.get("b").and_then(Json::as_u64) == Some(SEEDS)
            })
        });
        assert_eq!(progress, [1]);
        assert_eq!(trace, progress);
    }

    #[test]
    fn oom_propagates_from_workers() {
        let g = test_graph("oom", 200, 2_000);
        let meta = g.metadata_bytes();
        // Budget fits the index but not the first worker workspace.
        let sampler = RingSampler::new(
            g,
            SamplerConfig::new()
                .fanouts(&[3])
                .threads(2)
                .budget(MemoryBudget::limited(meta + 1024)),
        )
        .unwrap();
        let targets: Vec<NodeId> = (0..200).collect();
        match sampler.sample_epoch(&targets) {
            Err(SamplerError::OutOfMemory { .. }) => {}
            other => panic!("expected OOM, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn index_charge_counts_against_budget() {
        let g = test_graph("idx", 400, 1_000);
        let meta = g.metadata_bytes();
        let budget = MemoryBudget::limited(meta - 1);
        match RingSampler::new(g, SamplerConfig::new().budget(budget)) {
            Err(SamplerError::OutOfMemory { .. }) => {}
            other => panic!("expected OOM, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn invalid_config_rejected_at_construction() {
        let g = test_graph("badcfg", 100, 500);
        assert!(matches!(
            RingSampler::new(g, SamplerConfig::new().fanouts(&[])),
            Err(SamplerError::InvalidConfig(_))
        ));
    }

    #[test]
    fn epoch_targets_is_a_permutation() {
        let t = epoch_targets(1000, 3, 9);
        assert_eq!(t.len(), 1000);
        let mut sorted = t.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..1000).collect::<Vec<_>>());
        assert_ne!(t, epoch_targets(1000, 4, 9));
        assert_eq!(t, epoch_targets(1000, 3, 9));
    }

    fn hot_pages(s: &RingSampler) -> Vec<u64> {
        s.hot.as_ref().expect("a hot set").pages().collect()
    }

    fn cached(budget_bytes: u64) -> SamplerConfig {
        SamplerConfig::new()
            .fanouts(&[5, 3])
            .batch_size(64)
            .threads(2)
            .seed(12)
            .cache(crate::CachePolicy::Page { budget_bytes })
    }

    #[test]
    fn hot_set_is_charged_once_for_the_whole_sampler() {
        let g = test_graph("hotcharge", 2_000, 40_000);
        let index = g.metadata_bytes();
        let cache = 8 * crate::cache::PAGE_SIZE as u64;
        let targets: Vec<NodeId> = (0..2_000).collect();
        for threads in [1, 2, 8] {
            let budget = MemoryBudget::unlimited();
            let s = RingSampler::new(g.clone(), cached(cache).threads(threads).budget(budget.clone()))
                .unwrap();
            assert_eq!(budget.used(), index + cache, "{threads} threads");
            for _ in 0..3 {
                s.sample_epoch(&targets).unwrap();
            }
            let (mut a, mut b) = (s.worker().unwrap(), s.worker().unwrap());
            a.sample_batch(&targets[..64], 0).unwrap();
            b.sample_batch(&targets[..64], 1).unwrap();
            drop((a, b));
            // The on-demand service shares the set instead of building one.
            crate::run_on_demand(&s, &targets[..32]).unwrap();
            assert_eq!(budget.used(), index + cache, "{threads} threads");
        }
    }

    #[test]
    fn hot_set_depends_on_graph_and_config_not_on_sampled_targets() {
        let g = test_graph("hotsame", 2_000, 40_000);
        let cache = 8 * crate::cache::PAGE_SIZE as u64;
        let a = RingSampler::new(g.clone(), cached(cache)).unwrap();
        let b = RingSampler::new(g.clone(), cached(cache)).unwrap();
        let built = hot_pages(&a);
        assert_eq!(built.len(), 8);
        assert_eq!(hot_pages(&b), built);
        a.sample_epoch(&epoch_targets(2_000, 0, 12)).unwrap();
        b.sample_epoch(&epoch_targets(2_000, 7, 99)[..128]).unwrap();
        assert_eq!(hot_pages(&a), built);
        assert_eq!(hot_pages(&b), built);
        // The thread count does not enter the profile.
        assert_eq!(hot_pages(&RingSampler::new(g, cached(cache).threads(1)).unwrap()), built);
    }

    #[test]
    fn hot_set_holding_the_file_issues_no_io() {
        let g = test_graph("hotwhole", 1_000, 20_000);
        let file = std::fs::metadata(g.edge_path()).unwrap().len();
        let targets = epoch_targets(1_000, 0, 3);
        let epoch = |cfg: SamplerConfig| {
            let s = RingSampler::new(g.clone(), cfg).unwrap();
            let acc = std::sync::Mutex::new(std::collections::BTreeMap::new());
            let r = s
                .sample_epoch_with(&targets, |i, b| {
                    acc.lock().unwrap().insert(i, b);
                })
                .unwrap();
            (r.metrics, acc.into_inner().unwrap())
        };
        for engine in [EngineKind::Uring, EngineKind::Pread] {
            let (_, want) = epoch(cached(file).cache(crate::CachePolicy::None).engine(engine));
            for budget in [file, file + 3 * 4096] {
                let (m, got) = epoch(cached(budget).engine(engine));
                assert_eq!(got, want, "{engine:?} budget {budget}");
                assert_eq!((m.io_requests, m.io_groups, m.cache_misses), (0, 0, 0), "{engine:?}");
                assert_eq!(m.cache_hits, m.sampled_edges, "{engine:?}");
            }
        }
    }

    #[test]
    fn seed_order_threads_and_ring_size_change_no_batch() {
        // Every layer is drawn in node order, so permuting each batch's
        // seeds leaves its first layer the same multiset of (seed,
        // neighbour) pairs and every later layer byte-identical; and
        // neither the thread count nor the ring size changes a batch.
        let g = test_graph("seedorder", 300, 6_000);
        let run = |targets: &[NodeId], threads: usize, ring_entries: u32| {
            let cfg = SamplerConfig::new()
                .fanouts(&[4, 3, 2])
                .batch_size(64)
                .threads(threads)
                .ring_entries(ring_entries)
                .seed(5);
            let sampler = RingSampler::new(g.clone(), cfg).unwrap();
            let acc = std::sync::Mutex::new(std::collections::BTreeMap::new());
            sampler
                .sample_epoch_with(targets, |i, s| {
                    acc.lock().unwrap().insert(i, s);
                })
                .unwrap();
            acc.into_inner().unwrap()
        };
        let targets = epoch_targets(300, 0, 3);
        let want = run(&targets, 2, 8);
        assert_eq!(run(&targets, 1, 512), want);
        assert_eq!(run(&targets, 3, 4), want);
        let reversed: Vec<NodeId> = targets.chunks(64).flat_map(|c| c.iter().rev().copied()).collect();
        let got = run(&reversed, 2, 8);
        assert_eq!(got.len(), want.len());
        let pairs = |s: &BatchSample| {
            let mut v: Vec<(NodeId, NodeId)> = s.layers[0].iter_edges().collect();
            v.sort_unstable();
            v
        };
        for (i, (a, b)) in want.values().zip(got.values()).enumerate() {
            assert_eq!(pairs(a), pairs(b), "batch {i}: first layer");
            assert_eq!(a.layers[1..], b.layers[1..], "batch {i}: later layers");
        }
    }
}
