//! The traced run: per-layer metrics, never end-to-end ones.
//!
//! Spans go around the benchmark's own calls into each layer's public
//! functions. After two windows with spans on, one worker samples a few
//! batches on a single thread and each batch is replayed layer by layer from
//! outside: `OnDiskGraph::neighbor_range` → `OffsetSampler::sample_range` →
//! `ReadPlanner::plan` → `open_reader` + `submit_group`/`complete_group` →
//! `PageCache::get`/`insert`.

use std::path::Path;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ringsampler::cache::{page_of, PageCache, PAGE_SIZE};
use ringsampler::sampling::OffsetSampler;
use ringsampler::{
    BatchSample, MemoryBudget, PlanStats, ReadPlanMode, ReadPlanner, RingSampler, SampleMetrics,
};
use ringsampler_baselines::in_memory::InMemorySampler;
use ringsampler_gnn::dataloader::DataLoader;
use ringsampler_graph::{NodeId, OnDiskGraph, ENTRY_BYTES};
use ringsampler_io::{open_reader, EngineKind, GroupReader, ReadSlice};
use ringstat::Json;

use crate::bench::{check_window, digest_window, failed_in, sizes_json, Options};
use crate::host;
use crate::report::{in_table_order, median, percentile, Outcome};
use crate::run::{setup, Result, Runner, Window};
use crate::spec::{Kind, Spec, CACHE_BYTES, FANOUTS, PER_LAYER};
use crate::trace::{self, Tracer};

const ENTRY: usize = ENTRY_BYTES as usize;

/// What the replay found besides its spans.
#[derive(Default)]
struct Walk {
    plan: PlanStats,
    cache_hits: u64,
    cache_lookups: u64,
    /// Batches whose replay drew another number of edges than the worker.
    bad: u64,
}

/// Reads `reqs` through `reader` in groups of its queue depth, one span per
/// submit and per complete, and returns the concatenated payload.
fn read_all(
    tracer: &Tracer,
    parent: u32,
    batch: u32,
    reader: &mut dyn GroupReader,
    reqs: &[ReadSlice],
) -> Result<Vec<u8>> {
    let mut payload = Vec::new();
    let mut buf = Vec::new();
    for chunk in reqs.chunks(reader.queue_depth()) {
        let token = tracer.leaf(
            parent,
            "io.submit_group",
            batch,
            || reader.submit_group(chunk, std::mem::take(&mut buf)),
            |_| chunk.len() as u64,
        )?;
        buf = tracer.leaf(
            parent,
            "io.complete_group",
            batch,
            || reader.complete_group(token),
            |_| chunk.len() as u64,
        )?;
        payload.extend_from_slice(&buf);
    }
    Ok(payload)
}

/// The layer objects a replay calls into, kept across batches as a worker
/// keeps its own.
struct Layers<'a> {
    tracer: &'a Tracer,
    graph: &'a OnDiskGraph,
    file_len: u64,
    reader: Box<dyn GroupReader>,
    offsets: OffsetSampler,
    planner: ReadPlanner,
    cache: PageCache,
    rng: StdRng,
    found: Walk,
}

impl Layers<'_> {
    /// `neighbor_range` and `sample_range` for one layer's targets: the
    /// entry indices to fetch. The replay draws its own offsets: it repeats
    /// the worker's amount of work, not its random stream.
    fn draw(&mut self, parent: u32, batch: u32, targets: &[NodeId], fanout: usize) -> Vec<u64> {
        let graph = self.graph;
        let ranges = self.tracer.leaf(
            parent,
            "graph.neighbor_range",
            batch,
            || {
                targets
                    .iter()
                    .map(|&t| graph.neighbor_range(t))
                    .collect::<Vec<_>>()
            },
            |r| r.len() as u64,
        );
        let (offsets, rng) = (&mut self.offsets, &mut self.rng);
        self.tracer.leaf(
            parent,
            "sampling.sample_range",
            batch,
            || {
                let mut drawn = Vec::new();
                for r in &ranges {
                    offsets.sample_range(r.start, r.end, fanout, rng, &mut drawn);
                }
                drawn
            },
            |d| d.len() as u64,
        )
    }

    /// Fetches `entries` along the cached or the uncached path.
    fn fetch(
        &mut self,
        cached: bool,
        parent: u32,
        batch: u32,
        entries: &[u64],
        mode: ReadPlanMode,
    ) -> Result<()> {
        if cached {
            self.fetch_cached(parent, batch, entries)
        } else {
            self.fetch_raw(parent, batch, entries, mode)
        }
    }

    /// The uncached fetch: plan, read the planned slices, decode by the
    /// scatter map.
    fn fetch_raw(
        &mut self,
        parent: u32,
        batch: u32,
        entries: &[u64],
        mode: ReadPlanMode,
    ) -> Result<()> {
        let planner = &mut self.planner;
        let stats = self.tracer.leaf(
            parent,
            "plan.plan",
            batch,
            || {
                planner.plan(
                    entries,
                    OnDiskGraph::entry_byte_offset(0),
                    ENTRY_BYTES as u32,
                    mode,
                )
            },
            |s| s.naive_reads,
        );
        self.found.plan.merge(&stats);
        let payload = read_all(
            self.tracer,
            parent,
            batch,
            self.reader.as_mut(),
            self.planner.slices(),
        )?;
        let decoded: Vec<NodeId> = self
            .planner
            .scatter()
            .iter()
            .filter_map(|&at| payload.get(at as usize..at as usize + ENTRY))
            .map(|le| NodeId::from_le_bytes(le.try_into().expect("ENTRY bytes")))
            .collect();
        if decoded.len() != entries.len() {
            return Err("replay: a planned read came back short".into());
        }
        std::hint::black_box(decoded);
        Ok(())
    }

    /// The cached fetch: look every entry's page up, read the missing pages
    /// whole, insert them.
    fn fetch_cached(&mut self, parent: u32, batch: u32, entries: &[u64]) -> Result<()> {
        let cache = &mut self.cache;
        let mut missing: Vec<u64> = self.tracer.leaf(
            parent,
            "cache.get",
            batch,
            || {
                let pages = entries
                    .iter()
                    .map(|&e| page_of(OnDiskGraph::entry_byte_offset(e)).0);
                pages.filter(|&p| cache.get(p).is_none()).collect()
            },
            |_| entries.len() as u64,
        );
        self.found.cache_lookups += entries.len() as u64;
        self.found.cache_hits += (entries.len() - missing.len()) as u64;
        missing.sort_unstable();
        missing.dedup();
        let file_len = self.file_len;
        let reqs: Vec<ReadSlice> = missing
            .iter()
            .map(|&p| p * PAGE_SIZE as u64)
            .map(|start| ReadSlice::new(start, (file_len - start).min(PAGE_SIZE as u64) as u32))
            .collect();
        let pages = read_all(self.tracer, parent, batch, self.reader.as_mut(), &reqs)?;
        let cache = &mut self.cache;
        self.tracer.leaf(
            parent,
            "cache.insert",
            batch,
            || {
                missing
                    .iter()
                    .zip(pages.chunks(PAGE_SIZE))
                    .for_each(|(&p, data)| cache.insert(p, data))
            },
            |_| missing.len() as u64,
        );
        Ok(())
    }
}

/// One worker, `spec.walk_batches` batches, a single thread: a span around
/// `SamplerWorker::sample_batch`, then the same targets replayed one layer
/// call at a time under a `bench.replay` span, along the path the workload's
/// configuration takes (planned raw reads, or page-cache lookups and page
/// reads). The other path runs afterwards on the same entries, under
/// `bench.other_path`, because every workload reports every layer.
fn walk(
    tracer: &Tracer,
    sampler: &RingSampler,
    spec: &Spec,
    opts: &Options,
    targets: &[NodeId],
) -> Result<Walk> {
    let graph = sampler.graph();
    let cfg = sampler.config();
    let edge_file = std::fs::File::open(graph.edge_path())?;
    let mut worker = sampler.worker()?;
    let mut layers = Layers {
        tracer,
        graph,
        file_len: edge_file.metadata()?.len(),
        reader: tracer.leaf(
            0,
            "io.open_reader",
            0,
            || open_reader(graph.edge_path(), cfg.ring_entries, cfg.engine),
            |_| 1,
        )?,
        offsets: OffsetSampler::new(),
        planner: ReadPlanner::new(),
        cache: PageCache::new(CACHE_BYTES / opts.div(), &MemoryBudget::unlimited())?,
        rng: StdRng::seed_from_u64(opts.seed),
        found: Walk::default(),
    };

    for (b, seeds) in targets
        .chunks(spec.batch)
        .take(spec.walk_batches)
        .enumerate()
    {
        let b32 = b as u32;
        if spec.kind == Kind::Cold {
            host::drop_file_cache(&edge_file)?;
        }
        let sample: BatchSample = tracer.leaf(
            0,
            "worker.sample_batch",
            b32,
            || worker.sample_batch(seeds, b as u64),
            |s| s.as_ref().map_or(0, |s| s.num_sampled_edges() as u64),
        )?;
        if spec.kind == Kind::Cold {
            host::drop_file_cache(&edge_file)?;
        }

        let (replay, begin) = (tracer.id(), Instant::now());
        let mut drawn: Vec<Vec<u64>> = Vec::new();
        for layer in &sample.layers {
            let entries = layers.draw(replay, b32, &layer.targets, layer.fanout);
            layers.fetch(spec.cached, replay, b32, &entries, spec.read_plan)?;
            drawn.push(entries);
        }
        let edges: u64 = drawn.iter().map(|d| d.len() as u64).sum();
        let span = |id, name, begin| trace::Span {
            id,
            parent: 0,
            name,
            batch: b32,
            start_ns: tracer.ns(begin),
            end_ns: tracer.ns(Instant::now()),
            count: edges,
        };
        tracer.push(span(replay, "bench.replay", begin));
        // Without replacement every target yields min(fanout, degree)
        // entries whatever the draw, so the counts must agree.
        if edges != sample.num_sampled_edges() as u64 {
            layers.found.bad += 1;
        }

        let (other, begin) = (tracer.id(), Instant::now());
        for entries in &drawn {
            layers.fetch(!spec.cached, other, b32, entries, spec.read_plan)?;
        }
        tracer.push(span(other, "bench.other_path", begin));
    }
    Ok(layers.found)
}

/// Median over `groups` groups of (submit, complete) nanoseconds per read.
fn group_times(reader: &mut dyn GroupReader, groups: &[Vec<ReadSlice>]) -> Result<(f64, f64)> {
    let (mut submit, mut complete) = (Vec::new(), Vec::new());
    let mut buf = Vec::new();
    for reqs in groups {
        let t0 = Instant::now();
        let token = reader.submit_group(reqs, buf)?;
        let t1 = Instant::now();
        buf = reader.complete_group(token)?;
        let t2 = Instant::now();
        submit.push((t1 - t0).as_nanos() as f64 / reqs.len() as f64);
        complete.push((t2 - t1).as_nanos() as f64 / reqs.len() as f64);
    }
    Ok((median(&submit), median(&complete)))
}

/// Per-read times of fixed read shapes, from outside the sampler.
fn io_micro(path: &Path, seed: u64) -> Result<[(&'static str, f64); 7]> {
    const QD: u32 = 512;
    const GROUPS: usize = 32;
    let file_len = std::fs::metadata(path)?.len();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x10);
    // `count` groups of `per_group` reads of `len` bytes at random
    // `align`-aligned offsets that fit the file.
    let mut shape = |per_group: usize, len: u64, align: u64| -> Vec<Vec<ReadSlice>> {
        let slots = (file_len.saturating_sub(len) / align).max(1);
        (0..GROUPS)
            .map(|_| {
                (0..per_group)
                    .map(|_| {
                        ReadSlice::new(rng.gen_range(0..slots) * align, len.min(file_len) as u32)
                    })
                    .collect()
            })
            .collect()
    };
    let (read4, pages, big) = (
        shape(QD as usize, 4, 4),
        shape(QD as usize, PAGE_SIZE as u64, PAGE_SIZE as u64),
        shape(32, 64 << 10, PAGE_SIZE as u64),
    );

    let opens: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            open_reader(path, QD, None).map(|_| t.elapsed().as_nanos() as f64 / 1e3)
        })
        .collect::<std::result::Result<_, _>>()?;
    // Where io_uring is refused the "uring" rows time the fallback engine;
    // the fingerprint's `engine` says so.
    let mut uring = open_reader(path, QD, None)?;
    let mut pread = open_reader(path, QD, Some(EngineKind::Pread))?;
    group_times(uring.as_mut(), &read4[..4])?;
    let (submit4, complete4) = group_times(uring.as_mut(), &read4)?;
    let (submit_page, complete_page) = group_times(uring.as_mut(), &pages)?;
    let (submit_big, complete_big) = group_times(uring.as_mut(), &big)?;
    let (psubmit, pcomplete) = group_times(pread.as_mut(), &read4)?;
    Ok([
        ("io.uring_read4_ns", submit4 + complete4),
        ("io.uring_submit_ns", submit4),
        ("io.uring_complete_ns", complete4),
        ("io.uring_read_page_ns", submit_page + complete_page),
        ("io.uring_read64k_us", (submit_big + complete_big) / 1e3),
        ("io.pread_read4_ns", psubmit + pcomplete),
        ("io.reader_open_us", median(&opens)),
    ])
}

/// Median seconds of `reps` calls of `f`.
fn median_secs<T>(reps: usize, mut f: impl FnMut() -> Result<T>) -> Result<f64> {
    let mut secs = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t = Instant::now();
        std::hint::black_box(f()?);
        secs.push(t.elapsed().as_secs_f64());
    }
    Ok(median(&secs))
}

/// The best of a few windows: the traced run has two or three of each
/// kind, too few for a quartile.
fn edges_per_s(windows: &[Window]) -> f64 {
    windows.iter().map(|w| w.edges_per_s).fold(0.0, f64::max)
}

/// Costs paid once per worker, per epoch or per trainer batch, and the
/// in-memory ceiling, over the walk's targets.
fn fixed_costs(
    sampler: &RingSampler,
    spec: &Spec,
    seed: u64,
    targets: &[NodeId],
) -> Result<[(&'static str, f64); 4]> {
    let graph = sampler.graph();
    let walk_targets = &targets[..spec.batch * spec.walk_batches];
    let new_s = median_secs(9, || Ok(sampler.worker()?))?;
    let tiny = RingSampler::new(graph.clone(), sampler.config().clone().batch_size(1))?;
    let fixed_s = median_secs(21, || Ok(tiny.sample_epoch(&targets[..2])?))?;

    let t = Instant::now();
    let mut loaded = 0u64;
    for item in DataLoader::new(sampler, walk_targets.to_vec(), 2)? {
        item?;
        loaded += 1;
    }
    let loader_rate = loaded as f64 / t.elapsed().as_secs_f64();

    let in_memory = InMemorySampler::new(
        graph,
        &FANOUTS,
        spec.batch,
        1,
        &MemoryBudget::unlimited(),
        seed,
    )?
    .without_framework_overhead();
    let t = Instant::now();
    let edges: usize = walk_targets
        .chunks(spec.batch)
        .enumerate()
        .map(|(i, seeds)| in_memory.sample_batch(seeds, i as u64).num_sampled_edges())
        .sum();
    let in_memory_rate = edges as f64 / t.elapsed().as_secs_f64();
    Ok([
        ("worker.new_us", new_s * 1e6),
        ("engine.epoch_fixed_us", fixed_s * 1e6),
        ("gnn.loader_batches_per_s", loader_rate),
        ("baselines.in_memory_edges_per_s", in_memory_rate),
    ])
}

pub fn traced(opts: &Options) -> Result<Outcome> {
    let spec = opts.spec();
    let data = opts.data_dir()?;
    let ref_before = host::ref_ns();
    let (mut runner, times) = setup(spec, opts.seed, opts.div(), &data.0)?;
    let checked = check_window(&mut runner, &spec)?;
    let graph = runner.sampler.graph().clone();
    let targets = runner.targets();
    let cfg = spec.config(opts.seed, opts.div());
    let variant = |cfg| Runner::new(spec, graph.clone(), targets.clone(), cfg);

    // As configured (A) against every recorder off (B), interleaved; A is
    // also the untraced reference for the windows with spans on.
    let mut quiet = variant(
        cfg.clone()
            .trace_capacity(0)
            .span_capacity(0)
            .profile_resources(false),
    )?;
    let (mut plain, mut silent) = (Vec::new(), Vec::new());
    for i in 0..5 {
        if i % 2 == 0 {
            plain.push(runner.window(None, None)?);
        } else {
            silent.push(quiet.window(None, None)?);
        }
    }
    drop(quiet);

    // Two windows with spans on; every epoch's digest must match the
    // checked one.
    let tracer = Tracer::new();
    let mut failed = checked.failed + failed_in(&plain, &checked, &spec);
    let mut attempted = checked.attempted + plain.iter().map(|w| w.reqs).sum::<u64>();
    let mut spanned = Vec::new();
    for _ in 0..2 {
        let (w, digests, _) = digest_window(&mut runner, &spec, None, Some(&tracer))?;
        attempted += w.reqs;
        if spec.kind == Kind::Epoch && digests.iter().any(|&d| d != checked.digest) {
            failed += w.reqs;
        }
        spanned.push(w);
    }

    // One thread against two (paper Fig. 8).
    let mut single = variant(cfg.clone().threads(1))?;
    let solo = [single.window(None, None)?, single.window(None, None)?];
    drop(single);

    let walked = walk(&tracer, &runner.sampler, &spec, opts, &targets)?;
    attempted += spec.walk_batches as u64;
    failed += walked.bad;
    let io = io_micro(graph.edge_path(), opts.seed)?;

    let fixed = fixed_costs(&runner.sampler, &spec, opts.seed, &targets)?;
    let ref_after = host::ref_ns();

    let spans = tracer.spans();
    let by_name = trace::totals(&spans);
    let total = |name: &str| by_name.get(name).copied().unwrap_or_default();
    let per = |name: &str| total(name).total_ns as f64 / total(name).count.max(1) as f64;
    // The walk's worker spans are roots; the spanned windows' are not.
    let walk_worker: Vec<&trace::Span> = spans
        .iter()
        .filter(|s| s.name == "worker.sample_batch" && s.parent == 0)
        .collect();
    let walk_worker_ns: u64 = walk_worker.iter().map(|s| s.dur_ns()).sum();
    let walk_worker_edges: u64 = walk_worker.iter().map(|s| s.count).sum();
    let replay = total("bench.replay");

    let mut counters = SampleMetrics::default();
    plain.iter().for_each(|w| counters.merge(&w.metrics));
    let edges = plain.iter().map(|w| w.edges).sum::<u64>() as f64;
    let reqs = plain.iter().map(|w| w.reqs).sum::<u64>() as f64;
    let lookups = counters.cache_hits + counters.cache_misses;
    let hit_ratio = if lookups > 0 {
        counters.cache_hits as f64 / lookups as f64
    } else {
        walked.cache_hits as f64 / walked.cache_lookups.max(1) as f64
    };
    let phys: Vec<f64> = plain
        .iter()
        .map(|w| w.phys_bytes as f64 / w.edges as f64)
        .collect();
    let pooled: Vec<f64> = plain
        .iter()
        .flat_map(|w| w.lat_us.iter().flatten().copied())
        .collect();
    let (a, b) = (edges_per_s(&plain), edges_per_s(&silent));

    let per_entry = walked.plan.naive_reads.max(1) as f64;
    let cache_ns = total("cache.get").total_ns + total("cache.insert").total_ns;
    let mut values = vec![
        ("graph.build_s", times.build_s),
        ("graph.open_ms", times.open_ms),
        ("graph.index_mb", graph.metadata_bytes() as f64 / 1e6),
        ("graph.neighbor_range_ns", per("graph.neighbor_range")),
        ("sampling.draw_ns", per("sampling.sample_range")),
        ("plan.ns_per_entry", per("plan.plan")),
        (
            "plan.reads_per_edge",
            walked.plan.planned_reads as f64 / per_entry,
        ),
        (
            "plan.bytes_per_edge",
            walked.plan.planned_bytes as f64 / per_entry,
        ),
        (
            "cache.ns_per_lookup",
            cache_ns as f64 / walked.cache_lookups.max(1) as f64,
        ),
        ("cache.hit_ratio", hit_ratio),
        ("io.requests_per_edge", counters.io_requests as f64 / edges),
        ("io.bytes_per_edge", counters.io_bytes as f64 / edges),
        (
            "io.syscalls_per_kedge",
            counters.syscalls as f64 * 1e3 / edges,
        ),
        ("io.phys_bytes_per_edge", median(&phys)),
        (
            "worker.batch_ns_per_edge",
            walk_worker_ns as f64 / walk_worker_edges.max(1) as f64,
        ),
        (
            "worker.replay_coverage",
            (replay.total_ns - replay.self_ns) as f64 / walk_worker_ns.max(1) as f64,
        ),
        ("engine.scaling_2t", a / edges_per_s(&solo)),
        ("ondemand.req_p99_us", percentile(&pooled, 0.99)),
        ("ondemand.edges_per_req", edges / reqs),
        ("ringstat.overhead_frac", b / a - 1.0),
        ("host.ref_ns", ref_before),
        (
            "host.drift_frac",
            (ref_after - ref_before).abs() / ref_before,
        ),
        ("bench.trace_overhead_frac", a / edges_per_s(&spanned) - 1.0),
    ];
    values.extend(io);
    values.extend(fixed);

    let out = opts.root.join("out");
    std::fs::create_dir_all(&out)?;
    std::fs::write(
        out.join(format!("trace-{}.json", spec.name)),
        trace::to_json(spec.name, opts.seed, &spans).to_string_compact(),
    )?;

    let detail = Json::object()
        .with("workload", Json::str(spec.name))
        .with("seed", Json::U64(opts.seed))
        .with("host", host::fingerprint(&data.0))
        .with("sizes", sizes_json(&spec, opts.div(), &plain))
        .with("digest", Json::str(&format!("{:#018x}", checked.digest)))
        .with(
            "io_requests_per_window",
            Json::U64(plain[0].metrics.io_requests),
        )
        .with("io_bytes_per_window", Json::U64(plain[0].metrics.io_bytes))
        .with("edges_per_window", Json::U64(plain[0].edges))
        .with("plan_reads_walk", Json::U64(walked.plan.planned_reads))
        .with("plan_bytes_walk", Json::U64(walked.plan.planned_bytes))
        .with("spans", Json::U64(spans.len() as u64));

    Ok(Outcome {
        attempted,
        failed,
        metrics: in_table_order(&PER_LAYER, &values),
        detail,
    })
}
