#![cfg_attr(not(test), deny(clippy::disallowed_types, clippy::disallowed_methods, clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable, clippy::todo, clippy::unimplemented, clippy::indexing_slicing, clippy::allow_attributes, clippy::allow_attributes_without_reason))]
//! Per-thread sampling worker: offset-based layer sampling driving the
//! asynchronous I/O-group pipeline (paper §3.1, Figs. 2 and 3).
//!
//! Each worker owns everything it writes — a dedicated I/O reader (with
//! its own io_uring SQ/CQ pair), an RNG, an [`OffsetSampler`] and reusable
//! scratch vectors — and shares only what nobody writes (the graph index
//! and the optional hot set), so threads never synchronize during an epoch
//! ("Eliminating thread synchronization").

use std::collections::VecDeque;
use std::fs::File;
use std::sync::Arc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use ringsampler_graph::{NodeId, OnDiskGraph, ENTRY_BYTES};
use ringsampler_io::engine::{GroupReader, GroupToken, PreadReader, ReadSlice, UringReader};
use ringsampler_io::{EngineKind, IoEngineError};
use ringstat::{
    thread_cpu_nanos, EventKind, EventRing, ResourceSample, SnapshotCell, StageAccount, TimeLedger,
    TraceEvent, WorkerSnapshot,
};

use crate::block::{BatchSample, LayerSample};
use crate::cache::{page_of, PAGE_SIZE};
use crate::config::{PipelineMode, SamplerConfig};
use crate::error::{Result, SamplerError};
use crate::hotset::HotSet;
use crate::memory::MemoryCharge;
use crate::metrics::{SampleMetrics, WorkerResources, WorkerStats};
use crate::plan::{sort_by_runs, ReadPlanMode, ReadPlanner, MAX_COALESCED_BYTES};
use crate::sampling::OffsetSampler;
use crate::telemetry::SnapshotRegistry;

/// Byte ceiling of one I/O group's buffer. A group closes at `queue_depth`
/// requests or before its payload would pass this, so a worker's buffer
/// pool is at most pipeline-depth × this many bytes however wide a layer
/// or dense a plan is. 512 KiB holds eight full planned slices or 128
/// pages, and keeps the two in-flight buffers plus what they are decoded
/// into well inside a 4 MiB L2: at 2 MiB the cached fetch measured ~20 %
/// slower, at 256 KiB–1 MiB the same (EXPERIMENTS.md, "Streaming fetch").
pub const GROUP_BYTES_MAX: usize = 512 << 10;
const _: () = assert!(GROUP_BYTES_MAX as u64 >= MAX_COALESCED_BYTES);

/// Nanoseconds between two instants, saturating at zero and `u64::MAX`.
#[inline]
fn nanos_between(start: Instant, end: Instant) -> u64 {
    u64::try_from(end.saturating_duration_since(start).as_nanos()).unwrap_or(u64::MAX)
}

/// A single-threaded sampling worker bound to one graph.
///
/// Obtain via [`crate::engine::RingSampler::worker`]. Workers are `Send`
/// (movable into a thread) but deliberately not `Sync`.
pub struct SamplerWorker {
    graph: Arc<OnDiskGraph>,
    cfg: SamplerConfig,
    reader: Box<dyn GroupReader>,
    file_len: u64,
    sampler: OffsetSampler,
    /// The sampler's shared, read-only hot set (`CachePolicy::Page`).
    hot: Option<Arc<HotSet>>,
    metrics: SampleMetrics,
    // Reusable scratch (the paper's thread-local workspaces: offsets,
    // neighbors, targets).
    offsets: Vec<u64>,
    src_pos: Vec<u32>,
    /// Per target of the layer, the end of its run of `offsets`: what the
    /// planner and the hot-set probe order the layer by.
    run_ends: Vec<u32>,
    /// Recycled group buffers: one per in-flight group of the pipeline,
    /// each grown on demand to at most [`GROUP_BYTES_MAX`].
    buf_pool: Vec<Vec<u8>>,
    /// Recycled per-group request lists (at most `queue_depth` each).
    req_pool: Vec<Vec<ReadSlice>>,
    /// Read-plan builder (sort/dedup/coalesce scratch + sorted order).
    planner: ReadPlanner,
    workspace_charge: MemoryCharge,
    charged_bytes: u64,
    /// Requests handed to the reader and not yet got back (what
    /// `group_submit.c` carries).
    inflight_reqs: u64,
    /// Request·nanoseconds the current batch spent blocked on the device:
    /// over its groups, Σ (the reader's blocking wait × the requests lent
    /// out during it). Divided by the batch's latency it is the queue gauge
    /// the batch's snapshot publishes.
    parked_req_nanos: u64,
    /// The stage clock (paper Fig. 3b's stages on one thread): the instant
    /// of the last [`Self::lap`]. It charges nothing itself: each lap
    /// travels in the one event that ends its stage.
    last: Instant,
    /// Everything timed, folded from every event [`Self::trace`] records
    /// (kept by the ring or not); merged only at epoch join.
    account: StageAccount,
    /// `ringscope` live-telemetry slot: when attached, the worker
    /// publishes a snapshot through the seqlock after every batch (two
    /// word stores + a fence — the one sanctioned hot-path exception to
    /// "no atomics"; see `ringstat::snapshot`). `None` costs one branch.
    telemetry: Option<TelemetrySlot>,
    /// `ringtrace` flight recorder: a fixed-capacity event ring whose
    /// single writer is this worker. `None` when `trace_capacity == 0`;
    /// recording costs one branch, and the ring drops on overflow instead
    /// of blocking.
    events: Option<Arc<EventRing>>,
    /// Timestamp origin for trace events; rebased to the epoch start by
    /// [`SamplerWorker::set_trace_origin`].
    trace_origin: Instant,
    /// `ringprof` epoch anchor: the full resource sample and wall
    /// instant taken by [`SamplerWorker::begin_epoch_profile`] **on this
    /// worker's own thread** (the thread-CPU clock and `RUSAGE_THREAD`
    /// are meaningless cross-thread). `None` until that call.
    res_start: Option<(ResourceSample, Instant)>,
    /// Thread CPU nanoseconds consumed since the epoch anchor — updated
    /// once per batch with a single `CLOCK_THREAD_CPUTIME_ID` read (the
    /// one resource syscall sanctioned on the hot path) and published in
    /// every snapshot.
    cpu_nanos: u64,
}

/// One I/O group between `submit_group` and `complete_group`.
struct InFlight {
    token: GroupToken,
    reqs: Vec<ReadSlice>,
    /// The worker's group count at submission (`group_submit.a`).
    id: u64,
    /// Start of the group's submit lap.
    since: Instant,
}

/// Per-worker publish state for live telemetry (cold fields read every
/// batch, but only when telemetry is enabled).
struct TelemetrySlot {
    cell: Arc<SnapshotCell<WorkerSnapshot>>,
    epoch: u64,
    total_batches: u64,
    seeds: u64,
}

impl std::fmt::Debug for SamplerWorker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SamplerWorker")
            .field("engine", &self.reader.engine_name())
            .field("metrics", &self.metrics)
            .finish()
    }
}

/// [`ENTRY_BYTES`] as `usize`, for slice arithmetic.
const ENTRY_SZ: usize = ENTRY_BYTES as usize;

/// Decodes the little-endian entry at byte `within` of a page buffer.
///
/// An entry extending past the page's valid bytes means the edge file
/// ended mid-entry (truncated or corrupt graph); that is reported as a
/// short read at `entry_byte` rather than a hot-path panic.
fn entry_in_page(data: &[u8], within: usize, entry_byte: u64) -> Result<NodeId> {
    match data
        .get(within..within + ENTRY_SZ)
        .and_then(|b| <[u8; ENTRY_SZ]>::try_from(b).ok())
    {
        Some(le) => Ok(NodeId::from_le_bytes(le)),
        None => Err(SamplerError::Io(IoEngineError::ShortRead {
            offset: entry_byte,
            expected: ENTRY_BYTES as u32,
            got: data.len().saturating_sub(within) as i32,
        })),
    }
}

/// A page read `r` cut at end of file `eof`: the file's final page is
/// usually short.
fn clamped(r: ReadSlice, eof: u64) -> ReadSlice {
    ReadSlice::new(r.offset, u64::from(r.len).min(eof.saturating_sub(r.offset)) as u32)
}

impl SamplerWorker {
    /// Creates a worker for `graph` under `cfg`, serving the pages of
    /// `hot` (the sampler's hot set, if it has one) from memory.
    ///
    /// # Errors
    /// Fails on reader/ring setup, or if the initial workspace charge
    /// exceeds the memory budget.
    pub(crate) fn new(
        graph: Arc<OnDiskGraph>,
        cfg: SamplerConfig,
        hot: Option<Arc<HotSet>>,
    ) -> Result<Self> {
        let file = File::open(graph.edge_path())
            .map_err(|e| crate::error::SamplerError::Io(IoEngineError::File(e)))?;
        let file_len = file
            .metadata()
            .map_err(|e| crate::error::SamplerError::Io(IoEngineError::File(e)))?
            .len();
        let engine = cfg.engine.unwrap_or_else(ringsampler_io::default_engine);
        let mut regfile_fallback = false;
        let reader: Box<dyn GroupReader> = match engine {
            EngineKind::Uring => {
                let mut r = UringReader::with_file(file, cfg.ring_entries)?;
                // Best effort: fall back to plain fd addressing if the
                // kernel refuses registration, but record the degradation
                // so operators can see it in the flight recorder.
                regfile_fallback = r.register_file().is_err();
                Box::new(r)
            }
            EngineKind::Pread => Box::new(PreadReader::with_file(file, cfg.ring_entries)),
        };
        // Initial workspace charge: ring buffers + a small floor; grows
        // with actual vector capacity as batches expand.
        let base = 2 * cfg.ring_entries as u64 * ENTRY_BYTES + 64 * 1024;
        let workspace_charge = cfg.budget.charge(base, "thread workspace")?;
        let events = if cfg.trace_capacity > 0 {
            Some(Arc::new(EventRing::new(cfg.trace_capacity)))
        } else {
            None
        };
        let now = Instant::now();
        let mut w = Self {
            graph,
            cfg,
            reader,
            file_len,
            sampler: OffsetSampler::new(),
            hot,
            metrics: SampleMetrics::default(),
            offsets: Vec::new(),
            src_pos: Vec::new(),
            run_ends: Vec::new(),
            buf_pool: Vec::new(),
            req_pool: Vec::new(),
            planner: ReadPlanner::new(),
            workspace_charge,
            charged_bytes: base,
            inflight_reqs: 0,
            parked_req_nanos: 0,
            last: now,
            account: StageAccount::default(),
            telemetry: None,
            events,
            trace_origin: now,
            res_start: None,
            cpu_nanos: 0,
        };
        if regfile_fallback {
            w.trace(EventKind::RegFileFallback, 0, 0, 0, 0);
        }
        Ok(w)
    }

    /// Closes a lap of the stage clock and returns its nanoseconds, for
    /// the event that ends the stage to carry. Besides the read that
    /// starts a batch, the hot path's only clock read.
    #[inline]
    fn lap(&mut self) -> u64 {
        let now = Instant::now();
        let nanos = nanos_between(self.last, now);
        self.last = now;
        nanos
    }

    /// The one record call: folds an event stamped with the last lap's
    /// instant into the account, then, with tracing on, pushes it onto the
    /// ring (a seqlock-cell publish that drops rather than blocks).
    #[inline]
    fn trace(&mut self, kind: EventKind, a: u64, b: u64, c: u64, d: u64) {
        let ev = TraceEvent {
            ts_ns: nanos_between(self.trace_origin, self.last),
            kind,
            a,
            b,
            c,
            d,
        };
        self.account.record(&ev);
        if let Some(ring) = &self.events {
            ring.record(ev);
        }
    }

    /// Installs this worker's telemetry slot — snapshot cell and ring in
    /// one registry call, see [`SnapshotRegistry::install`] — and from now
    /// on publishes a [`WorkerSnapshot`] after every batch (and a final
    /// inactive one at [`SamplerWorker::take_stats`]), carrying `epoch` and
    /// `total_batches` (0 when unknown, e.g. a streaming loader).
    pub(crate) fn attach_telemetry(
        &mut self,
        registry: &SnapshotRegistry,
        index: Option<usize>,
        epoch: u64,
        total_batches: u64,
    ) {
        let cell = registry.install(index, self.events.clone());
        self.telemetry = Some(TelemetrySlot {
            cell,
            epoch,
            total_batches,
            seeds: 0,
        });
    }

    /// Anchors `ringprof` for this epoch: takes the full epoch-start
    /// [`ResourceSample`] (two syscalls — epoch boundary, never per
    /// batch). Must run **on the worker's own
    /// thread**, after it has been moved into its epoch thread; the
    /// thread-CPU clock and `RUSAGE_THREAD` scope to the caller.
    pub fn begin_epoch_profile(&mut self) {
        #[expect(clippy::disallowed_methods, reason = "epoch boundary: runs once before the batch loop, on the worker's own thread")]
        let start = ResourceSample::now();
        self.res_start = Some((start, Instant::now()));
        self.cpu_nanos = 0;
    }

    /// Closes the epoch's resource interval: takes the end sample,
    /// differences it against the anchor, and folds the stage account
    /// and CPU time into the time ledger. Consumes the anchor, so it fires once per
    /// `begin_epoch_profile`. Runs on the worker's own thread (the
    /// epoch-join path calls it from `take_stats`).
    fn finish_epoch_resources(&mut self) -> Option<WorkerResources> {
        let (start, wall0) = self.res_start.take()?;
        #[expect(clippy::disallowed_methods, reason = "epoch join: closes the interval opened by begin_epoch_profile, once per epoch")]
        let sample = ResourceSample::now().delta(&start);
        let wall = nanos_between(wall0, Instant::now());
        // Pin the published CPU counter to the precise final delta so
        // the last snapshot and the report agree.
        self.cpu_nanos = sample.cpu_nanos;
        Some(WorkerResources {
            wall_nanos: wall,
            ledger: TimeLedger::build(wall, &self.account, sample.cpu_nanos),
            logical_bytes: self.metrics.sampled_edges * ENTRY_BYTES,
            sample,
        })
    }

    /// Publishes the worker's own record — its counters and stage account,
    /// whole — through the seqlock slot, if one is attached. The publish
    /// itself is wait-free: two version-counter stores and a volatile
    /// payload store.
    ///
    /// Between batches the pipeline is drained, so the live count of lent
    /// requests is always 0 here; `inflight` is the device backlog of the
    /// batch just finished (see [`Self::sample_batch`]), 0 once inactive.
    fn publish_snapshot(&self, active: bool, inflight: u64) {
        if let Some(slot) = &self.telemetry {
            slot.cell.publish(WorkerSnapshot {
                epoch: slot.epoch,
                total_batches: slot.total_batches,
                seeds: slot.seeds,
                active,
                inflight,
                cpu_nanos: self.cpu_nanos,
                metrics: self.metrics(),
                account: self.account,
            });
        }
    }

    /// The graph this worker samples from.
    pub(crate) fn graph_handle(&self) -> &OnDiskGraph {
        &self.graph
    }

    /// Length of the edge file when this worker opened it.
    pub(crate) fn file_len(&self) -> u64 {
        self.file_len
    }

    /// Counters accumulated by this worker so far.
    pub fn metrics(&self) -> SampleMetrics {
        let mut m = self.metrics;
        // The reader lives exactly as long as the worker: its lifetime
        // syscall count is the worker's.
        m.syscalls = self.reader.stats().syscalls;
        m
    }

    /// Which engine backs this worker.
    pub fn engine_name(&self) -> &'static str {
        self.reader.engine_name()
    }

    /// Re-anchors this worker's trace timestamps to `origin` (the epoch
    /// start), so flight-recorder events from all workers share one
    /// timeline. Call before the first batch.
    pub fn set_trace_origin(&mut self, origin: Instant) {
        self.trace_origin = origin;
    }

    /// Everything this worker has accumulated — counters, the stage
    /// account, the flight-recorder events — with the resource interval
    /// closed: the epoch-join path. **Drains** the ring, so events recorded
    /// after this call start a fresh window on the now-empty ring.
    pub fn take_stats(&mut self) -> WorkerStats {
        // Close the ringprof interval first so the final snapshot below
        // publishes the same CPU total the report carries.
        let resources = self.finish_epoch_resources();
        // Final telemetry publish: the worker is done, so the watchdog
        // must stop expecting its version to advance.
        self.publish_snapshot(false, 0);
        let (events, trace_dropped) = match &self.events {
            Some(ring) => (ring.drain(), ring.dropped()),
            None => (Vec::new(), 0),
        };
        WorkerStats {
            metrics: self.metrics(),
            account: self.account,
            events,
            trace_dropped,
            resources,
        }
    }

    /// Samples a full multi-layer mini-batch for `seeds`.
    ///
    /// Sampling is deterministic in `(config seed, batch_seed)` and
    /// independent of which thread runs the batch.
    ///
    /// # Errors
    /// Propagates I/O errors and memory-budget exhaustion.
    pub fn sample_batch(&mut self, seeds: &[NodeId], batch_seed: u64) -> Result<BatchSample> {
        // The batch starts the stage clock; from here to the last lap
        // below every nanosecond lands in a stage event.
        let start = Instant::now();
        self.last = start;
        self.parked_req_nanos = 0;
        let batch_index = self.metrics.batches;
        self.trace(EventKind::BatchStart, batch_index, seeds.len() as u64, 0, 0);
        let mut rng =
            StdRng::seed_from_u64(self.cfg.seed ^ batch_seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let mut targets: Vec<NodeId> = seeds.to_vec();
        let fanouts = self.cfg.fanouts.clone();
        let mut layers = Vec::with_capacity(fanouts.len());
        for (depth, &fanout) in (1..).zip(&fanouts) {
            let layer = self.sample_layer(targets, fanout, &mut rng)?;
            // The inter-layer reduce (dedup'ing neighbors into the next
            // frontier) is prepare-stage CPU work; traced with fanout 0 so
            // ringtrace attributes it to the sample stage. Nothing samples
            // the last layer's frontier, so it is not built: its event
            // (width 0) still closes the lap.
            targets = if depth < fanouts.len() {
                layer.unique_neighbors()
            } else {
                Vec::new()
            };
            self.metrics.layers += 1;
            self.metrics.sampled_edges += layer.num_edges() as u64;
            layers.push(layer);
            let reduce_nanos = self.lap();
            self.trace(EventKind::SampleDone, 0, targets.len() as u64, reduce_nanos, 0);
        }
        self.metrics.batches += 1;
        // The last layer's closing lap closed the batch. Its latency is read
        // off the batch's own clock, not off the account, so Σ stages equals
        // Σ batch latency only if every lap landed in a stage event.
        let batch_nanos = nanos_between(start, self.last);
        if let Some((start, _)) = &self.res_start {
            // ringprof per-batch cost: exactly one CLOCK_THREAD_CPUTIME_ID
            // read — no getrusage, no procfs until the epoch boundary.
            self.cpu_nanos = thread_cpu_nanos().saturating_sub(start.cpu_nanos);
        }
        self.trace(EventKind::BatchEnd, batch_index, batch_nanos, layers.len() as u64, 0);
        if let Some(slot) = &mut self.telemetry {
            slot.seeds += seeds.len() as u64;
        }
        // The queue gauge: the time-average, over the batch, of the
        // requests the worker was blocked behind. A group whose completions
        // were already in the CQ adds nothing, so a device that keeps up —
        // or an engine that never blocks in `complete_group` — reads 0
        // whatever the group sizes; a worker parked on a full window for
        // the whole batch reads the window.
        self.publish_snapshot(true, self.parked_req_nanos / batch_nanos.max(1));
        self.ensure_workspace_charge()?;
        Ok(BatchSample { layers })
    }

    /// Samples one layer for `targets`, which the layer then owns. Each
    /// target's draws are one run of `offsets`, ending at its `run_ends`.
    fn sample_layer(
        &mut self,
        targets: Vec<NodeId>,
        fanout: usize,
        rng: &mut StdRng,
    ) -> Result<LayerSample> {
        self.offsets.clear();
        self.src_pos.clear();
        self.run_ends.clear();
        let with_replacement = self.cfg.with_replacement;
        for (pos, &t) in targets.iter().enumerate() {
            let range = self.graph.neighbor_range(t);
            let before = self.offsets.len();
            if with_replacement {
                self.sampler.sample_range_with_replacement(
                    range.start,
                    range.end,
                    fanout,
                    rng,
                    &mut self.offsets,
                );
            } else {
                self.sampler
                    .sample_range(range.start, range.end, fanout, rng, &mut self.offsets);
            }
            for _ in before..self.offsets.len() {
                self.src_pos.push(pos as u32);
            }
            self.run_ends.push(self.offsets.len() as u32);
        }
        let draw_nanos = self.lap();
        self.trace(
            EventKind::SampleDone,
            fanout as u64,
            self.offsets.len() as u64,
            draw_nanos,
            0,
        );
        self.metrics.targets += targets.len() as u64;
        let entry_indices = std::mem::take(&mut self.offsets);
        let run_ends = std::mem::take(&mut self.run_ends);
        let dst = self.fetch_entries(&entry_indices, &run_ends);
        self.offsets = entry_indices;
        self.run_ends = run_ends;
        Ok(LayerSample {
            fanout,
            targets,
            src_pos: std::mem::take(&mut self.src_pos),
            dst: dst?,
        })
    }

    /// Fetches the neighbor values at `entry_indices` from the edge file:
    /// the single plan → read → scatter path of every configuration.
    /// `run_ends` cuts the entries into runs (one per target, see
    /// [`sort_by_runs`]; `&[]` for one run) that every ordering below
    /// sorts within, crossing runs only when they do not ascend.
    ///
    /// 1. **Hot set** (when the sampler has one): resident pages answer
    ///    their entries; the misses, ordered run by run into page order,
    ///    are what is left to read.
    /// 2. **Plan**: `Off` reads exactly 4 bytes per sampled neighbor in
    ///    sampling order — the paper's core I/O pattern (Fig. 2 steps 4–6);
    ///    `Coalesce` merges repeats and nearby entries into larger slices;
    ///    with a hot set the requests are the unique miss pages, merged when
    ///    strictly adjacent under `Coalesce`.
    /// 3. **Read + scatter**: [`Self::pipelined_read`] streams the requests
    ///    in byte-capped groups and every completed group is decoded
    ///    straight from its buffer into the output, so `dst` is
    ///    byte-identical in every mode and nothing the size of the layer's
    ///    payload is ever held.
    pub(crate) fn fetch_entries(
        &mut self,
        entry_indices: &[u64],
        run_ends: &[u32],
    ) -> Result<Vec<NodeId>> {
        // The scatter step borrows the planner and the hot set while the
        // executor borrows the rest of the worker; both are handed back
        // before an error propagates so the planner's capacity (and its
        // workspace charge) survives a failed batch.
        let mut planner = std::mem::take(&mut self.planner);
        let hot = self.hot.take();
        let res = self.fetch_through(entry_indices, run_ends, &mut planner, hot.as_deref());
        self.planner = planner;
        self.hot = hot;
        res
    }

    fn fetch_through(
        &mut self,
        entries: &[u64],
        run_ends: &[u32],
        planner: &mut ReadPlanner,
        hot: Option<&HotSet>,
    ) -> Result<Vec<NodeId>> {
        let n = entries.len();
        if n > u32::MAX as usize {
            return Err(SamplerError::Internal("layer wider than 2^32 entries"));
        }
        let mode = self.cfg.read_plan;
        let cached = hot.is_some();
        let byte_of = OnDiskGraph::entry_byte_offset;
        let byte_at = |i: u32| entries.get(i as usize).map_or(u64::MAX, |&e| byte_of(e));
        let mut out = vec![0 as NodeId; n];
        // Output positions of the entries still to read, ascending.
        let mut misses: Vec<u32> = Vec::new();
        if let Some(hot) = hot {
            for (i, (&e, slot)) in (0u32..).zip(entries.iter().zip(out.iter_mut())) {
                let byte = byte_of(e);
                let (page, within) = page_of(byte);
                match hot.get(page) {
                    Some(data) => *slot = entry_in_page(data, within, byte)?,
                    None => misses.push(i),
                }
            }
            self.metrics.cache_hits += (n - misses.len()) as u64;
            self.metrics.cache_misses += misses.len() as u64;
        }
        // Plan (CPU; one lap with the cache probe above). `stats` is
        // `None` for an identity plan — nothing merged, so the planner
        // counters stay untouched — and `Off` without a cache builds nothing
        // at all (its requests are generated group by group below); both are
        // still traced, so ringtrace's stage table covers every mode.
        let (reqs_in, stats) = if cached {
            // Page order is all the scatter needs: the requests are whole
            // pages, ascending, so each one's entries are a run of `misses`.
            // A target's misses are a subsequence of its run, so the runs
            // order them.
            sort_by_runs(&mut misses, run_ends, byte_at);
            let mut pages: Vec<u64> = Vec::new();
            for page in misses.iter().map(|&i| page_of(byte_at(i)).0) {
                if pages.last() != Some(&page) {
                    pages.push(page);
                }
            }
            // A sampled entry pointing past EOF means the offset index and
            // the edge file disagree (truncated or mismatched dataset).
            let last = pages.last().map_or(0, |p| p * PAGE_SIZE as u64);
            if last >= self.file_len {
                return Err(SamplerError::Io(IoEngineError::ShortRead {
                    offset: last,
                    expected: PAGE_SIZE as u32,
                    got: 0,
                }));
            }
            // Miss pages are already unique and sorted, so only `Coalesce`
            // has anything to merge: *strictly adjacent* pages (gap 0), which
            // keeps every byte read a real page byte.
            let page_mode = match mode {
                ReadPlanMode::Coalesce { .. } => ReadPlanMode::Coalesce { gap: 0 },
                ReadPlanMode::Off => ReadPlanMode::Off,
            };
            let stats = planner.plan_slices(&pages, &[], 0, PAGE_SIZE as u32, page_mode);
            (pages.len(), (!page_mode.is_off()).then_some(stats))
        } else if mode.is_off() {
            (n, None)
        } else {
            let stats =
                planner.plan_slices(entries, run_ends, byte_of(0), ENTRY_BYTES as u32, mode);
            (n, Some(stats))
        };
        let plan_nanos = self.lap();
        if cached && misses.len() < n {
            self.trace(EventKind::CacheHit, (n - misses.len()) as u64, 0, 0, 0);
        }
        if !misses.is_empty() {
            self.trace(EventKind::CacheMiss, misses.len() as u64, 0, 0, 0);
        }
        self.trace(
            EventKind::PlanBuilt,
            reqs_in as u64,
            stats.map_or(reqs_in as u64, |st| st.planned_reads),
            stats.map_or(0, |st| st.bytes_saved()),
            plan_nanos,
        );
        if let Some(st) = stats {
            self.metrics.reads_planned += st.planned_reads;
            self.metrics.reads_saved += st.reads_saved();
            self.metrics.bytes_saved += st.bytes_saved();
        }
        // Read + scatter. Decoding runs inside the executor's consume step,
        // one lap per group; their sum is the scatter stage.
        let scatter_nanos = if cached {
            let eof = self.file_len;
            let pages = planner.slices().iter().map(|&r| clamped(r, eof));
            let order = misses.iter().map(|&i| (byte_at(i), i));
            self.read_and_scatter(pages, order, &mut out)?
        } else if mode.is_off() {
            // One request per entry, in sampling order: the group buffers
            // concatenate to `out`.
            let naive = entries
                .iter()
                .map(|&e| ReadSlice::new(byte_of(e), ENTRY_BYTES as u32));
            let mut slots = out.iter_mut();
            self.pipelined_read(naive, |_, buf| {
                for (le, slot) in buf.chunks_exact(ENTRY_SZ).zip(slots.by_ref()) {
                    #[expect(clippy::expect_used, reason = "chunks_exact yields exactly ENTRY_SZ bytes per chunk")]
                    let entry = le.try_into().expect("exact chunk");
                    *slot = NodeId::from_le_bytes(entry);
                }
                Ok(())
            })?
        } else {
            let order = planner.perm().iter().map(|&i| (byte_at(i), i));
            self.read_and_scatter(planner.slices().iter().copied(), order, &mut out)?
        };
        self.trace(
            EventKind::ScatterDone,
            if cached { misses.len() } else { n } as u64,
            scatter_nanos,
            0,
            0,
        );
        Ok(out)
    }

    /// Streams `reqs` through the I/O pipeline and decodes every completed
    /// group in place. `order` lists the entries to resolve as (byte
    /// offset, output position) in request order — the entries a request
    /// serves are the next run of `order` inside its extent — and each is
    /// decoded from the group buffer straight into `out`. Returns the
    /// decode's nanoseconds (see [`Self::pipelined_read`]).
    fn read_and_scatter(
        &mut self,
        reqs: impl Iterator<Item = ReadSlice>,
        order: impl Iterator<Item = (u64, u32)>,
        out: &mut [NodeId],
    ) -> Result<u64> {
        let mut order = order.peekable();
        let scatter_nanos = self.pipelined_read(reqs, |slices, buf| {
            let mut rest = buf;
            for s in slices {
                let (Some(data), Some(tail)) =
                    (rest.get(..s.len as usize), rest.get(s.len as usize..))
                else {
                    return Err(SamplerError::Internal(
                        "group buffer shorter than its requests",
                    ));
                };
                rest = tail;
                let extent = s.offset..s.offset.saturating_add(u64::from(s.len));
                while let Some((byte, pos)) = order.next_if(|(byte, _)| extent.contains(byte)) {
                    let v = entry_in_page(data, (byte - s.offset) as usize, byte)?;
                    if let Some(slot) = out.get_mut(pos as usize) {
                        *slot = v;
                    }
                }
            }
            Ok(())
        })?;
        // An entry no request covered lies past the (clamped) end of file.
        match order.peek() {
            Some(&(offset, _)) => Err(SamplerError::Io(IoEngineError::ShortRead {
                offset,
                expected: ENTRY_BYTES as u32,
                got: 0,
            })),
            None => Ok(scatter_nanos),
        }
    }

    /// Reads the whole `pages` (ascending, unique) into `dst` back to back,
    /// the file's final page clamped to EOF: the hot set's one-time load,
    /// planned and streamed like the cached fetch's miss pages.
    pub(crate) fn read_pages(&mut self, pages: &[u64], dst: &mut [u8]) -> Result<()> {
        let mut planner = std::mem::take(&mut self.planner);
        planner.plan_slices(pages, &[], 0, PAGE_SIZE as u32, ReadPlanMode::Coalesce { gap: 0 });
        let eof = self.file_len;
        let reqs = planner.slices().iter().map(|&r| clamped(r, eof));
        let mut at = 0usize;
        let res = self.pipelined_read(reqs, |_, buf| {
            let Some(to) = dst.get_mut(at..at + buf.len()) else {
                return Err(SamplerError::Internal("page load overran its region"));
            };
            to.copy_from_slice(buf);
            at += buf.len();
            Ok(())
        });
        self.planner = planner;
        res?;
        // The reader fails a short read itself; a gap here is a planning bug.
        if at < dst.len() {
            return Err(SamplerError::Internal("page load left its region short"));
        }
        Ok(())
    }

    /// Runs the I/O-group pipeline over `reqs`, invoking `consume` on each
    /// completed group — its requests and its filled buffer — **in
    /// submission order**.
    ///
    /// A group closes at `queue_depth` requests or [`GROUP_BYTES_MAX`]
    /// payload bytes, whichever comes first, and its buffer returns to the
    /// pool once consumed, so the pool never holds more than `depth`
    /// buffers of at most that size however wide the layer is.
    ///
    /// Async mode keeps two groups in flight: while the kernel works on
    /// group *k*, the CPU prepares and submits group *k+1*, then polls
    /// *k*'s completions from the CQ (paper Fig. 3b). Sync mode submits and
    /// waits one group at a time.
    ///
    /// This is the one account of the groups: the reader only reads, so
    /// the counters and the `group_submit`/`group_complete` events all
    /// come from here, off each group's submit and completion laps.
    /// Returns the nanoseconds of the laps that ran `consume`: the fetch's
    /// scatter stage.
    fn pipelined_read<R, F>(&mut self, reqs: R, mut consume: F) -> Result<u64>
    where
        R: Iterator<Item = ReadSlice>,
        F: FnMut(&[ReadSlice], &[u8]) -> Result<()>,
    {
        let mut inflight = VecDeque::with_capacity(2);
        let res = self.run_groups(reqs, &mut consume, &mut inflight);
        // After a failure, wait out the groups still in flight: their
        // buffers return to the pool and the reader's slot table empties.
        for g in inflight.drain(..) {
            if let Ok(buf) = self.reader.complete_group(g.token) {
                self.buf_pool.push(buf);
            }
            self.req_pool.push(g.reqs);
        }
        self.inflight_reqs = 0;
        res
    }

    fn run_groups<R, F>(
        &mut self,
        reqs: R,
        consume: &mut F,
        inflight: &mut VecDeque<InFlight>,
    ) -> Result<u64>
    where
        R: Iterator<Item = ReadSlice>,
        F: FnMut(&[ReadSlice], &[u8]) -> Result<()>,
    {
        let qd = self.reader.queue_depth();
        let depth = match self.cfg.pipeline {
            PipelineMode::Sync => 1,
            PipelineMode::Async => 2,
        };
        let mut reqs = reqs.peekable();
        let mut scatter_nanos = 0;
        // Groups complete strictly in submission order (FIFO), so `consume`
        // sees the same byte stream at every depth.
        loop {
            let mut group = self.req_pool.pop().unwrap_or_default();
            group.clear();
            let mut bytes = 0usize;
            while group.len() < qd {
                // A request larger than the ceiling travels alone.
                let fits =
                    |r: &ReadSlice| group.is_empty() || bytes + r.len as usize <= GROUP_BYTES_MAX;
                let Some(r) = reqs.next_if(fits) else { break };
                bytes += r.len as usize;
                group.push(r);
            }
            let drained = group.is_empty();
            if drained {
                self.req_pool.push(group);
            } else {
                let mut buf = self.buf_pool.pop().unwrap_or_default();
                // Grow on demand, in powers of two up to the ceiling (an
                // oversized lone request gets exactly its size): `Vec`'s own
                // amortized doubling could carry a buffer past the ceiling.
                if buf.capacity() < bytes {
                    let cap = bytes.next_power_of_two().min(GROUP_BYTES_MAX).max(bytes);
                    buf.reserve_exact(cap - buf.len());
                }
                let since = self.last;
                let token = self.reader.submit_group(&group, buf)?;
                let submit_nanos = self.lap();
                let n = group.len() as u64;
                self.metrics.io_groups += 1;
                self.metrics.io_requests += n;
                self.metrics.io_bytes += bytes as u64;
                self.inflight_reqs += n;
                let id = self.metrics.io_groups;
                self.trace(EventKind::GroupSubmit, id, n, self.inflight_reqs, submit_nanos);
                inflight.push_back(InFlight {
                    token,
                    reqs: group,
                    id,
                    since,
                });
            }
            // Complete the oldest groups until the window has room for the
            // next submit — or, once the requests are drained, is empty.
            let window = if drained { 0 } else { depth - 1 };
            while inflight.len() > window {
                let Some(g) = inflight.pop_front() else {
                    break;
                };
                let waited = self.reader.stats().wait_nanos;
                let filled = self.reader.complete_group(g.token)?;
                let lap_nanos = self.lap();
                // How much of the lap was the blocking wait only the
                // reader can tell; the rest is reaping.
                let waited = self.reader.stats().wait_nanos - waited;
                let parked = waited.min(lap_nanos);
                self.parked_req_nanos += parked * self.inflight_reqs;
                self.inflight_reqs -= g.reqs.len() as u64;
                let latency = nanos_between(g.since, self.last);
                self.trace(
                    EventKind::GroupComplete,
                    g.id,
                    latency,
                    parked,
                    lap_nanos - parked,
                );
                consume(&g.reqs, &filled)?;
                scatter_nanos += self.lap();
                self.buf_pool.push(filled);
                self.req_pool.push(g.reqs);
            }
            if drained {
                return Ok(scatter_nanos);
            }
        }
    }

    /// Grows the workspace memory charge to match actual scratch capacity;
    /// the failure mode is the paper's OOM under cgroup limits. Every term
    /// is either `O(layer width)` scratch or the bounded group pool.
    fn ensure_workspace_charge(&mut self) -> Result<()> {
        let pooled = self.buf_pool.iter().map(Vec::capacity).sum::<usize>()
            + self.req_pool.iter().map(Vec::capacity).sum::<usize>()
                * std::mem::size_of::<ReadSlice>();
        let actual = (self.offsets.capacity() * 8
            + (self.src_pos.capacity() + self.run_ends.capacity()) * 4
            + pooled
            + self.planner.scratch_bytes()) as u64
            + 2 * self.cfg.ring_entries as u64 * ENTRY_BYTES
            + 64 * 1024;
        if actual > self.charged_bytes {
            self.workspace_charge
                .grow(actual - self.charged_bytes, "thread workspace")?;
            self.charged_bytes = actual;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CachePolicy;
    use ringstat::Stage;
    use crate::memory::MemoryBudget;
    use ringsampler_graph::edgefile::write_csr;
    use ringsampler_graph::CsrGraph;

    fn test_graph(tag: &str) -> Arc<OnDiskGraph> {
        let base =
            std::env::temp_dir().join(format!("rs-core-worker-{}-{tag}", std::process::id()));
        // 64 nodes, each node v has neighbors (v+1..v+1+deg) % 64 where
        // deg = v % 9, so degrees range 0..8.
        let mut edges = Vec::new();
        for v in 0..64u32 {
            for j in 0..(v % 9) {
                edges.push((v, (v + 1 + j) % 64));
            }
        }
        let csr = CsrGraph::from_edges(64, edges).unwrap();
        Arc::new(write_csr(&csr, &base).unwrap())
    }

    /// A worker as `RingSampler` makes one: with the hot set built, when
    /// `cfg` asks for a cache.
    fn worker(graph: &Arc<OnDiskGraph>, cfg: SamplerConfig) -> SamplerWorker {
        let hot = match cfg.cache {
            CachePolicy::None => None,
            CachePolicy::Page { budget_bytes } => {
                Some(Arc::new(HotSet::build(graph, &cfg, budget_bytes).unwrap()))
            }
        };
        SamplerWorker::new(Arc::clone(graph), cfg, hot).unwrap()
    }

    fn validate_sample(graph: &OnDiskGraph, csr: &CsrGraph, s: &BatchSample, fanouts: &[usize]) {
        assert_eq!(s.layers.len(), fanouts.len());
        for (l, &f) in s.layers.iter().zip(fanouts) {
            assert_eq!(l.fanout, f);
            for (src, dst) in l.iter_edges() {
                assert!(
                    csr.neighbors(src).contains(&dst),
                    "{dst} is not a neighbor of {src}"
                );
            }
            // Per-target counts: min(fanout, degree).
            for (pos, &t) in l.targets.iter().enumerate() {
                let got = l.src_pos.iter().filter(|&&p| p as usize == pos).count();
                let expect = (graph.degree(t) as usize).min(f);
                assert_eq!(got, expect, "target {t} fanout {f}");
            }
        }
    }

    #[test]
    fn batch_sample_is_valid_against_graph() {
        let graph = test_graph("valid");
        let csr = graph.load_csr().unwrap();
        let cfg = SamplerConfig::new().fanouts(&[3, 2]).ring_entries(16).seed(1);
        let mut w = worker(&graph, cfg);
        let seeds: Vec<NodeId> = (0..64).collect();
        let s = w.sample_batch(&seeds, 0).unwrap();
        validate_sample(&graph, &csr, &s, &[3, 2]);
        let m = w.metrics();
        assert_eq!(m.batches, 1);
        assert_eq!(m.layers, 2);
        assert!(m.io_requests > 0);
        assert_eq!(m.io_bytes, m.io_requests * 4);
    }

    #[test]
    fn deterministic_across_workers() {
        let graph = test_graph("det");
        let cfg = SamplerConfig::new().fanouts(&[3, 2]).ring_entries(8).seed(7);
        let mut w1 = worker(&graph, cfg.clone());
        let mut w2 = worker(&graph, cfg);
        let seeds: Vec<NodeId> = (10..30).collect();
        let a = w1.sample_batch(&seeds, 5).unwrap();
        let b = w2.sample_batch(&seeds, 5).unwrap();
        assert_eq!(a, b);
        let c = w2.sample_batch(&seeds, 6).unwrap();
        assert_ne!(a, c, "different batch seeds should differ");
    }

    #[test]
    fn sync_and_async_pipelines_agree() {
        let graph = test_graph("pipe");
        let mk = |mode| {
            SamplerConfig::new()
                .fanouts(&[4, 3])
                .ring_entries(4) // force many groups per layer
                .pipeline(mode)
                .seed(3)
        };
        let mut wa = worker(&graph, mk(PipelineMode::Async));
        let mut ws = worker(&graph, mk(PipelineMode::Sync));
        let seeds: Vec<NodeId> = (0..64).collect();
        let a = wa.sample_batch(&seeds, 1).unwrap();
        let s = ws.sample_batch(&seeds, 1).unwrap();
        assert_eq!(a, s);
    }

    #[test]
    fn uring_and_pread_engines_agree() {
        let graph = test_graph("engines");
        let mk = |engine| {
            SamplerConfig::new()
                .fanouts(&[3, 2])
                .ring_entries(8)
                .engine(engine)
                .seed(11)
        };
        let mut wu = worker(&graph, mk(EngineKind::Uring));
        let mut wp = worker(&graph, mk(EngineKind::Pread));
        assert_eq!(wu.engine_name(), "io_uring");
        assert_eq!(wp.engine_name(), "pread");
        let seeds: Vec<NodeId> = (0..40).collect();
        let a = wu.sample_batch(&seeds, 2).unwrap();
        let b = wp.sample_batch(&seeds, 2).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn cached_mode_matches_raw_mode() {
        let graph = test_graph("cache");
        let raw_cfg = SamplerConfig::new().fanouts(&[4, 4]).ring_entries(16).seed(9);
        let cached_cfg = raw_cfg.clone().cache(CachePolicy::Page {
            budget_bytes: 64 * (PAGE_SIZE as u64 + 64),
        });
        let mut wr = worker(&graph, raw_cfg);
        let mut wc = worker(&graph, cached_cfg);
        let seeds: Vec<NodeId> = (0..64).collect();
        for batch in 0..4 {
            let a = wr.sample_batch(&seeds, batch).unwrap();
            let b = wc.sample_batch(&seeds, batch).unwrap();
            assert_eq!(a, b);
        }
        let m = wc.metrics();
        assert!(m.cache_hits > 0, "repeat batches must hit the cache");
        // Cached mode reads pages, raw reads 4-byte entries: fewer requests.
        assert!(m.io_requests < wr.metrics().io_requests);
    }

    #[test]
    fn one_page_hot_set_still_correct() {
        // A hot set of one page: nearly every entry misses, still correct.
        let graph = test_graph("tinycache");
        let cfg = SamplerConfig::new()
            .fanouts(&[4])
            .ring_entries(8)
            .seed(13)
            .cache(CachePolicy::Page {
                budget_bytes: PAGE_SIZE as u64 + 64,
            });
        let raw = SamplerConfig::new().fanouts(&[4]).ring_entries(8).seed(13);
        let mut wc = worker(&graph, cfg);
        let mut wr = worker(&graph, raw);
        let seeds: Vec<NodeId> = (0..64).collect();
        assert_eq!(
            wc.sample_batch(&seeds, 0).unwrap(),
            wr.sample_batch(&seeds, 0).unwrap()
        );
    }

    #[test]
    fn zero_degree_seeds_produce_empty_layers() {
        let graph = test_graph("zero");
        let cfg = SamplerConfig::new().fanouts(&[5, 5]).ring_entries(8);
        let mut w = worker(&graph, cfg);
        // Node 0 has degree 0 (0 % 9 == 0).
        let s = w.sample_batch(&[0], 0).unwrap();
        assert_eq!(s.layers[0].num_edges(), 0);
        assert_eq!(s.layers[1].num_edges(), 0);
        assert!(s.layers[1].targets.is_empty());
    }

    #[test]
    fn oom_on_tiny_budget() {
        let graph = test_graph("oom");
        let cfg = SamplerConfig::new()
            .fanouts(&[3])
            .ring_entries(8)
            .budget(MemoryBudget::limited(100));
        match SamplerWorker::new(graph, cfg, None) {
            Err(crate::error::SamplerError::OutOfMemory { .. }) => {}
            other => panic!("expected OOM, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn with_replacement_always_fills_fanout() {
        let graph = test_graph("replace");
        let cfg = SamplerConfig::new()
            .fanouts(&[10])
            .ring_entries(16)
            .with_replacement(true)
            .seed(3);
        let mut w = worker(&graph, cfg);
        // Node 10 has degree 1 (10 % 9); with replacement it must still
        // contribute exactly 10 draws, all of the same neighbor.
        let s = w.sample_batch(&[10], 0).unwrap();
        assert_eq!(s.layers[0].num_edges(), 10);
        let first = s.layers[0].dst[0];
        assert!(s.layers[0].dst.iter().all(|&d| d == first));
        // Zero-degree node 0 contributes nothing even with replacement.
        let s0 = w.sample_batch(&[0], 1).unwrap();
        assert_eq!(s0.layers[0].num_edges(), 0);
    }

    #[test]
    fn stage_timers_populated() {
        let graph = test_graph("timers");
        let cfg = SamplerConfig::new().fanouts(&[4, 4]).ring_entries(8);
        let mut w = worker(&graph, cfg);
        let seeds: Vec<NodeId> = (0..64).collect();
        w.sample_batch(&seeds, 0).unwrap();
        let s = w.take_stats();
        for (phase, nanos) in s.account.phases() {
            assert!(nanos > 0, "{phase} time recorded");
        }
        let f = s.into_epoch_report(std::time::Duration::ZERO).wait_fraction();
        assert!(f > 0.0 && f < 1.0);
    }

    #[test]
    fn worker_stats_expose_distributions() {
        let graph = test_graph("stats");
        let cfg = SamplerConfig::new().fanouts(&[4, 4]).ring_entries(8);
        let mut w = worker(&graph, cfg);
        w.set_trace_origin(Instant::now());
        let seeds: Vec<NodeId> = (0..64).collect();
        w.sample_batch(&seeds, 0).unwrap();
        w.sample_batch(&seeds, 1).unwrap();
        let s = w.take_stats();
        let a = &s.account;
        assert_eq!(a.batch_latency.count(), 2, "one sample per batch");
        assert_eq!(
            a.group_latency.count(),
            s.metrics.io_groups,
            "one group-latency sample per completed group"
        );
        assert_eq!(a.cq_wait.count(), s.metrics.io_groups);
        assert!(a.get(Stage::Sample) > 0);
        assert!(a.get(Stage::Submit) > 0);
        assert!(a.complete() > 0);
        // The join drains the ring: the next window starts empty.
        assert!(!s.events.is_empty());
        assert!(w.take_stats().events.is_empty());
    }

    /// Every (plan, cache) shape the one fetch path is fed with.
    fn fetch_shapes() -> [(ReadPlanMode, CachePolicy); 3] {
        let page_cache = CachePolicy::Page {
            budget_bytes: 8 * (PAGE_SIZE as u64 + 64),
        };
        [
            (ReadPlanMode::Off, CachePolicy::None),
            (ReadPlanMode::coalesce(), CachePolicy::None),
            (ReadPlanMode::coalesce(), page_cache),
        ]
    }

    #[test]
    fn stage_clock_conserves_exactly() {
        // Σ stages == Σ batch latency to the nanosecond, whatever feeds the
        // fetch path: no stage event falls outside a batch, the ledger
        // built from the account conserves, and the last live snapshot is
        // the record the join returns.
        let graph = test_graph("conserve");
        let seeds: Vec<NodeId> = (0..64).collect();
        for (mode, cache) in fetch_shapes() {
            for engine in [EngineKind::Uring, EngineKind::Pread] {
                for pipeline in [PipelineMode::Async, PipelineMode::Sync] {
                    let cfg = SamplerConfig::new()
                        .fanouts(&[4, 3])
                        .ring_entries(4) // many groups per layer
                        .engine(engine)
                        .pipeline(pipeline)
                        .read_plan(mode)
                        .cache(cache);
                    let mut w = worker(&graph, cfg);
                    let registry = SnapshotRegistry::new();
                    w.attach_telemetry(&registry, None, 1, 3);
                    w.begin_epoch_profile();
                    for batch in 0..3 {
                        w.sample_batch(&seeds, batch).unwrap();
                        // What a consumer does between batches is nobody's stage.
                        std::thread::sleep(std::time::Duration::from_micros(200));
                    }
                    let s = w.take_stats();
                    let what = format!("{mode:?} {cache:?} {engine:?} {pipeline:?}");
                    let batch_sum = s.account.batch_latency.sum();
                    assert_eq!(s.account.total(), batch_sum, "{what}");
                    let res = s.resources.expect("the epoch profile was opened");
                    let ledger = res.ledger;
                    assert!(ledger.conserves(), "{what}: {ledger:?}");
                    assert_eq!(ledger.accounted_nanos(), batch_sum, "{what}");
                    assert!(ledger.other_nanos >= 3 * 200_000, "{what}: {ledger:?}");
                    let live = registry.observe()[0].snapshot.expect("published");
                    assert_eq!((live.metrics, live.account), (s.metrics, s.account), "{what}");
                    assert_eq!(live.cpu_nanos, res.sample.cpu_nanos, "{what}");
                }
            }
        }
    }

    #[test]
    fn stage_events_cover_the_batch() {
        // The account is the fold of the worker's events, so with nothing
        // dropped, folding the drained events reproduces it exactly —
        // stage sums and histograms — with a page cache in front too (the
        // probe loop is part of the plan lap), for either engine and
        // pipeline depth, and whether or not the trace origin was ever
        // re-anchored. Every lap of a batch is in one stage event, so the
        // stages sum to the batch latency.
        let graph = long_graph("coverage", 1 << 18);
        let seeds: Vec<NodeId> = (0..1024).collect();
        for (mode, cache) in fetch_shapes() {
            for engine in [EngineKind::Uring, EngineKind::Pread] {
                for pipeline in [PipelineMode::Async, PipelineMode::Sync] {
                    let cfg = SamplerConfig::new()
                        .fanouts(&[10, 10])
                        .seed(5)
                        .engine(engine)
                        .pipeline(pipeline)
                        .read_plan(mode)
                        .cache(cache);
                    let mut w = worker(&graph, cfg);
                    if pipeline == PipelineMode::Async {
                        w.set_trace_origin(Instant::now());
                    }
                    for batch in 0..4 {
                        w.sample_batch(&seeds, batch).unwrap();
                    }
                    let s = w.take_stats();
                    let what = format!("{mode:?} {cache:?} {engine:?} {pipeline:?}");
                    assert_eq!(s.trace_dropped, 0, "{what}");
                    let mut folded = StageAccount::default();
                    s.events.iter().for_each(|e| folded.record(e));
                    assert_eq!(folded, s.account, "{what}");
                    assert_eq!(folded.batch_latency.count(), 4, "{what}");
                    assert_eq!(folded.total(), folded.batch_latency.sum(), "{what}");
                }
            }
        }
    }

    #[test]
    fn group_latency_counts_completed_groups() {
        let graph = test_graph("grouplat");
        let seeds: Vec<NodeId> = (0..64).collect();
        for engine in [EngineKind::Uring, EngineKind::Pread] {
            let cfg = SamplerConfig::new().fanouts(&[4, 3]).ring_entries(4).engine(engine);
            let mut w = worker(&graph, cfg);
            assert!(w.take_stats().account.group_latency.is_empty());
            w.sample_batch(&seeds, 0).unwrap();
            w.sample_batch(&seeds, 1).unwrap();
            let s = w.take_stats();
            let lat = s.account.group_latency;
            assert!(s.metrics.io_groups > 2, "{engine:?}");
            assert_eq!(lat.count(), s.metrics.io_groups, "{engine:?}: one sample per group");
            // A group's latency spans its own submit and completion laps.
            assert!(
                lat.sum() >= s.account.get(Stage::Submit) + s.account.complete(),
                "{engine:?}"
            );
            assert!(lat.p99() >= lat.p50());
        }
    }

    #[test]
    fn attached_event_ring_records_group_lifecycle() {
        // The worker is the one emitter of group events, for both engines
        // and without `set_trace_origin` ever being called.
        let graph = test_graph("grouplife");
        let seeds: Vec<NodeId> = (0..64).collect();
        for engine in [EngineKind::Uring, EngineKind::Pread] {
            let cfg = SamplerConfig::new().fanouts(&[4, 3]).ring_entries(8).engine(engine);
            let mut w = worker(&graph, cfg);
            w.sample_batch(&seeds, 0).unwrap();
            let s = w.take_stats();
            assert_eq!(s.trace_dropped, 0);
            let of = |k: EventKind| s.events.iter().filter(move |e| e.kind == k);
            let submits: Vec<&TraceEvent> = of(EventKind::GroupSubmit).collect();
            let completes: Vec<&TraceEvent> = of(EventKind::GroupComplete).collect();
            assert_eq!(submits.len() as u64, s.metrics.io_groups, "{engine:?}");
            assert_eq!(completes.len(), submits.len(), "{engine:?}");
            assert_eq!(submits.iter().map(|e| e.b).sum::<u64>(), s.metrics.io_requests);
            // Groups complete in submission order, so the k-th of each pair up.
            for (k, (sub, done)) in submits.iter().zip(&completes).enumerate() {
                assert_eq!(sub.a, k as u64 + 1, "{engine:?}: ids count the groups");
                assert_eq!(done.a, sub.a, "{engine:?}: matching group ids");
                assert!(sub.b >= 1 && sub.b <= 8, "{engine:?}: request count");
                assert!(sub.c >= sub.b && sub.c <= 16, "{engine:?}: in flight {}", sub.c);
                assert!(done.ts_ns >= sub.ts_ns, "{engine:?}: complete after submit");
                // The one latency definition: Submit lap start to Complete lap end.
                assert_eq!(done.b, done.ts_ns - sub.ts_ns + sub.d, "{engine:?}");
            }
        }
    }

    #[test]
    fn metrics_accumulate_over_batches() {
        let graph = test_graph("metrics");
        let cfg = SamplerConfig::new().fanouts(&[2]).ring_entries(8);
        let mut w = worker(&graph, cfg);
        let seeds: Vec<NodeId> = (0..32).collect();
        w.sample_batch(&seeds, 0).unwrap();
        let m1 = w.metrics();
        w.sample_batch(&seeds, 1).unwrap();
        let m2 = w.metrics();
        assert_eq!(m2.batches, 2);
        assert!(m2.io_requests >= m1.io_requests);
        assert!(m2.sampled_edges > m1.sampled_edges);
    }

    /// Wraps a reader and records every submitted group as (requests, bytes).
    struct Recording {
        inner: Box<dyn GroupReader>,
        groups: Arc<std::sync::Mutex<Vec<(usize, usize)>>>,
    }

    impl GroupReader for Recording {
        fn queue_depth(&self) -> usize {
            self.inner.queue_depth()
        }
        fn submit_group(
            &mut self,
            reqs: &[ReadSlice],
            buf: Vec<u8>,
        ) -> ringsampler_io::Result<GroupToken> {
            let bytes = reqs.iter().map(|r| r.len as usize).sum();
            self.groups.lock().unwrap().push((reqs.len(), bytes));
            self.inner.submit_group(reqs, buf)
        }
        fn complete_group(&mut self, token: GroupToken) -> ringsampler_io::Result<Vec<u8>> {
            self.inner.complete_group(token)
        }
        fn stats(&self) -> ringsampler_io::ReaderStats {
            self.inner.stats()
        }
        fn engine_name(&self) -> &'static str {
            self.inner.engine_name()
        }
    }

    /// A graph whose edge file is one long run of entries: `entries`
    /// neighbors spread evenly over 1024 nodes, so any extent of the file
    /// can be asked for through `fetch_entries`.
    fn long_graph(tag: &str, entries: u32) -> Arc<OnDiskGraph> {
        let base =
            std::env::temp_dir().join(format!("rs-core-worker-{}-{tag}", std::process::id()));
        let edges = (0..entries).map(|j| (j % 1024, j.wrapping_mul(2_654_435_761) % 1024));
        let csr = CsrGraph::from_edges(1024, edges).unwrap();
        Arc::new(write_csr(&csr, &base).unwrap())
    }

    #[test]
    fn groups_never_exceed_queue_depth_or_byte_ceiling() {
        // One group's worth of full 64 KiB slices, one slice more and one
        // entry more: the last slice that fits fills a group to the byte, so
        // the byte ceiling, not the queue depth, must close it.
        let per_slice = (MAX_COALESCED_BYTES / ENTRY_BYTES) as u32;
        let per_group = (GROUP_BYTES_MAX as u64 / MAX_COALESCED_BYTES) as u32;
        let graph = long_graph("groups", (per_group + 2) * per_slice);
        let entries: Vec<u64> = (0..u64::from((per_group + 1) * per_slice) + 1).collect();
        let want = graph.load_csr().unwrap().neighbor_array()[..entries.len()].to_vec();
        // One hot page: the ~145 pages the fetch spans are nearly all read.
        let page_cache = CachePolicy::Page {
            budget_bytes: PAGE_SIZE as u64,
        };
        let all = entries.len();
        for (mode, cache, qd, take) in [
            (ReadPlanMode::coalesce(), CachePolicy::None, 64, all),
            // 4-byte requests: only the queue depth can close a group.
            (ReadPlanMode::Off, CachePolicy::None, 8, 4099),
            // A 1024-deep ring of page reads asks for 4 MiB per group.
            (ReadPlanMode::Off, page_cache, 1024, all),
            (ReadPlanMode::coalesce(), page_cache, 64, all),
        ] {
            let (entries, want) = (&entries[..take], &want[..take]);
            for pipeline in [PipelineMode::Async, PipelineMode::Sync] {
                let cfg = SamplerConfig::new()
                    .fanouts(&[1])
                    .ring_entries(qd)
                    .pipeline(pipeline)
                    .read_plan(mode)
                    .cache(cache);
                let mut w = worker(&graph, cfg);
                let groups = Arc::new(std::sync::Mutex::new(Vec::new()));
                w.reader = Box::new(Recording {
                    inner: Box::new(PreadReader::open(graph.edge_path(), qd).unwrap()),
                    groups: Arc::clone(&groups),
                });
                assert_eq!(
                    w.fetch_entries(entries, &[]).unwrap(),
                    want,
                    "{mode:?} {cache:?}"
                );
                let groups = groups.lock().unwrap();
                assert!(!groups.is_empty());
                for &(reqs, bytes) in groups.iter() {
                    assert!(
                        reqs >= 1 && reqs <= qd as usize,
                        "{mode:?}: {reqs} requests"
                    );
                    assert!(bytes <= GROUP_BYTES_MAX, "{mode:?}: {bytes} bytes");
                }
                let capped = groups.iter().filter(|g| g.1 == GROUP_BYTES_MAX).count();
                match (mode, cache) {
                    // One exactly-full group, then the slice that did not
                    // fit and the one-entry tail.
                    (ReadPlanMode::Coalesce { .. }, CachePolicy::None) => assert_eq!(
                        *groups,
                        [(per_group as usize, GROUP_BYTES_MAX), (2, 64 * 1024 + 4)]
                    ),
                    // The byte ceiling, not the queue depth, closed a group
                    // (the hot page may split a run, so not always to the byte).
                    (_, CachePolicy::Page { .. }) => assert!(
                        groups.iter().any(|&(r, b)| {
                            r < qd as usize && b + MAX_COALESCED_BYTES as usize > GROUP_BYTES_MAX
                        }),
                        "{mode:?}: {groups:?}"
                    ),
                    _ => assert_eq!(capped, 0),
                }
                assert!(
                    w.buf_pool.len() <= 2,
                    "pool holds {} buffers",
                    w.buf_pool.len()
                );
                assert!(w.buf_pool.iter().all(|b| b.capacity() <= GROUP_BYTES_MAX));
            }
        }
    }

    #[test]
    fn coalesce_workspace_is_bounded_and_stops_growing() {
        // A hub-heavy power-law graph whose coalesced layers pull nearly all
        // of a 2 MB edge file. The materialising fetch charged 4.6 MB here
        // (the whole payload once in its scratch and once more in a single
        // uncapped group buffer) and failed this budget with `OutOfMemory`;
        // the streaming one charges 1.5 MB: the pool and layer-width scratch.
        const LIMIT: u64 = 2 << 20;
        let base = std::env::temp_dir()
            .join(format!("rs-core-worker-{}-bounded", std::process::id()));
        let edges = ringsampler_graph::gen::PowerLawEdges::new(25_000, 500_000, 0.7, 3);
        let csr = CsrGraph::from_edges(25_000, edges).unwrap();
        let graph = Arc::new(write_csr(&csr, &base).unwrap());
        let budget = MemoryBudget::limited(LIMIT);
        let cfg = SamplerConfig::new()
            .fanouts(&[15, 10])
            .seed(3)
            .read_plan(ReadPlanMode::coalesce())
            .budget(budget.clone());
        let mut w = worker(&graph, cfg);
        let seeds: Vec<NodeId> = (0..256).collect();
        let first = w.sample_batch(&seeds, 0).unwrap();
        w.sample_batch(&seeds, 0).unwrap();
        let warm = budget.high_water();
        for _ in 2..10 {
            assert_eq!(w.sample_batch(&seeds, 0).unwrap(), first);
        }
        assert_eq!(budget.high_water(), warm, "nothing grows after warm-up");
        assert!(!w.buf_pool.is_empty());
        for b in &w.buf_pool {
            assert!(
                b.capacity() <= GROUP_BYTES_MAX,
                "pooled buffer of {}",
                b.capacity()
            );
        }
    }

    #[test]
    fn all_plan_modes_match_naive_output() {
        let graph = test_graph("planmodes");
        let modes = [
            ReadPlanMode::Off,
            ReadPlanMode::Coalesce { gap: 0 },
            ReadPlanMode::coalesce(),
        ];
        for engine in [EngineKind::Uring, EngineKind::Pread] {
            for cached in [false, true] {
                for replace in [false, true] {
                    let mk = |mode| {
                        let mut c = SamplerConfig::new()
                            .fanouts(&[6, 4])
                            .ring_entries(8)
                            .engine(engine)
                            .with_replacement(replace)
                            .seed(21)
                            .read_plan(mode);
                        if cached {
                            c = c.cache(CachePolicy::Page {
                                budget_bytes: 8 * (PAGE_SIZE as u64 + 64),
                            });
                        }
                        c
                    };
                    let seeds: Vec<NodeId> = (0..64).collect();
                    let mut naive = worker(&graph, mk(ReadPlanMode::Off));
                    let want = naive.sample_batch(&seeds, 0).unwrap();
                    for mode in modes {
                        let mut w = worker(&graph, mk(mode));
                        let got = w.sample_batch(&seeds, 0).unwrap();
                        assert_eq!(
                            got, want,
                            "mode {mode:?} engine {engine:?} cached {cached} replace {replace}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn off_mode_submits_identical_request_stream() {
        // `read_plan = Off` must be bit-identical to the pre-planner
        // behavior: one 4-byte request per sampled entry, no planner
        // counters touched.
        let graph = test_graph("planoff");
        let cfg = SamplerConfig::new().fanouts(&[4, 3]).ring_entries(8).seed(5);
        let mut w = worker(&graph, cfg);
        let seeds: Vec<NodeId> = (0..64).collect();
        let s = w.sample_batch(&seeds, 0).unwrap();
        let m = w.metrics();
        let edges: u64 = s.layers.iter().map(|l| l.num_edges() as u64).sum();
        assert_eq!(m.io_requests, edges);
        assert_eq!(m.io_bytes, edges * ENTRY_BYTES);
        assert_eq!(m.reads_planned, 0);
        assert_eq!(m.reads_saved, 0);
        assert_eq!(m.bytes_saved, 0);
    }

    #[test]
    fn planned_modes_save_reads_with_replacement() {
        // With replacement on a skewed access pattern, duplicates abound:
        // merging only repeats and exact neighbours (gap 0) must already
        // submit strictly fewer requests than naive, a page-wide gap no
        // more than that. All counters must flow to metrics.
        let graph = test_graph("plansave");
        let mk = |mode| {
            SamplerConfig::new()
                .fanouts(&[25, 10])
                .ring_entries(16)
                .with_replacement(true)
                .seed(17)
                .read_plan(mode)
        };
        let seeds: Vec<NodeId> = (0..64).collect();
        let run = |mode| {
            let mut w = worker(&graph, mk(mode));
            let s = w.sample_batch(&seeds, 0).unwrap();
            let m = w.metrics();
            (s, m)
        };
        let (want, naive) = run(ReadPlanMode::Off);
        let (got_0, gap0) = run(ReadPlanMode::Coalesce { gap: 0 });
        let (got_c, coal) = run(ReadPlanMode::coalesce());
        assert_eq!(got_0, want);
        assert_eq!(got_c, want);
        assert!(gap0.io_requests < naive.io_requests, "merging repeats must save SQEs");
        assert!(coal.io_requests <= gap0.io_requests);
        assert!(gap0.reads_planned > 0);
        assert!(gap0.reads_saved > 0);
        assert!(gap0.bytes_saved > 0);
        assert!(coal.coalesce_ratio() >= gap0.coalesce_ratio());
    }

    #[test]
    fn cached_coalesce_merges_adjacent_pages() {
        // Needs an edge file spanning several pages, unlike `test_graph`.
        let base = std::env::temp_dir()
            .join(format!("rs-core-worker-{}-plancache", std::process::id()));
        let mut edges = Vec::new();
        for v in 0..256u32 {
            for j in 0..(v % 33) {
                edges.push((v, (v + 1 + j) % 256));
            }
        }
        let csr = CsrGraph::from_edges(256, edges).unwrap();
        let graph = Arc::new(write_csr(&csr, &base).unwrap());
        let mk = |mode| {
            SamplerConfig::new()
                .fanouts(&[8])
                .ring_entries(8)
                .seed(29)
                .read_plan(mode)
                // One hot page, so the other pages are all misses.
                .cache(CachePolicy::Page {
                    budget_bytes: PAGE_SIZE as u64,
                })
        };
        let seeds: Vec<NodeId> = (0..256).collect();
        let mut w_off = worker(&graph, mk(ReadPlanMode::Off));
        let mut w_c = worker(&graph, mk(ReadPlanMode::coalesce()));
        let a = w_off.sample_batch(&seeds, 0).unwrap();
        let b = w_c.sample_batch(&seeds, 0).unwrap();
        assert_eq!(a, b);
        // The miss pages of this tiny graph form at most two runs (the hot
        // page may split one), so coalescing must collapse them into fewer
        // slices than pages.
        let m = w_c.metrics();
        assert!(m.reads_planned > 0);
        assert!(m.io_requests < w_off.metrics().io_requests);
    }

    #[test]
    fn entry_past_eof_is_structured_error_not_underflow() {
        let graph = test_graph("eof");
        let cfg = SamplerConfig::new()
            .fanouts(&[2])
            .ring_entries(8)
            .cache(CachePolicy::Page {
                budget_bytes: 8 * (PAGE_SIZE as u64 + 64),
            });
        let mut w = worker(&graph, cfg);
        // An entry index far past the edge file: the cached path must
        // return a short-read error, not underflow `file_len - start`.
        let err = w.fetch_entries(&[1 << 40], &[]).unwrap_err();
        match err {
            SamplerError::Io(IoEngineError::ShortRead { got, .. }) => assert_eq!(got, 0),
            other => panic!("expected structured ShortRead, got {other:?}"),
        }
    }

    #[test]
    fn failed_group_leaves_nothing_in_flight() {
        // The first group reads past EOF while the second is in flight: the
        // error surfaces, the second group's buffer comes back to the pool
        // and the worker (and its reader's slot table) carries on.
        let graph = test_graph("drain");
        let seeds: Vec<NodeId> = (0..64).collect();
        let mut entries: Vec<u64> = (0..12).collect();
        entries[1] = 1 << 40;
        for engine in [EngineKind::Uring, EngineKind::Pread] {
            let cfg = SamplerConfig::new().fanouts(&[3]).ring_entries(4).engine(engine);
            let mut w = worker(&graph, cfg.clone());
            match w.fetch_entries(&entries, &[]).unwrap_err() {
                SamplerError::Io(IoEngineError::ShortRead { .. }) => {}
                other => panic!("{engine:?}: expected ShortRead, got {other:?}"),
            }
            assert_eq!(w.inflight_reqs, 0, "{engine:?}");
            assert_eq!(w.buf_pool.len(), 1, "{engine:?}: the in-flight group's buffer");
            let want = worker(&graph, cfg).sample_batch(&seeds, 0).unwrap();
            assert_eq!(w.sample_batch(&seeds, 0).unwrap(), want, "{engine:?}");
        }
    }

    /// A reader whose `complete_group` blocks for `park` and says so in
    /// `wait_nanos`, the way a device that cannot keep up makes
    /// `UringReader` do.
    struct Parking {
        inner: PreadReader,
        park: std::time::Duration,
        waited: u64,
    }

    impl GroupReader for Parking {
        fn queue_depth(&self) -> usize {
            self.inner.queue_depth()
        }
        fn submit_group(
            &mut self,
            reqs: &[ReadSlice],
            buf: Vec<u8>,
        ) -> ringsampler_io::Result<GroupToken> {
            self.inner.submit_group(reqs, buf)
        }
        fn complete_group(&mut self, token: GroupToken) -> ringsampler_io::Result<Vec<u8>> {
            std::thread::sleep(self.park);
            self.waited += self.park.as_nanos() as u64;
            self.inner.complete_group(token)
        }
        fn stats(&self) -> ringsampler_io::ReaderStats {
            ringsampler_io::ReaderStats {
                wait_nanos: self.waited,
                ..self.inner.stats()
            }
        }
        fn engine_name(&self) -> &'static str {
            "parking"
        }
    }

    #[test]
    fn queue_gauge_reads_backlog_not_group_size() {
        // The default 512-entry ring and 2048 reads a batch: two full groups
        // are lent out at once, so a gauge of lent-out requests would read
        // 1024 and convict every healthy run. The published gauge counts
        // them only while the worker is blocked on them.
        use crate::telemetry::QUEUE_DEPTH;
        let graph = long_graph("gauge", 1 << 14);
        let seeds: Vec<NodeId> = (0..1024).collect();
        let cfg = SamplerConfig::new().fanouts(&[2]).seed(9);
        let publishing = |cfg: SamplerConfig| {
            let mut w = worker(&graph, cfg);
            let registry = SnapshotRegistry::new();
            w.attach_telemetry(&registry, None, 1, 0);
            (w, registry)
        };
        let published = |r: &SnapshotRegistry| r.observe()[0].snapshot.unwrap();
        for engine in [EngineKind::Uring, EngineKind::Pread] {
            let (mut w, registry) = publishing(cfg.clone().engine(engine));
            for batch in 0..3 {
                w.sample_batch(&seeds, batch).unwrap();
                let snap = published(&registry);
                assert!(snap.active);
                assert_eq!(snap.metrics.io_requests, 2048 * (batch + 1), "{engine:?}");
                // Page-cache reads complete at submission: nothing to park on.
                assert!((snap.inflight as f64) < QUEUE_DEPTH, "{engine:?}: {}", snap.inflight);
                if engine == EngineKind::Pread {
                    assert_eq!(snap.inflight, 0, "pread never queues");
                }
            }
        }
        // A device that cannot keep up: every group is waited for, far
        // longer than it takes to form the next one.
        for (pipeline, window) in [(PipelineMode::Async, 1024), (PipelineMode::Sync, 512)] {
            let (mut w, registry) = publishing(cfg.clone().pipeline(pipeline));
            w.reader = Box::new(Parking {
                inner: PreadReader::open(graph.edge_path(), 512).unwrap(),
                park: std::time::Duration::from_millis(5),
                waited: 0,
            });
            w.sample_batch(&seeds, 0).unwrap();
            let inflight = published(&registry).inflight;
            // Parked for most of the batch on a full window.
            assert!(
                inflight > window / 2 && inflight <= window,
                "{pipeline:?}: parked worker published {inflight}"
            );
            if pipeline == PipelineMode::Async {
                assert!(inflight as f64 >= QUEUE_DEPTH, "saturation must be reachable");
            }
            w.take_stats();
            assert_eq!(published(&registry).inflight, 0, "inactive");
        }
    }

    #[test]
    fn flight_recorder_captures_batch_lifecycle() {
        let graph = test_graph("trace");
        let cfg = SamplerConfig::new().fanouts(&[4, 3]).ring_entries(8).seed(2);
        let mut w = worker(&graph, cfg);
        w.set_trace_origin(Instant::now());
        let seeds: Vec<NodeId> = (0..64).collect();
        w.sample_batch(&seeds, 0).unwrap();
        let s = w.take_stats();
        assert_eq!(s.trace_dropped, 0);
        let count = |k: EventKind| s.events.iter().filter(|e| e.kind == k).count();
        assert_eq!(count(EventKind::BatchStart), 1);
        assert_eq!(count(EventKind::BatchEnd), 1);
        assert_eq!(
            count(EventKind::SampleDone),
            4,
            "one per layer draw plus one per inter-layer reduce"
        );
        let reduces = s
            .events
            .iter()
            .filter(|e| e.kind == EventKind::SampleDone && e.a == 0)
            .count();
        assert_eq!(reduces, 2, "reduce events carry fanout 0");
        assert_eq!(count(EventKind::PlanBuilt), 2, "one per layer fetch");
        assert_eq!(count(EventKind::ScatterDone), 2);
        assert_eq!(count(EventKind::CacheHit) + count(EventKind::CacheMiss), 0, "no cache");
        assert_eq!(count(EventKind::GroupSubmit) as u64, s.metrics.io_groups);
        assert_eq!(count(EventKind::GroupComplete) as u64, s.metrics.io_groups);
        // The ring is FIFO and single-writer: timestamps are monotone.
        for pair in s.events.windows(2) {
            assert!(pair[0].ts_ns <= pair[1].ts_ns, "out-of-order events");
        }
        let end = s
            .events
            .iter()
            .find(|e| e.kind == EventKind::BatchEnd)
            .expect("BatchEnd recorded");
        assert_eq!(end.a, 0, "first batch index");
        assert!(end.b > 0, "batch duration recorded");
        assert_eq!(end.c, 2, "layer count");
        // take_stats drained the ring: the next window starts empty.
        assert!(w.take_stats().events.is_empty());
    }

    #[test]
    fn zero_trace_capacity_disables_recording() {
        let graph = test_graph("notrace");
        let cfg = SamplerConfig::new()
            .fanouts(&[3])
            .ring_entries(8)
            .trace_capacity(0);
        let mut w = worker(&graph, cfg);
        w.set_trace_origin(Instant::now());
        let seeds: Vec<NodeId> = (0..32).collect();
        w.sample_batch(&seeds, 0).unwrap();
        let s = w.take_stats();
        assert!(s.events.is_empty());
        assert_eq!(s.trace_dropped, 0);
    }

    #[test]
    fn account_stays_exact_without_the_ring() {
        // The fold happens as each event is recorded, so a worker that
        // keeps no events, or whose ring overflows, still accounts every
        // batch, group and lap.
        let graph = test_graph("fold");
        let seeds: Vec<NodeId> = (0..64).collect();
        for capacity in [0, 16] {
            let cfg = SamplerConfig::new()
                .fanouts(&[4, 3])
                .ring_entries(4) // many groups per layer
                .trace_capacity(capacity);
            let mut w = worker(&graph, cfg);
            for batch in 0..3 {
                w.sample_batch(&seeds, batch).unwrap();
            }
            let s = w.take_stats();
            let a = &s.account;
            if capacity == 0 {
                assert!(s.events.is_empty() && s.trace_dropped == 0);
            } else {
                assert_eq!(s.events.len(), capacity);
                assert!(s.trace_dropped > 0, "the ring must overflow");
            }
            assert_eq!(a.batch_latency.count(), 3, "capacity {capacity}");
            assert_eq!(a.group_latency.count(), s.metrics.io_groups, "capacity {capacity}");
            assert_eq!(a.cq_wait.count(), s.metrics.io_groups, "capacity {capacity}");
            assert_eq!(a.total(), a.batch_latency.sum(), "capacity {capacity}");
        }
    }

    #[test]
    fn flight_recorder_counts_cache_traffic() {
        let graph = test_graph("tracecache");
        let cfg = SamplerConfig::new()
            .fanouts(&[4, 4])
            .ring_entries(16)
            .seed(9)
            .cache(CachePolicy::Page {
                budget_bytes: 64 * (PAGE_SIZE as u64 + 64),
            });
        let mut w = worker(&graph, cfg);
        w.set_trace_origin(Instant::now());
        let seeds: Vec<NodeId> = (0..64).collect();
        for batch in 0..3 {
            w.sample_batch(&seeds, batch).unwrap();
        }
        let s = w.take_stats();
        let hit_sum: u64 = s
            .events
            .iter()
            .filter(|e| e.kind == EventKind::CacheHit)
            .map(|e| e.a)
            .sum();
        let miss_sum: u64 = s
            .events
            .iter()
            .filter(|e| e.kind == EventKind::CacheMiss)
            .map(|e| e.a)
            .sum();
        assert_eq!(hit_sum, s.metrics.cache_hits, "hit events sum to counter");
        assert_eq!(miss_sum, s.metrics.cache_misses, "miss events sum to counter");
        assert!(hit_sum > 0, "repeat batches must record hits");
    }

    #[test]
    fn worker_moved_between_threads_samples_identically() {
        // ringbench's on-demand clients keep one worker and call it from a
        // fresh scoped thread per window; a persistent fleet would too.
        // With a hot set too: the hopping worker carries its handle on the
        // shared region along, and the region is only ever read.
        let graph = long_graph("hops", 1 << 14);
        let seeds: Vec<NodeId> = (0..64).collect();
        let hot = CachePolicy::Page {
            budget_bytes: 4 * PAGE_SIZE as u64,
        };
        for cache in [CachePolicy::None, hot] {
            for engine in [EngineKind::Uring, EngineKind::Pread] {
                let cfg = SamplerConfig::new()
                    .fanouts(&[4, 3])
                    .ring_entries(8)
                    .engine(engine)
                    .cache(cache)
                    .seed(19);
                let mut stayed = worker(&graph, cfg.clone());
                let mut hopping = worker(&graph, cfg);
                for batch in 0..3 {
                    let want = stayed.sample_batch(&seeds, batch).unwrap();
                    let got = std::thread::scope(|s| {
                        s.spawn(|| hopping.sample_batch(&seeds, batch)).join().unwrap()
                    })
                    .unwrap();
                    assert_eq!(got, want, "{cache:?} {engine:?} batch {batch}");
                }
                let (h, s) = (hopping.metrics(), stayed.metrics());
                assert_eq!(h.io_requests, s.io_requests, "{cache:?} {engine:?}");
                assert_eq!(h.cache_hits, s.cache_hits, "{cache:?} {engine:?}");
                if cache != CachePolicy::None {
                    assert!(h.cache_hits > 0 && h.cache_misses > 0, "{h:?}");
                }
                // The stage clock is an `Instant`, not a thread clock: it
                // conserves across hops.
                let st = hopping.take_stats().account;
                assert_eq!(st.total(), st.batch_latency.sum(), "{engine:?}");
            }
        }
    }
}
