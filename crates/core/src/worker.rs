#![cfg_attr(not(test), deny(clippy::disallowed_types, clippy::disallowed_methods, clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable, clippy::todo, clippy::unimplemented, clippy::indexing_slicing, clippy::allow_attributes, clippy::allow_attributes_without_reason))]
//! Per-thread sampling worker: offset-based layer sampling driving the
//! asynchronous I/O-group pipeline (paper §3.1, Figs. 2 and 3).
//!
//! Each worker owns everything it writes — a dedicated I/O reader (with
//! its own io_uring SQ/CQ pair), an RNG, an [`OffsetSampler`] and reusable
//! scratch vectors — and shares only what nobody writes (the graph index
//! and the optional hot set), so threads never synchronize during an epoch
//! ("Eliminating thread synchronization").
//!
//! A layer is a cursor over I/O groups (`Layer`): each step draws the
//! next targets until a group is full, plans them and submits the group,
//! while the group before it is in flight. So besides a layer's output a
//! worker holds a group of the layer, not the layer (the paper's pillar 1).

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
use crate::plan::{ReadPlanMode, RunWalk, WalkCounts, MAX_COALESCED_BYTES};
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
    /// Recycled group buffers: one per in-flight group of the pipeline,
    /// each grown on demand to at most [`GROUP_BYTES_MAX`].
    buf_pool: Vec<Vec<u8>>,
    /// Recycled per-group request lists (at most `queue_depth` each).
    req_pool: Vec<Vec<ReadSlice>>,
    /// The paper's thread-local workspace: the layer being fetched's
    /// drawn chunk, plan and in-flight entries.
    fetch: FetchScratch,
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

/// A fetch's scratch, lent to one layer at a time and kept (and charged)
/// across layers. Once a layer streams none of it grows with the layer: it
/// holds one drawn chunk and the groups being formed and in flight.
#[derive(Debug, Default)]
struct FetchScratch {
    /// The layer's plan, fed a chunk at a time; its closed slices wait in
    /// it for their group.
    walk: RunWalk,
    /// The chunk's draws and, per target, the end of its run.
    offsets: Vec<u64>,
    run_ends: Vec<u32>,
    /// The chunk's entries to read, as (byte, output position).
    pairs: Vec<(u64, u32)>,
    /// The planned entries not yet decoded, in slice order, as (payload
    /// byte mod 2^32, output position), and per group in flight how many
    /// of them it serves.
    order: VecDeque<(u32, u32)>,
    groups: VecDeque<usize>,
}

impl FetchScratch {
    /// Bytes of scratch currently held.
    fn bytes(&self) -> usize {
        let words = self.offsets.capacity() * 2 + self.run_ends.capacity() + self.groups.capacity() * 2;
        self.walk.scratch_bytes() + self.pairs.capacity() * 16 + self.order.capacity() * 8 + words * 4
    }
}

/// What a layer still has to draw: its targets from the next one on, each
/// target's draws one run of the layer's entries.
struct Draw<'a> {
    targets: &'a [NodeId],
    /// The next target's position in the layer: its draws' `src_pos`.
    next: u32,
    fanout: usize,
    rng: &'a mut StdRng,
    src_pos: &'a mut Vec<u32>,
}

/// One layer's fetch as a cursor over I/O groups (see the module docs),
/// drawing its targets in the order given with the same RNG calls as a
/// whole-layer draw, and decoding into `out`. A layer `whole` is drawn and
/// planned in its first step.
struct Layer<'a> {
    draw: Option<Draw<'a>>,
    hot: Option<&'a HotSet>,
    whole: bool,
    /// Under `Off` without a hot set, every entry is its own request, in
    /// draw order, so the groups' buffers concatenate to `out`: no pair is
    /// kept.
    seq: bool,
    /// Entries drawn so far: the output position of the next.
    drawn: usize,
    /// Payload bytes decoded so far: where the oldest group in flight starts.
    base: u64,
    s: FetchScratch,
    out: Vec<NodeId>,
}

/// A source of I/O groups for [`SamplerWorker::pipelined_read`].
trait Groups {
    /// Fills `group` with the next group's requests and returns their
    /// payload bytes; leaves it empty once every request has been read.
    fn next(&mut self, w: &mut SamplerWorker, group: &mut Vec<ReadSlice>) -> Result<usize>;
    /// Decodes the completed group `reqs`, read into `buf` back to back.
    fn scatter(&mut self, reqs: &[ReadSlice], buf: &[u8]) -> Result<()>;
}

impl Layer<'_> {
    /// Draws the next targets into the scratch: a chunk of at least `qd`
    /// entries (the rest of the layer when it is drawn whole).
    fn draw(&mut self, w: &mut SamplerWorker, qd: usize) {
        let Some(d) = &mut self.draw else {
            return;
        };
        let FetchScratch { offsets, run_ends, .. } = &mut self.s;
        let chunk = if self.whole { usize::MAX } else { qd };
        while offsets.len() < chunk {
            let Some((&t, rest)) = d.targets.split_first() else {
                break;
            };
            d.targets = rest;
            let range = w.graph.neighbor_range(t);
            let before = offsets.len();
            if w.cfg.with_replacement {
                w.sampler
                    .sample_range_with_replacement(range.start, range.end, d.fanout, d.rng, offsets);
            } else {
                w.sampler.sample_range(range.start, range.end, d.fanout, d.rng, offsets);
            }
            d.src_pos.extend(std::iter::repeat_n(d.next, offsets.len() - before));
            d.next += 1;
            run_ends.push(offsets.len() as u32);
        }
    }

    /// Plans the drawn chunk. The hot set, if there is one, answers the
    /// entries on its pages; the rest join the walk run by run — by page
    /// when the reads are pages — and their pairs queue in slice order for
    /// the scatter.
    fn plan(&mut self, w: &mut SamplerWorker) -> Result<()> {
        let FetchScratch { walk, offsets, run_ends, pairs, order, .. } = &mut self.s;
        let byte_of = OnDiskGraph::entry_byte_offset;
        let mut drawn = offsets.iter().zip(self.drawn as u32..);
        self.drawn += offsets.len();
        pairs.clear();
        let mut key_mask = u64::MAX;
        if self.seq {
            walk.each(drawn.map(|(&e, _)| byte_of(e)));
        } else if let Some(hot) = self.hot {
            key_mask = !(PAGE_SIZE as u64 - 1);
            let mut at = 0;
            for end in run_ends.iter_mut() {
                for (&e, pos) in drawn.by_ref().take((*end - at) as usize) {
                    let byte = byte_of(e);
                    let (page, within) = page_of(byte);
                    match (hot.get(page), self.out.get_mut(pos as usize)) {
                        (Some(data), Some(slot)) => *slot = entry_in_page(data, within, byte)?,
                        _ => pairs.push((byte, pos)),
                    }
                }
                at = *end;
                *end = pairs.len() as u32;
            }
            w.metrics.cache_hits += (offsets.len() - pairs.len()) as u64;
            w.metrics.cache_misses += pairs.len() as u64;
        } else {
            pairs.extend(drawn.map(|(&e, pos)| (byte_of(e), pos)));
        }
        if !walk.runs(pairs, run_ends, |b| b & key_mask) {
            return Err(SamplerError::Internal("a streamed layer's runs stopped ascending"));
        }
        order.extend(pairs.iter().map(|&(at, pos)| (at as u32, pos)));
        offsets.clear();
        run_ends.clear();
        if self.draw.as_ref().is_none_or(|d| d.targets.is_empty()) {
            walk.close();
        }
        Ok(())
    }
}

impl Groups for Layer<'_> {
    /// One step: draws and plans chunks until the next group is known,
    /// then takes it. A step that drew records its draw and plan laps in
    /// one `sample_done` and one `plan_built`, with the cache traffic and
    /// the plan counters of its chunks.
    fn next(&mut self, w: &mut SamplerWorker, group: &mut Vec<ReadSlice>) -> Result<usize> {
        let (qd, cached) = (w.reader.queue_depth(), self.hot.is_some());
        // Page reads are cut at the end of file, whose final page is short.
        let end = if cached { w.file_len } else { u64::MAX };
        let (drawn, before) = (self.drawn, self.s.walk.counts());
        let (mut draw_nanos, mut plan_nanos) = (None, 0);
        let bytes = loop {
            if let Some((bytes, served)) = self.s.walk.group(qd, GROUP_BYTES_MAX, end, group) {
                self.s.groups.push_back(served);
                break bytes;
            }
            self.draw(w, qd);
            *draw_nanos.get_or_insert(0) += w.lap();
            self.plan(w)?;
            plan_nanos += w.lap();
        };
        // A page read cut to nothing starts past the end of file: the offset
        // index and the edge file disagree (truncated or mismatched dataset).
        if let Some(r) = group.iter().find(|r| r.len == 0) {
            let (offset, expected) = (r.offset, PAGE_SIZE as u32);
            return Err(SamplerError::Io(IoEngineError::ShortRead { offset, expected, got: 0 }));
        }
        let Some(draw_nanos) = draw_nanos else {
            return Ok(bytes);
        };
        let drawn = (self.drawn - drawn) as u64;
        let fanout = self.draw.as_ref().map_or(0, |d| d.fanout) as u64;
        w.trace(EventKind::SampleDone, fanout, drawn, draw_nanos, 0);
        let misses = self.s.walk.counts().entries - before.entries;
        for (kind, n) in [(EventKind::CacheHit, drawn - misses), (EventKind::CacheMiss, misses)] {
            if cached && n > 0 {
                w.trace(kind, n, 0, 0, 0);
            }
        }
        // Without a hot set every entry is a naive read; with one, every
        // distinct miss page is. `Off` merges nothing, so its plan carries
        // no saving.
        let step = self.s.walk.stats_since(before, cached);
        let (planned, saved) = match w.cfg.read_plan {
            ReadPlanMode::Off => (step.naive_reads, 0),
            ReadPlanMode::Coalesce { .. } => (step.planned_reads, step.bytes_saved()),
        };
        w.trace(EventKind::PlanBuilt, step.naive_reads, planned, saved, plan_nanos);
        Ok(bytes)
    }

    fn scatter(&mut self, reqs: &[ReadSlice], buf: &[u8]) -> Result<()> {
        let (served, base) = (self.s.groups.pop_front().unwrap_or(0), self.base);
        self.base += buf.len() as u64;
        if self.seq {
            let (entries, _) = buf.as_chunks::<ENTRY_SZ>();
            let done = (base / ENTRY_BYTES) as usize;
            for (le, slot) in entries.iter().zip(self.out.iter_mut().skip(done)) {
                *slot = NodeId::from_le_bytes(*le);
            }
            return Ok(());
        }
        // The group's entries decode from its payload, the slices back to
        // back; an entry past its end lies past the end of file.
        for (at, pos) in self.s.order.drain(..served.min(self.s.order.len())) {
            let within = at.wrapping_sub(base as u32) as usize;
            let end = reqs.last().map_or(0, |r| r.offset + u64::from(r.len));
            let v = entry_in_page(buf, within, end)?;
            if let Some(slot) = self.out.get_mut(pos as usize) {
                *slot = v;
            }
        }
        Ok(())
    }
}

/// The hot set's one-time load: whole pages, copied back to back into
/// `dst`, of which `at` bytes are filled.
struct PageLoad<'a> {
    walk: RunWalk,
    dst: &'a mut [u8],
    at: usize,
}

impl Groups for PageLoad<'_> {
    fn next(&mut self, w: &mut SamplerWorker, group: &mut Vec<ReadSlice>) -> Result<usize> {
        let qd = w.reader.queue_depth();
        Ok(self.walk.group(qd, GROUP_BYTES_MAX, w.file_len, group).map_or(0, |g| g.0))
    }

    fn scatter(&mut self, _: &[ReadSlice], buf: &[u8]) -> Result<()> {
        let Some(to) = self.dst.get_mut(self.at..self.at + buf.len()) else {
            return Err(SamplerError::Internal("page load overran its region"));
        };
        to.copy_from_slice(buf);
        self.at += buf.len();
        Ok(())
    }
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
            buf_pool: Vec::new(),
            req_pool: Vec::new(),
            fetch: FetchScratch::default(),
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

    /// Samples one layer for `targets`, which the layer then owns: drawn,
    /// planned and read one I/O group at a time (see [`Layer`]). Its output
    /// is sized up front, at Σ min(fanout, degree) read off the offset index
    /// (with replacement: fanout per non-empty list).
    fn sample_layer(
        &mut self,
        targets: Vec<NodeId>,
        fanout: usize,
        rng: &mut StdRng,
    ) -> Result<LayerSample> {
        let replace = self.cfg.with_replacement;
        let width = |t: &NodeId| match self.graph.degree(*t) as usize {
            d if replace => fanout * usize::from(d > 0),
            d => fanout.min(d),
        };
        let n: usize = targets.iter().map(width).sum();
        let mut src_pos = Vec::with_capacity(n);
        let draw = Draw { targets: &targets, next: 0, fanout, rng, src_pos: &mut src_pos };
        // Only a frontier in node order draws runs that ascend; other
        // targets (the first layer's caller-ordered seeds) are drawn whole,
        // for the planner's comparison sort.
        let whole = !targets.windows(2).all(|w| w.first() < w.last());
        let dst = self.fetch(Some(draw), n, whole, |_| ())?;
        self.metrics.targets += targets.len() as u64;
        if src_pos.len() != dst.len() {
            return Err(SamplerError::Internal("a layer drew other than its width"));
        }
        Ok(LayerSample { fanout, targets, src_pos, dst })
    }

    /// The single plan → read → scatter path of every configuration: runs
    /// a [`Layer`] of `n` entries through the I/O pipeline and returns its
    /// output; `preload` fills the scratch of a layer not drawn here. The
    /// scratch and the hot set are lent to the layer while the pipeline
    /// borrows the rest of the worker, and handed back before an error
    /// propagates, so the scratch's capacity (and its charge) survives.
    fn fetch(
        &mut self,
        draw: Option<Draw<'_>>,
        n: usize,
        whole: bool,
        preload: impl FnOnce(&mut FetchScratch),
    ) -> Result<Vec<NodeId>> {
        if n > u32::MAX as usize {
            return Err(SamplerError::Internal("layer wider than 2^32 entries"));
        }
        let mut s = std::mem::take(&mut self.fetch);
        let hot = self.hot.take();
        // The hot set's misses are read as whole pages, each once; only
        // `Coalesce` merges them, and only *strictly adjacent* ones (gap 0),
        // so every byte read is a real page byte.
        let (stride, mode, cap) = match (hot.is_some(), self.cfg.read_plan) {
            (false, mode) => (ENTRY_SZ, mode, MAX_COALESCED_BYTES),
            (true, mode) => {
                let cap = if mode.is_off() { PAGE_SIZE as u64 } else { MAX_COALESCED_BYTES };
                (PAGE_SIZE, ReadPlanMode::Coalesce { gap: 0 }, cap)
            }
        };
        s.walk.start(stride as u32, mode, cap);
        s.order.clear();
        s.groups.clear();
        s.offsets.clear();
        s.run_ends.clear();
        preload(&mut s);
        let mut layer = Layer {
            draw,
            hot: hot.as_deref(),
            whole,
            seq: hot.is_none() && self.cfg.read_plan.is_off(),
            drawn: 0,
            base: 0,
            s,
            out: vec![0; n],
        };
        let res = self.pipelined_read(&mut layer).map(|scatter_nanos| {
            let walk = &layer.s.walk;
            self.trace(EventKind::ScatterDone, walk.counts().entries, scatter_nanos, 0, 0);
            if !self.cfg.read_plan.is_off() {
                let stats = walk.stats_since(WalkCounts::default(), layer.hot.is_some());
                self.metrics.reads_planned += stats.planned_reads;
                self.metrics.reads_saved += stats.reads_saved();
                self.metrics.bytes_saved += stats.bytes_saved();
            }
        });
        let Layer { s, out, .. } = layer;
        self.fetch = s;
        self.hot = hot;
        res.map(|()| out)
    }

    /// Reads the whole `pages` (ascending, unique) into `dst` back to back,
    /// the file's final page clamped to EOF: the hot set's one-time load,
    /// planned and streamed like the cached fetch's miss pages.
    pub(crate) fn read_pages(&mut self, pages: &[u64], dst: &mut [u8]) -> Result<()> {
        let mut load = PageLoad { walk: RunWalk::default(), dst, at: 0 };
        load.walk.start(PAGE_SIZE as u32, ReadPlanMode::Coalesce { gap: 0 }, MAX_COALESCED_BYTES);
        let mut pairs: Vec<(u64, u32)> = pages.iter().map(|&p| (p * PAGE_SIZE as u64, 0)).collect();
        load.walk.runs(&mut pairs, &[], |b| b);
        load.walk.close();
        self.pipelined_read(&mut load)?;
        // The reader fails a short read itself; a gap here is a planning bug.
        if load.at < load.dst.len() {
            return Err(SamplerError::Internal("page load left its region short"));
        }
        Ok(())
    }

    /// Runs the I/O-group pipeline over the groups `src` forms — at most
    /// `queue_depth` requests and [`GROUP_BYTES_MAX`] bytes each — handing
    /// each completed one back to `src` **in submission order**. A group's
    /// buffer returns to the pool once decoded, so the pool never holds more
    /// than `depth` buffers of at most that size however wide the layer is.
    ///
    /// Async mode keeps two groups in flight: while the kernel works on
    /// group *k*, the CPU draws, plans and submits group *k+1*, then polls
    /// *k*'s completions from the CQ (paper Fig. 3b). Sync mode submits and
    /// waits one group at a time.
    ///
    /// This is the one account of the groups: the reader only reads, so
    /// the counters and the `group_submit`/`group_complete` events all
    /// come from here, off each group's submit and completion laps.
    /// Returns the nanoseconds of the laps that decoded the groups: the
    /// fetch's scatter stage.
    fn pipelined_read(&mut self, src: &mut impl Groups) -> Result<u64> {
        let mut inflight = VecDeque::with_capacity(2);
        let res = self.run_groups(src, &mut inflight);
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

    fn run_groups(&mut self, src: &mut impl Groups, inflight: &mut VecDeque<InFlight>) -> Result<u64> {
        let depth = match self.cfg.pipeline {
            PipelineMode::Sync => 1,
            PipelineMode::Async => 2,
        };
        let mut scatter_nanos = 0;
        // Groups complete strictly in submission order (FIFO), so `scatter`
        // sees the same byte stream at every depth.
        loop {
            let mut group = self.req_pool.pop().unwrap_or_default();
            group.clear();
            let bytes = src.next(self, &mut group)?;
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
                src.scatter(&g.reqs, &filled)?;
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
    /// is bounded by the group pipeline, except what a layer drawn whole
    /// holds (the first layer's, when its seeds are not in node order).
    fn ensure_workspace_charge(&mut self) -> Result<()> {
        let pooled = self.buf_pool.iter().map(Vec::capacity).sum::<usize>()
            + self.req_pool.iter().map(Vec::capacity).sum::<usize>()
                * std::mem::size_of::<ReadSlice>();
        let actual = (pooled + self.fetch.bytes()) as u64
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

    impl SamplerWorker {
        /// Fetches the neighbor values at `entry_indices`, cut into runs by
        /// `run_ends` (one per target; `&[]` for one run), as a layer drawn
        /// whole is fetched.
        pub(crate) fn fetch_entries(&mut self, entry_indices: &[u64], run_ends: &[u32]) -> Result<Vec<NodeId>> {
            let n = entry_indices.len();
            self.fetch(None, n, true, |s| {
                s.offsets.extend_from_slice(entry_indices);
                s.run_ends.extend(run_ends.iter().copied().chain([n as u32]));
            })
        }
    }
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
    fn cached_miss_scratch_is_kept_and_charged() {
        // A one-page hot set: nearly every entry misses, so the misses'
        // pairs and pages are scratch that the worker keeps and charges like
        // the rest of its workspace.
        let graph = long_graph("misscharge", 64 * 1024);
        let cfg = SamplerConfig::new()
            .fanouts(&[8, 4])
            .ring_entries(8)
            .seed(13)
            .cache(CachePolicy::Page {
                budget_bytes: PAGE_SIZE as u64,
            });
        let mut w = worker(&graph, cfg);
        let seeds: Vec<NodeId> = (0..256).collect();
        let first = w.sample_batch(&seeds, 0).unwrap();
        assert!(w.metrics().cache_misses > 0);
        let FetchScratch { walk, pairs, order, .. } = &w.fetch;
        assert!(pairs.capacity() > 0 && order.capacity() > 0, "miss scratch not kept");
        assert!(walk.scratch_bytes() > 0, "miss pages not kept");
        assert!(w.charged_bytes >= w.fetch.bytes() as u64);
        let (charged, misses) = (w.charged_bytes, w.fetch.pairs.as_ptr());
        assert_eq!(w.sample_batch(&seeds, 0).unwrap(), first);
        assert_eq!(w.charged_bytes, charged, "nothing grows after warm-up");
        assert_eq!(w.fetch.pairs.as_ptr(), misses, "the miss list is reused");
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
    fn workspace_holds_groups_not_layers() {
        // Pillar 1: a worker's auxiliary memory does not grow with the
        // layer. The widest layer is ~800 k entries at 1024 seeds and ~25 k
        // at 64; between them the charge may grow by what the group pipeline
        // holds — two group buffers, the entries of the group in flight and
        // the one being formed (a group reads at most GROUP_BYTES_MAX, so it
        // serves at most that over ENTRY_BYTES distinct entries, 8 bytes
        // each), and per request of a group a few words — never by bytes
        // per entry of the layer.
        const RING: u32 = 16;
        let bound = 2 * GROUP_BYTES_MAX + 2 * (GROUP_BYTES_MAX / ENTRY_SZ) * 8 + RING as usize * 256;
        let base =
            std::env::temp_dir().join(format!("rs-core-worker-{}-pillar1", std::process::id()));
        let nodes = 1u32 << 16;
        let edges = (0..nodes * 32).map(|j| (j / 32, j.wrapping_mul(2_654_435_761) % nodes));
        let csr = CsrGraph::from_edges(nodes as usize, edges).unwrap();
        let graph = Arc::new(write_csr(&csr, &base).unwrap());
        for (mode, cache) in fetch_shapes() {
            let cfg = SamplerConfig::new()
                .fanouts(&[32, 32])
                .ring_entries(RING)
                .seed(23)
                .read_plan(mode)
                .cache(cache);
            let mut w = worker(&graph, cfg);
            let seeds: Vec<NodeId> = (0..1024).collect();
            w.sample_batch(&seeds[..64], 0).unwrap();
            let narrow = w.charged_bytes;
            let sample = w.sample_batch(&seeds, 1).unwrap();
            let widest = sample.layers.iter().map(|l| l.num_edges()).max().unwrap();
            assert!(widest > 750_000, "{widest}");
            let grown = (w.charged_bytes - narrow) as usize;
            assert!(grown <= bound, "{mode:?} {cache:?}: grew {grown} bytes, bound {bound}");
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
        // A layer is drawn and planned a group at a time: one draw and one
        // plan per step, a step per group at most and one more per layer
        // (whose groups, if any, were formed before its last draw), then one
        // reduce, traced with fanout 0.
        let sample_done = |draw: bool| {
            s.events.iter().filter(move |e| e.kind == EventKind::SampleDone && (e.a != 0) == draw)
        };
        let steps = sample_done(true).count();
        assert_eq!(sample_done(false).count(), 2, "reduce events carry fanout 0");
        assert_eq!(count(EventKind::PlanBuilt), steps, "one plan per draw");
        assert!(steps >= 2 && steps as u64 <= s.metrics.io_groups + 2, "{steps} steps");
        let drawn: u64 = sample_done(true).map(|e| e.b).sum();
        assert_eq!(drawn, s.metrics.sampled_edges, "the steps draw every edge once");
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
