//! `ringscope`: live telemetry for running samplers (DESIGN.md §10).
//!
//! Post-mortem observability ([`crate::metrics::EpochReport`]) only
//! surfaces after an epoch joins; this module makes a *running* epoch
//! visible without touching the paper's §3.1 sync-free hot path:
//!
//! * **Publish side** — each worker owns a
//!   [`SnapshotCell<WorkerSnapshot>`] seqlock slot and overwrites it
//!   after every mini-batch (two word stores + a fence; no locks, no
//!   RMW, no syscalls). See [`ringstat::snapshot`] for the
//!   memory-ordering argument.
//! * **Observe side** — one telemetry thread reads every slot of the
//!   [`SnapshotRegistry`] each poll tick and hands the snapshots to its
//!   [`Monitor`], which appends them to one plain series per worker (DESIGN.md
//!   §14). `GET /metrics` (Prometheus text) exports every worker's counters,
//!   batch-latency histogram and stage sums as they stand, so a scraper
//!   derives any rate or share itself. `GET /progress` (fleet
//!   throughput, ETA and the dominant stage) and `GET /healthz` are folds
//!   over the series. The stall watchdog is a fact about a series too: an
//!   active worker whose `batches` count has not moved for 10 s is reported
//!   once with its last-known state, recent history and flight-recorder
//!   tail, and flips `/healthz` to `503` — turning silent io_uring wedges
//!   into diagnosable events. `GET /trace` (the live tail of each
//!   flight-recorder ring, read with the non-destructive
//!   [`EventRing::recent`]) completes the set.
//!
//! Everything here is cold-path: the registry's `Mutex`es are touched
//! only at epoch setup and by the telemetry thread, never per batch, and
//! the [`Monitor`] belongs to the telemetry thread alone.

use std::collections::VecDeque;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use ringsampler_io::IoEngineError;
use ringstat::history::windowed_rates;
use ringstat::{
    EventRing, HistoryPoint, HttpServer, Json, PromWriter, Response, SampleMetrics, SnapshotCell,
    Stage, StageAccount, TraceEvent, WorkerSnapshot,
};

use crate::error::{Result, SamplerError};
use crate::metrics::with_dominant;

/// Configuration for the embedded telemetry server. The history length
/// (512 points per worker) and the stall window (10 s) are constants.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetryConfig {
    /// Bind address for the HTTP endpoints, e.g. `127.0.0.1:9898`
    /// (port `0` picks a free port, printed to stderr at startup).
    pub addr: String,
    /// How often the telemetry thread polls worker slots, appends one
    /// history point per worker, and serves pending connections.
    pub poll_interval: Duration,
}

impl TelemetryConfig {
    /// Telemetry on `addr`, polling every 200 ms.
    pub fn new(addr: impl Into<String>) -> Self {
        Self {
            addr: addr.into(),
            poll_interval: Duration::from_millis(200),
        }
    }

    /// Sets the poll interval.
    pub fn poll_interval(mut self, interval: Duration) -> Self {
        self.poll_interval = interval;
        self
    }

    /// Validates invariants.
    ///
    /// # Errors
    /// [`SamplerError::InvalidConfig`] naming the violated constraint.
    pub fn validate(&self) -> Result<()> {
        if self.addr.is_empty() {
            return Err(SamplerError::InvalidConfig(
                "telemetry bind address must be non-empty".into(),
            ));
        }
        if self.poll_interval.is_zero() {
            return Err(SamplerError::InvalidConfig(
                "telemetry poll interval must be positive".into(),
            ));
        }
        Ok(())
    }
}

/// One reader-side observation of a worker slot.
#[derive(Debug, Clone, Copy)]
pub struct WorkerObservation {
    /// Slot index (stable within an epoch; label value in `/metrics`).
    pub index: usize,
    /// The snapshot, or `None` if the cell stayed torn through the
    /// bounded retries (writer died mid-publish).
    pub snapshot: Option<WorkerSnapshot>,
}

/// One worker's telemetry slot: its snapshot cell and its flight-recorder
/// ring — installed together, so every view names a worker by the same
/// index. A slot no worker has installed yet holds no ring.
#[derive(Debug, Clone)]
struct Slot {
    cell: Arc<SnapshotCell<WorkerSnapshot>>,
    ring: Option<Arc<EventRing>>,
}

impl Slot {
    fn new(ring: Option<Arc<EventRing>>) -> Self {
        Self {
            cell: Arc::new(SnapshotCell::new(WorkerSnapshot::default())),
            ring,
        }
    }
}

/// The shared collection of worker slots the telemetry thread reads.
/// Installation is cold-path (epoch setup / loader construction); workers
/// never touch the registry after receiving their slot.
#[derive(Debug, Default)]
pub struct SnapshotRegistry {
    /// One slot per worker, by index; rings are read with the best-effort
    /// [`EventRing::recent`], never the destructive drain.
    slots: Mutex<Vec<Slot>>,
    epochs: Mutex<u64>,
}

impl SnapshotRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Installs a worker's slot in one step — a fresh snapshot cell and its
    /// ring — at `index` (an epoch worker's thread index) or appended (a
    /// standalone worker, e.g. a `DataLoader`, listed with `active = false`
    /// once it finishes). Returns the cell to publish into.
    pub fn install(
        &self,
        index: Option<usize>,
        ring: Arc<EventRing>,
    ) -> Arc<SnapshotCell<WorkerSnapshot>> {
        let slot = Slot::new(Some(ring));
        let cell = Arc::clone(&slot.cell);
        if let Ok(mut slots) = self.slots.lock() {
            let at = index.unwrap_or(slots.len());
            let len = slots.len().max(at + 1);
            slots.resize_with(len, || Slot::new(None));
            slots[at] = slot;
        }
        cell
    }

    /// Starts an epoch of `n` workers: every slot, ring included, is
    /// replaced by `n` empty ones for the epoch's workers to install
    /// theirs into. History needs no reset: the [`Monitor`] restarts a
    /// worker's series when it sees the slot's epoch change.
    pub fn reset_epoch(&self, n: usize) {
        if let Ok(mut slots) = self.slots.lock() {
            *slots = (0..n).map(|_| Slot::new(None)).collect();
        }
    }

    /// The slots as of now, read outside the lock.
    fn slots(&self) -> Vec<Slot> {
        self.slots.lock().map(|s| s.clone()).unwrap_or_default()
    }

    /// Reads the tail of every installed flight-recorder ring, under its
    /// slot's index: up to `k` most-recent events per worker (best effort
    /// — slots being written concurrently are skipped) plus the
    /// recorded/dropped cursors.
    pub fn observe_traces(&self, k: usize) -> Vec<TraceTail> {
        let slots = self.slots();
        slots
            .iter()
            .enumerate()
            .filter_map(|(index, s)| {
                let ring = s.ring.as_ref()?;
                Some(TraceTail {
                    index,
                    recorded: ring.head(),
                    dropped: ring.dropped(),
                    events: ring.recent(k),
                })
            })
            .collect()
    }

    /// Increments and returns the epoch counter (1-based).
    pub fn next_epoch(&self) -> u64 {
        match self.epochs.lock() {
            Ok(mut e) => {
                *e += 1;
                *e
            }
            Err(_) => 0,
        }
    }

    /// Reads every slot once (bounded seqlock retries per slot).
    pub fn observe(&self) -> Vec<WorkerObservation> {
        let slots = self.slots();
        slots
            .iter()
            .enumerate()
            .map(|(index, s)| WorkerObservation {
                index,
                snapshot: s.cell.read(),
            })
            .collect()
    }
}

/// One reader-side observation of a worker's flight-recorder ring: the
/// cursor counters plus a best-effort tail of recent events.
#[derive(Debug, Clone)]
pub struct TraceTail {
    /// Worker index the ring belongs to.
    pub index: usize,
    /// Events recorded onto the ring since creation (the head cursor).
    pub recorded: u64,
    /// Events dropped on overflow.
    pub dropped: u64,
    /// Up to the requested number of most-recent events, oldest first.
    pub events: Vec<TraceEvent>,
}

/// A worker the watchdog just declared stalled.
#[derive(Debug, Clone, Copy)]
pub struct StallEvent {
    /// Slot index of the stalled worker.
    pub worker: usize,
    /// The newest point of the worker's series: its last-known state.
    pub snapshot: WorkerSnapshot,
}

/// Fleet-wide rates the server derives from successive polls; split out
/// so document rendering stays pure (golden-testable without clocks).
#[derive(Debug, Clone, Copy, Default)]
pub struct FleetRates {
    /// Sampled edges per second over the recent rate window — the
    /// current-throughput figure `/progress` leads with.
    pub edges_per_sec: f64,
    /// Completed batches per second over the recent rate window.
    pub batches_per_sec: f64,
    /// Estimated seconds until all assigned batches complete, from the
    /// *windowed* batch rate (`None` when unknown: no assigned totals or
    /// no recent progress).
    pub eta_seconds: Option<f64>,
    /// Sampled edges per second since the first observation (the
    /// lifetime average the windowed figure used to be conflated with).
    pub lifetime_edges_per_sec: f64,
    /// Completed batches per second since the first observation.
    pub lifetime_batches_per_sec: f64,
}

/// Server-level facts `/metrics` exports beyond the per-worker slots:
/// uptime and build identity. Split out (with a [`Default`]) so
/// `metrics_document` stays pure and golden-testable — the [`Monitor`]
/// fills it from its timeline per request.
#[derive(Debug, Clone, Default)]
pub struct MetricsExtras {
    /// Seconds since the telemetry server started.
    pub uptime_seconds: f64,
    /// Crate version for the `ringsampler_build_info` info family.
    pub version: String,
}

/// Renders the `GET /metrics` Prometheus document for one poll's
/// observations plus the flight-recorder cursor counters and the
/// server-level extras. Pure: same inputs ⇒ same text. `traces` may
/// come from `observe_traces(0)` — only the recorded/dropped counters
/// are used here, never the events.
pub fn metrics_document(
    obs: &[WorkerObservation],
    traces: &[TraceTail],
    extras: &MetricsExtras,
) -> String {
    let mut w = PromWriter::new();
    w.gauge("ringsampler_up", "Telemetry endpoint liveness", &[], 1.0);
    w.gauge(
        "ringsampler_uptime_seconds",
        "Seconds since the telemetry server started",
        &[],
        extras.uptime_seconds,
    );
    w.gauge(
        "ringsampler_build_info",
        "Build identity (constant 1; the info lives in the labels)",
        &[("version", extras.version.as_str())],
        1.0,
    );
    w.gauge(
        "ringsampler_workers",
        "Worker slots currently registered",
        &[],
        obs.len() as f64,
    );
    for o in obs {
        let Some(s) = o.snapshot else { continue };
        let idx = o.index.to_string();
        let labels: &[(&str, &str)] = &[("worker", &idx)];
        w.gauge(
            "ringsampler_worker_epoch",
            "Epoch the worker is sampling",
            labels,
            s.epoch as f64,
        );
        w.gauge(
            "ringsampler_worker_active",
            "1 while the worker is sampling, 0 after it joined",
            labels,
            if s.active { 1.0 } else { 0.0 },
        );
        let m = &s.metrics;
        for (name, help, value) in [
            ("ringsampler_worker_batches_total", "Mini-batches completed this epoch", m.batches),
            ("ringsampler_worker_targets_total", "Seed nodes processed this epoch", s.seeds),
            ("ringsampler_worker_sampled_nodes_total", "Frontier nodes whose neighbor lists were sampled", m.targets),
            ("ringsampler_worker_sampled_edges_total", "Neighbor entries sampled", m.sampled_edges),
            ("ringsampler_worker_io_bytes_total", "Payload bytes read from disk", m.io_bytes),
            ("ringsampler_worker_reads_submitted_total", "Read requests submitted to the I/O engine", m.io_requests),
            ("ringsampler_worker_io_groups_total", "I/O groups submitted", m.io_groups),
            ("ringsampler_worker_spanned_reads_total", "Read requests served from one read of a missing page's extent", m.spanned_reads),
        ] {
            w.counter(name, help, labels, value);
        }
        w.counter(
            "ringsampler_worker_cpu_nanos_total",
            "Thread CPU time consumed this epoch (ringprof; 0 until the worker opens its epoch profile)",
            labels,
            s.cpu_nanos,
        );
        w.histogram(
            "ringsampler_worker_batch_latency_seconds",
            "Wall latency per sampled mini-batch this epoch",
            labels,
            &s.account.batch_latency,
        );
        for stage in Stage::ALL {
            w.counter(
                "ringsampler_worker_stage_nanos_total",
                "In-batch wall nanoseconds spent in each pipeline stage this epoch",
                &[("worker", &idx), ("stage", stage.name())],
                s.account.get(stage),
            );
        }
    }
    for t in traces {
        let idx = t.index.to_string();
        let labels: &[(&str, &str)] = &[("worker", &idx)];
        w.counter(
            "ringsampler_trace_recorded_total",
            "Flight-recorder events recorded by the worker",
            labels,
            t.recorded,
        );
        w.counter(
            "ringsampler_trace_dropped_total",
            "Flight-recorder events dropped on ring overflow",
            labels,
            t.dropped,
        );
    }
    w.finish()
}

/// Renders the `GET /trace` JSON document: the best-effort tail of every
/// registered flight-recorder ring, with wire-stable event-kind names.
/// Pure: same tails ⇒ same text.
pub fn trace_document(tails: &[TraceTail]) -> String {
    let workers: Vec<Json> = tails
        .iter()
        .map(|t| {
            let events: Vec<Json> = t.events.iter().map(trace_event_json).collect();
            Json::object()
                .with("worker", Json::U64(t.index as u64))
                .with("recorded", Json::U64(t.recorded))
                .with("dropped", Json::U64(t.dropped))
                .with("events", Json::Array(events))
        })
        .collect();
    Json::object()
        .with("workers", Json::Array(workers))
        .to_string_pretty()
}

/// One flight-recorder event as JSON, with its wire-stable kind name.
pub(crate) fn trace_event_json(e: &TraceEvent) -> Json {
    Json::object()
        .with("ts_ns", Json::U64(e.ts_ns))
        .with("kind", Json::str(e.kind.name()))
        .with("a", Json::U64(e.a))
        .with("b", Json::U64(e.b))
        .with("c", Json::U64(e.c))
        .with("d", Json::U64(e.d))
}

/// Renders the `GET /progress` JSON document: per-worker rows plus a
/// fleet aggregate, whose `dominant_stage` is the largest stage of the
/// merged accounts. Pure: rates and stall state are passed in.
pub fn progress_document(obs: &[WorkerObservation], stalled: &[usize], rates: &FleetRates) -> String {
    let fraction = |done: u64, of: u64| if of > 0 { done as f64 / of as f64 } else { 0.0 };
    let mut workers = Vec::with_capacity(obs.len());
    let mut totals = SampleMetrics::default();
    let mut account = StageAccount::default();
    let (mut total_batches, mut active) = (0u64, 0u64);
    for o in obs {
        let Some(s) = o.snapshot else { continue };
        let m = &s.metrics;
        totals.merge(m);
        account.merge(&s.account);
        total_batches += s.total_batches;
        active += u64::from(s.active);
        workers.push(
            Json::object()
                .with("worker", Json::U64(o.index as u64))
                .with("epoch", Json::U64(s.epoch))
                .with("active", Json::Bool(s.active))
                .with("stalled", Json::Bool(stalled.contains(&o.index)))
                .with("batches", Json::U64(m.batches))
                .with("total_batches", Json::U64(s.total_batches))
                .with("fraction", Json::F64(fraction(m.batches, s.total_batches)))
                .with("targets", Json::U64(s.seeds))
                .with("sampled_nodes", Json::U64(m.targets))
                .with("sampled_edges", Json::U64(m.sampled_edges))
                .with("bytes_read", Json::U64(m.io_bytes))
                .with("reads_submitted", Json::U64(m.io_requests))
                .with("io_groups", Json::U64(m.io_groups))
                .with("batch_latency_p50_ns", Json::U64(s.account.batch_latency.p50()))
                .with("batch_latency_p99_ns", Json::U64(s.account.batch_latency.p99())),
        );
    }
    let fleet = Json::object()
        .with("workers", Json::U64(obs.len() as u64))
        .with("active", Json::U64(active))
        .with("stalled", Json::U64(stalled.len() as u64))
        .with("batches", Json::U64(totals.batches))
        .with("total_batches", Json::U64(total_batches))
        .with("fraction", Json::F64(fraction(totals.batches, total_batches)))
        .with("sampled_edges", Json::U64(totals.sampled_edges))
        .with("bytes_read", Json::U64(totals.io_bytes))
        .with("edges_per_sec", Json::F64(rates.edges_per_sec))
        .with("batches_per_sec", Json::F64(rates.batches_per_sec))
        .with(
            "eta_seconds",
            rates.eta_seconds.map(Json::F64).unwrap_or(Json::Null),
        )
        .with(
            "lifetime_edges_per_sec",
            Json::F64(rates.lifetime_edges_per_sec),
        )
        .with(
            "lifetime_batches_per_sec",
            Json::F64(rates.lifetime_batches_per_sec),
        );
    Json::object()
        .with("workers", Json::Array(workers))
        .with("fleet", with_dominant(fleet, &account))
        .to_string_pretty()
}

/// Points one worker's series retains: one point per poll tick, oldest
/// dropped first (102 s of history at the default 200 ms tick).
const HISTORY_POINTS: usize = 512;
/// How long an active worker's `batches` count may stand still before the
/// watchdog declares it stalled.
const STALL_THRESHOLD: Duration = Duration::from_secs(10);
/// How far back the windowed fleet rates look. Long enough to smooth
/// per-batch jitter, short enough that `/progress` tracks *current*
/// throughput instead of the lifetime average.
const RATE_WINDOW: Duration = Duration::from_secs(10);
/// Flight-recorder events included in a stall black box per worker.
const STALL_TRACE_TAIL: usize = 32;
/// History points included in a stall black box.
const STALL_HISTORY_POINTS: usize = 16;

/// One worker's history within one epoch.
#[derive(Debug, Default)]
struct Series {
    /// The newest [`HISTORY_POINTS`] observations, oldest first.
    points: VecDeque<HistoryPoint>,
    /// Timeline instant (ms) `batches` last changed, the series began or
    /// the worker was seen inactive: the stall clock, independent of how
    /// many points are retained.
    moved_ms: u64,
    /// Whether the standstill since `moved_ms` has been reported.
    stalled: bool,
}

impl Series {
    /// The most recent `k` points, oldest first.
    fn window(&self, k: usize) -> Vec<HistoryPoint> {
        let skip = self.points.len().saturating_sub(k);
        self.points.iter().skip(skip).copied().collect()
    }

    /// Ends the series: its final counters join `totals`.
    fn end_into(self, totals: &mut SampleMetrics) {
        if let Some(last) = self.points.back() {
            totals.merge(&last.snap.metrics);
        }
    }
}

/// The telemetry thread's state: one history series per worker slot, and
/// every live view computed from them. The thread that ticks the monitor
/// is the only one that reads it, so nothing here is shared.
///
/// Deterministic by construction — instants are passed in, so tests drive
/// the timeline without sleeping.
#[derive(Debug)]
pub struct Monitor {
    /// Origin of the timeline (`t_ms` 0; the uptime gauge's baseline).
    start: Instant,
    /// The latest tick's instant.
    now: Instant,
    /// The latest tick's observations (`/metrics`, `/progress`).
    obs: Vec<WorkerObservation>,
    /// Per-worker series, by slot index.
    series: Vec<Series>,
    /// Counters of the series that have ended (epoch change or slot
    /// removed): the part of the lifetime totals no slot shows any more.
    finished: SampleMetrics,
}

impl Monitor {
    /// An empty monitor whose timeline starts at `start`.
    pub fn new(start: Instant) -> Self {
        Self {
            start,
            now: start,
            obs: Vec::new(),
            series: Vec::new(),
            finished: SampleMetrics::default(),
        }
    }

    fn now_ms(&self) -> u64 {
        self.now.saturating_duration_since(self.start).as_millis() as u64
    }

    /// Appends one point per observed snapshot at `now`. Returns the
    /// workers that stalled at this tick (each standstill is reported
    /// once). A series restarts when its slot's epoch changes; slots that
    /// disappeared end theirs.
    pub fn tick(&mut self, obs: Vec<WorkerObservation>, now: Instant) -> Vec<StallEvent> {
        self.now = now;
        let now_ms = self.now_ms();
        let slots = obs.iter().map(|o| o.index + 1).max().unwrap_or(0);
        let kept = slots.min(self.series.len());
        for ended in self.series.drain(kept..) {
            ended.end_into(&mut self.finished);
        }
        self.series.resize_with(slots, Series::default);
        for o in &obs {
            let (Some(snap), Some(series)) = (o.snapshot, self.series.get_mut(o.index)) else {
                continue;
            };
            if series.points.back().is_some_and(|l| l.snap.epoch != snap.epoch) {
                std::mem::take(series).end_into(&mut self.finished);
            }
            let moved = series
                .points
                .back()
                .is_none_or(|l| l.snap.metrics.batches != snap.metrics.batches);
            if moved || !snap.active {
                series.moved_ms = now_ms;
                series.stalled = false;
            }
            // Drop before pushing, so the deque never outgrows its 512 slots.
            if series.points.len() == HISTORY_POINTS {
                series.points.pop_front();
            }
            series.points.push_back(HistoryPoint { t_ms: now_ms, snap });
        }
        let threshold = STALL_THRESHOLD.as_millis() as u64;
        let mut newly_stalled = Vec::new();
        for (worker, series) in self.series.iter_mut().enumerate() {
            let Some(last) = series.points.back() else { continue };
            let still = now_ms.saturating_sub(series.moved_ms) >= threshold;
            if last.snap.active && still && !series.stalled {
                series.stalled = true;
                newly_stalled.push(StallEvent {
                    worker,
                    snapshot: last.snap,
                });
            }
        }
        self.obs = obs;
        newly_stalled
    }

    /// The most recent `k` points of every worker, in slot-index order.
    fn windows(&self, k: usize) -> Vec<(usize, Vec<HistoryPoint>)> {
        self.series
            .iter()
            .enumerate()
            .map(|(i, s)| (i, s.window(k)))
            .collect()
    }

    /// Indices of the workers currently stalled.
    fn stalled(&self) -> Vec<usize> {
        self.series
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.stalled.then_some(i))
            .collect()
    }

    /// Fleet rates from the series. The windowed figures sum each worker's
    /// rate over the last [`RATE_WINDOW`] of its series, so a series that
    /// restarted at an epoch change contributes its own epoch's rate; the
    /// lifetime figures divide every edge and batch seen — ended series
    /// included — by the time since the timeline began.
    fn rates(&self) -> FleetRates {
        let now_ms = self.now_ms();
        let horizon = now_ms.saturating_sub(RATE_WINDOW.as_millis() as u64);
        let (mut edges, mut done, mut assigned) = (0u64, 0u64, 0u64);
        let (mut edges_per_sec, mut batches_per_sec) = (0.0, 0.0);
        for s in &self.series {
            let Some(last) = s.points.back() else { continue };
            edges += last.snap.metrics.sampled_edges;
            done += last.snap.metrics.batches;
            assigned += last.snap.total_batches;
            if let Some(first) = s.points.iter().find(|p| p.t_ms >= horizon) {
                let r = windowed_rates(&[*first, *last]);
                edges_per_sec += r.edges_per_sec;
                batches_per_sec += r.batches_per_sec;
            }
        }
        let secs = now_ms as f64 / 1000.0;
        let lifetime = |n: u64| if secs > 0.0 { n as f64 / secs } else { 0.0 };
        let eta_seconds = (assigned > done && batches_per_sec > 0.0)
            .then(|| (assigned - done) as f64 / batches_per_sec);
        FleetRates {
            edges_per_sec,
            batches_per_sec,
            eta_seconds,
            lifetime_edges_per_sec: lifetime(self.finished.sampled_edges + edges),
            lifetime_batches_per_sec: lifetime(self.finished.batches + done),
        }
    }

    /// The one-shot black box for a worker [`tick`](Self::tick) just
    /// declared stalled.
    fn black_box(&self, event: &StallEvent, registry: &SnapshotRegistry) -> Json {
        stall_blackbox_document(
            event,
            &registry.observe_traces(STALL_TRACE_TAIL),
            &self.windows(STALL_HISTORY_POINTS),
        )
    }

    /// Serves one request from the monitor's state as of its latest tick
    /// (plus the registry's flight-recorder rings).
    pub fn route(&self, path: &str, registry: &SnapshotRegistry) -> Response {
        match path {
            "/metrics" => {
                let extras = MetricsExtras {
                    uptime_seconds: self.now.saturating_duration_since(self.start).as_secs_f64(),
                    version: env!("CARGO_PKG_VERSION").to_string(),
                };
                let traces = registry.observe_traces(0);
                Response::prometheus(metrics_document(&self.obs, &traces, &extras))
            }
            "/progress" => {
                Response::json(progress_document(&self.obs, &self.stalled(), &self.rates()))
            }
            "/trace" => Response::json(trace_document(&registry.observe_traces(256))),
            "/healthz" => {
                let stalled = self.stalled();
                if stalled.is_empty() {
                    Response::text("ok\n")
                } else {
                    Response::service_unavailable(format!("stalled workers: {stalled:?}\n"))
                }
            }
            _ => Response::not_found(),
        }
    }
}

/// A handle to the running telemetry server.
#[derive(Debug, Clone)]
pub struct TelemetryHandle {
    registry: Arc<SnapshotRegistry>,
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
}

impl TelemetryHandle {
    /// The slot registry workers publish into.
    pub fn registry(&self) -> &Arc<SnapshotRegistry> {
        &self.registry
    }

    /// The bound address (real port even when configured with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Asks the telemetry thread to exit after its current tick.
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::Release);
    }
}

/// Binds the telemetry server on `cfg.addr`, announces the address on
/// stderr (`ringscope listening on http://…`), and spawns the `ringscope`
/// thread: each tick it observes every slot, ticks its [`Monitor`],
/// prints the black box of any worker that just stalled, and serves
/// pending requests from the monitor.
///
/// # Errors
/// [`SamplerError::Io`] when the bind fails.
pub fn spawn_server(cfg: &TelemetryConfig, registry: Arc<SnapshotRegistry>) -> Result<TelemetryHandle> {
    cfg.validate()?;
    let server = HttpServer::bind(&cfg.addr).map_err(|e| SamplerError::Io(IoEngineError::File(e)))?;
    let addr = server
        .local_addr()
        .map_err(|e| SamplerError::Io(IoEngineError::File(e)))?;
    eprintln!("ringscope listening on http://{addr}");
    let handle = TelemetryHandle {
        registry: Arc::clone(&registry),
        addr,
        shutdown: Arc::new(AtomicBool::new(false)),
    };
    let shutdown = Arc::clone(&handle.shutdown);
    let poll_interval = cfg.poll_interval;
    let builder = std::thread::Builder::new().name("ringscope".into());
    let spawned = builder.spawn(move || {
        let mut monitor = Monitor::new(Instant::now());
        while !shutdown.load(Ordering::Acquire) {
            for event in monitor.tick(registry.observe(), Instant::now()) {
                eprintln!("{}", monitor.black_box(&event, &registry).to_string_compact());
            }
            server.poll(8, |req| monitor.route(&req.path, &registry));
            std::thread::sleep(poll_interval);
        }
    });
    spawned.map_err(|e| SamplerError::Io(IoEngineError::File(e)))?;
    Ok(handle)
}

/// Builds the one-shot `ringscope_stall` black-box document: the
/// worker's last-known snapshot, the tail of its flight-recorder ring
/// (what the worker was *doing* when it wedged) and its recent history
/// points (how it got there). Pure: same inputs ⇒ same document; the
/// server emits it compactly to stderr.
pub fn stall_blackbox_document(
    event: &StallEvent,
    tails: &[TraceTail],
    windows: &[(usize, Vec<HistoryPoint>)],
) -> Json {
    let s = &event.snapshot;
    let doc = Json::object()
        .with("event", Json::str("ringscope_stall"))
        .with("worker", Json::U64(event.worker as u64))
        .with("epoch", Json::U64(s.epoch))
        .with("batches", Json::U64(s.metrics.batches))
        .with("io_groups", Json::U64(s.metrics.io_groups))
        .with("reads_submitted", Json::U64(s.metrics.io_requests))
        .with("cpu_nanos", Json::U64(s.cpu_nanos));
    let trace = tails
        .iter()
        .find(|t| t.index == event.worker)
        .map(|t| {
            let events: Vec<Json> = t.events.iter().map(trace_event_json).collect();
            Json::object()
                .with("recorded", Json::U64(t.recorded))
                .with("dropped", Json::U64(t.dropped))
                .with("events", Json::Array(events))
        })
        .unwrap_or(Json::Null);
    let history = windows
        .iter()
        .find(|(w, _)| *w == event.worker)
        .map(|(_, pts)| {
            let points: Vec<Json> = pts
                .iter()
                .map(|p| {
                    Json::object()
                        .with("t_ms", Json::U64(p.t_ms))
                        .with("batches", Json::U64(p.snap.metrics.batches))
                        .with("cpu_nanos", Json::U64(p.snap.cpu_nanos))
                })
                .collect();
            Json::Array(points)
        })
        .unwrap_or(Json::Null);
    doc.with("trace", trace).with("history", history)
}

/// The process-global telemetry server: bench binaries construct many
/// sequential `RingSampler` instances, which must share one listener
/// instead of binding a fresh port per sampler. First successful call
/// binds; subsequent calls (any config) return the same handle.
static GLOBAL_SERVER: OnceLock<std::result::Result<TelemetryHandle, String>> = OnceLock::new();

/// Returns the shared process-wide telemetry server, binding it on first
/// use with `cfg`.
///
/// # Errors
/// The first bind failure is sticky: every later call reports it too.
pub fn ensure_server(cfg: &TelemetryConfig) -> Result<TelemetryHandle> {
    let entry = GLOBAL_SERVER.get_or_init(|| {
        let registry = Arc::new(SnapshotRegistry::new());
        spawn_server(cfg, registry).map_err(|e| e.to_string())
    });
    match entry {
        Ok(handle) => Ok(handle.clone()),
        Err(msg) => Err(SamplerError::InvalidConfig(format!(
            "telemetry server failed to start: {msg}"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ringstat::Stage;
    use std::io::{Read as _, Write as _};
    use std::net::TcpStream;

    fn snap(batches: u64, total: u64, active: bool) -> WorkerSnapshot {
        let mut s = WorkerSnapshot {
            epoch: 1,
            total_batches: total,
            active,
            ..Default::default()
        };
        s.metrics.batches = batches;
        s.metrics.sampled_edges = batches * 100;
        s.metrics.io_bytes = batches * 4096;
        s.metrics.io_requests = batches * 64;
        s.metrics.io_groups = batches * 2;
        s
    }

    fn obs_of(snaps: &[WorkerSnapshot]) -> Vec<WorkerObservation> {
        snaps
            .iter()
            .enumerate()
            .map(|(index, &s)| WorkerObservation {
                index,
                snapshot: Some(s),
            })
            .collect()
    }

    #[test]
    fn registry_reset_and_register() {
        let reg = SnapshotRegistry::new();
        assert!(reg.observe().is_empty());
        reg.reset_epoch(3);
        assert_eq!(reg.observe().len(), 3);
        let extra = reg.install(None, Arc::new(EventRing::new(4)));
        extra.publish(snap(5, 10, true));
        let obs = reg.observe();
        assert_eq!(obs.len(), 4);
        assert_eq!(obs[3].snapshot.unwrap().metrics.batches, 5);
        reg.reset_epoch(1);
        assert_eq!(reg.observe().len(), 1);
        assert_eq!(reg.next_epoch(), 1);
        assert_eq!(reg.next_epoch(), 2);
    }

    /// Ticks `monitor` at `ms` past `t0` with one observation per
    /// snapshot, returning the workers that stalled at that tick.
    fn tick_at(monitor: &mut Monitor, t0: Instant, ms: u64, snaps: &[WorkerSnapshot]) -> Vec<usize> {
        let now = t0 + Duration::from_millis(ms);
        monitor.tick(obs_of(snaps), now).iter().map(|e| e.worker).collect()
    }

    #[test]
    fn watchdog_fires_after_threshold_and_recovers() {
        let reg = SnapshotRegistry::new();
        let t0 = Instant::now();
        let mut m = Monitor::new(t0);
        let both = [snap(1, 10, true), snap(1, 10, true)];
        let healthz = |m: &Monitor| m.route("/healthz", &reg).status();

        assert!(tick_at(&mut m, t0, 0, &both).is_empty(), "first sight never stalls");
        // No new batch, but within the threshold: not stalled yet.
        assert!(tick_at(&mut m, t0, 9_800, &both).is_empty());
        assert_eq!(healthz(&m), 200);

        // STALL_THRESHOLD without a new batch: both fire, exactly once.
        let stalled = m.tick(obs_of(&both), t0 + STALL_THRESHOLD);
        assert_eq!(stalled.iter().map(|e| e.worker).collect::<Vec<_>>(), vec![0, 1]);
        assert_eq!(stalled[0].snapshot.metrics.io_groups, 2, "the black box carries the last state");
        assert_eq!(healthz(&m), 503);
        assert_eq!(m.route("/healthz", &reg).body(), "stalled workers: [0, 1]\n");
        assert!(tick_at(&mut m, t0, 30_000, &both).is_empty(), "stall warnings are one-shot");
        assert_eq!(m.stalled(), vec![0, 1]);
        let box0 = m.black_box(&stalled[0], &reg).to_string_compact();
        assert!(box0.contains("\"event\":\"ringscope_stall\""), "{box0}");

        // Worker 0 completes a batch: it recovers; worker 1 stays stalled.
        let advanced = [snap(2, 10, true), snap(1, 10, true)];
        assert!(tick_at(&mut m, t0, 30_200, &advanced).is_empty());
        assert_eq!(m.stalled(), vec![1]);
        assert_eq!(healthz(&m), 503);

        // Worker 1's next batch: healthy again, and a fresh standstill is
        // reported afresh.
        let recovered = [snap(2, 10, true), snap(2, 10, true)];
        assert!(tick_at(&mut m, t0, 30_400, &recovered).is_empty());
        assert_eq!(healthz(&m), 200);
        assert_eq!(tick_at(&mut m, t0, 40_400, &recovered), vec![0, 1]);
    }

    #[test]
    fn inactive_workers_never_stall() {
        let reg = SnapshotRegistry::new();
        let t0 = Instant::now();
        let mut m = Monitor::new(t0);
        let finished = [snap(4, 4, false)];
        tick_at(&mut m, t0, 0, &finished);
        assert!(tick_at(&mut m, t0, 60_000, &finished).is_empty());
        assert!(m.stalled().is_empty());
        assert_eq!(m.route("/healthz", &reg).status(), 200);
    }

    /// A synthetic history window: `n` points 100 ms apart, shaped by a
    /// per-point closure over the point's index.
    fn hist_pts(n: u64, shape: impl Fn(u64, &mut WorkerSnapshot)) -> Vec<HistoryPoint> {
        (0..n)
            .map(|i| {
                let mut s = WorkerSnapshot {
                    active: true,
                    ..Default::default()
                };
                shape(i, &mut s);
                HistoryPoint { t_ms: i * 100, snap: s }
            })
            .collect()
    }

    #[test]
    fn monitor_series_keep_the_newest_points_and_restart_per_epoch() {
        let t0 = Instant::now();
        let mut m = Monitor::new(t0);
        for i in 0..HISTORY_POINTS as u64 + 6 {
            tick_at(&mut m, t0, i * 100, &[snap(i, 8, true), snap(i * 2, 8, true)]);
        }
        let windows = m.windows(8);
        assert_eq!(windows.len(), 2);
        assert_eq!(windows[1].1.len(), 8);
        assert_eq!(windows[1].1[7].snap.metrics.batches, 2 * (HISTORY_POINTS as u64 + 5));
        // Drop-oldest: the newest HISTORY_POINTS points survive.
        let all = m.windows(usize::MAX);
        assert_eq!(all[0].1.len(), HISTORY_POINTS);
        assert_eq!(all[0].1[0].t_ms, 600);
        // A new epoch restarts the worker's series; a vanished slot ends its.
        let mut next = snap(1, 8, true);
        next.epoch = 2;
        tick_at(&mut m, t0, 60_000, &[next]);
        let windows = m.windows(8);
        assert_eq!(windows.len(), 1);
        assert_eq!(windows[0].1.len(), 1);
        assert_eq!(windows[0].1[0].t_ms, 60_000);
    }

    #[test]
    fn compute_rates_windowed_vs_lifetime() {
        // 5 fast seconds (1000 edges/s), then 10 slow seconds (10/s).
        let t0 = Instant::now();
        let mut m = Monitor::new(t0);
        let mut edges = 0u64;
        let mut batches = 0u64;
        for tick in 0..=15u64 {
            if tick > 0 {
                let fast = tick <= 5;
                edges += if fast { 1000 } else { 10 };
                batches += if fast { 10 } else { 1 };
            }
            let mut s = WorkerSnapshot::default();
            s.metrics.batches = batches;
            s.total_batches = 1000;
            s.metrics.sampled_edges = edges;
            s.active = true;
            tick_at(&mut m, t0, tick * 1000, &[s]);
        }
        let last = m.rates();
        // Lifetime average is dominated by the fast warmup…
        assert!((last.lifetime_edges_per_sec - 340.0).abs() < 1e-6, "{last:?}");
        // …while the windowed rate reflects the current (slow) phase.
        assert!((last.edges_per_sec - 10.0).abs() < 1e-6, "{last:?}");
        assert!((last.batches_per_sec - 1.0).abs() < 1e-6, "{last:?}");
        // The ETA uses the windowed rate: honest about the slowdown.
        let eta = last.eta_seconds.expect("eta");
        assert!((eta - (1000.0 - 60.0) / 1.0).abs() < 1e-6, "{eta}");
    }

    /// After an epoch reset the slot counters restart at zero. A rate taken
    /// as "fleet total now minus fleet total 10 s ago" then subtracts the
    /// previous epoch's totals and reads 0 edges/s and no ETA until a whole
    /// window has passed; per-series rates do not.
    #[test]
    fn progress_rates_survive_an_epoch_reset() {
        let reg = SnapshotRegistry::new();
        let t0 = Instant::now();
        let mut m = Monitor::new(t0);
        let at = |epoch: u64, k: u64| {
            let mut s = WorkerSnapshot {
                epoch,
                total_batches: 61,
                active: true,
                ..Default::default()
            };
            s.metrics.batches = k;
            s.metrics.sampled_edges = 100 * k;
            s
        };
        // Epoch 1: 61 ticks 200 ms apart, 100 edges and one batch each —
        // longer than the 10 s rate window. Epoch 2: three more ticks.
        let ticks = (1..=61).map(|k| at(1, k)).chain((1..=3).map(|k| at(2, k)));
        for (i, s) in ticks.enumerate() {
            tick_at(&mut m, t0, i as u64 * 200, &[s]);
        }
        let rates = m.rates();
        assert!((rates.edges_per_sec - 500.0).abs() < 1e-6, "{rates:?}");
        assert!((rates.batches_per_sec - 5.0).abs() < 1e-6, "{rates:?}");
        assert!((rates.eta_seconds.expect("eta") - 58.0 / 5.0).abs() < 1e-6, "{rates:?}");
        // Lifetime: 6100 + 300 edges over 12.6 s.
        assert!((rates.lifetime_edges_per_sec - 6400.0 / 12.6).abs() < 1e-6, "{rates:?}");
        let doc = m.route("/progress", &reg);
        assert!(doc.body().contains("\"edges_per_sec\": 500.0"), "{}", doc.body());
    }

    fn extras() -> MetricsExtras {
        MetricsExtras {
            uptime_seconds: 12.5,
            version: "0.1.0".into(),
        }
    }

    #[test]
    fn metrics_document_has_acceptance_families() {
        let doc = metrics_document(&obs_of(&[snap(3, 8, true), snap(2, 8, true)]), &[], &extras());
        assert!(doc.contains("# TYPE ringsampler_worker_sampled_edges_total counter"));
        assert!(doc.contains(r#"ringsampler_worker_sampled_edges_total{worker="0"} 300"#));
        assert!(doc.contains(r#"ringsampler_worker_sampled_edges_total{worker="1"} 200"#));
        assert!(doc.contains("# TYPE ringsampler_worker_active gauge"));
        assert!(doc.contains(r#"ringsampler_worker_active{worker="0"} 1"#));
        assert!(doc.contains("ringsampler_workers 2"));
        // HELP/TYPE emitted once per family despite two workers.
        assert_eq!(doc.matches("# HELP ringsampler_worker_batches_total").count(), 1);
    }

    fn trace_ev(ts: u64, kind: ringstat::EventKind, a: u64) -> TraceEvent {
        TraceEvent {
            ts_ns: ts,
            kind,
            a,
            b: 0,
            c: 0,
            d: 0,
        }
    }

    #[test]
    fn metrics_document_carries_trace_counters() {
        let tails = [
            TraceTail {
                index: 0,
                recorded: 42,
                dropped: 0,
                events: Vec::new(),
            },
            TraceTail {
                index: 1,
                recorded: 9,
                dropped: 3,
                events: Vec::new(),
            },
        ];
        let doc = metrics_document(&obs_of(&[snap(1, 4, true)]), &tails, &extras());
        assert!(doc.contains(r#"ringsampler_trace_recorded_total{worker="0"} 42"#), "{doc}");
        assert!(doc.contains(r#"ringsampler_trace_dropped_total{worker="1"} 3"#), "{doc}");
    }

    #[test]
    fn metrics_document_carries_uptime_and_build_info() {
        let doc = metrics_document(&obs_of(&[snap(1, 4, true)]), &[], &extras());
        assert!(doc.contains("ringsampler_uptime_seconds 12.5"), "{doc}");
        assert!(
            doc.contains(r#"ringsampler_build_info{version="0.1.0"} 1"#),
            "{doc}"
        );
    }

    #[test]
    fn registry_slots_keep_cell_and_ring_together() {
        use ringstat::EventKind;
        let reg = SnapshotRegistry::new();
        assert!(reg.observe_traces(8).is_empty());
        let r1 = Arc::new(EventRing::new(8));
        let r0 = Arc::new(EventRing::new(8));
        // Installed out of order: each ring is listed under its slot.
        reg.install(Some(1), Arc::clone(&r1));
        reg.install(Some(0), Arc::clone(&r0));
        r0.record(trace_ev(5, EventKind::BatchStart, 0));
        r0.record(trace_ev(9, EventKind::BatchEnd, 0));
        let tails = reg.observe_traces(8);
        assert_eq!(tails.len(), 2);
        assert_eq!(tails[0].index, 0);
        assert_eq!(tails[0].recorded, 2);
        assert_eq!(tails[0].events.len(), 2);
        assert_eq!(tails[1].index, 1);
        assert!(tails[1].events.is_empty());
        // A slot past the end: the gap it leaves holds no ring, and the
        // ring is listed under its own slot, not under the next free one.
        reg.install(Some(3), Arc::new(EventRing::new(4)));
        assert_eq!(reg.observe().len(), 4);
        let indices: Vec<usize> = reg.observe_traces(0).iter().map(|t| t.index).collect();
        assert_eq!(indices, [0, 1, 3]);
        // Epoch reset forgets every slot's ring.
        reg.reset_epoch(2);
        assert!(reg.observe_traces(8).is_empty());
        assert_eq!(reg.observe().len(), 2);
    }

    #[test]
    fn trace_document_renders_tails() {
        use ringstat::EventKind;
        let tails = [TraceTail {
            index: 0,
            recorded: 3,
            dropped: 1,
            events: vec![
                trace_ev(100, EventKind::GroupSubmit, 7),
                trace_ev(250, EventKind::GroupComplete, 7),
            ],
        }];
        let doc = trace_document(&tails);
        assert!(doc.contains("\"worker\": 0"), "{doc}");
        assert!(doc.contains("\"recorded\": 3"), "{doc}");
        assert!(doc.contains("\"dropped\": 1"), "{doc}");
        assert!(doc.contains("\"kind\": \"group_submit\""), "{doc}");
        assert!(doc.contains("\"kind\": \"group_complete\""), "{doc}");
        assert!(doc.contains("\"ts_ns\": 250"), "{doc}");
        // The document parses back as JSON.
        let parsed = Json::parse(&doc).expect("trace document parses");
        let workers = parsed.get("workers").and_then(Json::as_array).unwrap();
        assert_eq!(workers.len(), 1);
    }

    #[test]
    fn progress_document_aggregates_fleet() {
        let rates = FleetRates {
            edges_per_sec: 500.0,
            batches_per_sec: 5.0,
            eta_seconds: Some(2.2),
            lifetime_edges_per_sec: 750.0,
            lifetime_batches_per_sec: 7.5,
        };
        // Worker 0 mostly waits, worker 1 mostly samples: the fleet row
        // names the largest stage of the merged accounts.
        let (mut a, mut b) = (snap(3, 8, true), snap(5, 8, true));
        a.account.add(Stage::Wait, 600);
        a.account.add(Stage::Sample, 100);
        b.account.add(Stage::Sample, 300);
        let doc = progress_document(&obs_of(&[a, b]), &[1], &rates);
        assert!(doc.contains("\"dominant_stage\": \"wait\""), "{doc}");
        assert!(doc.contains("\"dominant_share\": 0.6"), "{doc}");
        assert!(doc.contains("\"batches\": 8"), "{doc}");
        assert!(doc.contains("\"total_batches\": 16"));
        assert!(doc.contains("\"fraction\": 0.5"));
        assert!(doc.contains("\"edges_per_sec\": 500.0"));
        assert!(doc.contains("\"eta_seconds\": 2.2"));
        assert!(doc.contains("\"lifetime_edges_per_sec\": 750.0"));
        assert!(doc.contains("\"lifetime_batches_per_sec\": 7.5"));
        assert!(doc.contains("\"stalled\": true"));
        assert!(doc.contains("\"stalled\": 1"));
    }

    #[test]
    fn stall_blackbox_carries_trace_and_history() {
        use ringstat::EventKind;
        let mut s = snap(3, 8, true);
        s.cpu_nanos = 42_000_000;
        let event = StallEvent {
            worker: 1,
            snapshot: s,
        };
        let tails = [
            TraceTail {
                index: 0,
                recorded: 7,
                dropped: 0,
                events: vec![trace_ev(10, EventKind::BatchStart, 0)],
            },
            TraceTail {
                index: 1,
                recorded: 9,
                dropped: 2,
                events: vec![
                    trace_ev(100, EventKind::GroupSubmit, 4),
                    trace_ev(250, EventKind::GroupComplete, 4),
                ],
            },
        ];
        let windows = vec![(0, hist_pts(2, |_, _| {})), (1, hist_pts(3, |i, s| {
            s.metrics.batches = i;
            s.cpu_nanos = i * 1_000_000;
        }))];
        let doc = stall_blackbox_document(&event, &tails, &windows).to_string_compact();
        assert!(doc.contains("\"event\":\"ringscope_stall\""), "{doc}");
        assert!(doc.contains("\"worker\":1"), "{doc}");
        assert!(doc.contains("\"cpu_nanos\":42000000"), "{doc}");
        // The black box carries worker 1's trace tail, not worker 0's.
        assert!(doc.contains("\"group_submit\""), "{doc}");
        assert!(doc.contains("\"dropped\":2"), "{doc}");
        assert!(!doc.contains("\"batch_start\""), "{doc}");
        // History points travel too.
        assert!(doc.contains("\"t_ms\":200"), "{doc}");
        assert!(Json::parse(&doc).is_ok(), "{doc}");
        // Without trace/history for the worker, the sections are null.
        let bare = stall_blackbox_document(&event, &[], &[]).to_string_compact();
        assert!(bare.contains("\"trace\":null"), "{bare}");
        assert!(bare.contains("\"history\":null"), "{bare}");
    }

    fn http_get(addr: SocketAddr, path: &str) -> (u16, String) {
        for _ in 0..50 {
            if let Ok(mut stream) = TcpStream::connect(addr) {
                stream
                    .write_all(format!("GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").as_bytes())
                    .unwrap();
                let mut out = String::new();
                stream.read_to_string(&mut out).unwrap();
                if let Some(code) = out.split_whitespace().nth(1).and_then(|s| s.parse().ok()) {
                    let body = out
                        .split_once("\r\n\r\n")
                        .map(|(_, b)| b.to_string())
                        .unwrap_or_default();
                    return (code, body);
                }
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        panic!("no HTTP response from {addr}{path}");
    }

    /// The live plumbing: the `ringscope` thread binds, ticks and serves
    /// every route over a real socket. What the routes compute is pinned
    /// by the `Monitor` tests above and the goldens.
    #[test]
    fn server_serves_endpoints() {
        let cfg = TelemetryConfig::new("127.0.0.1:0").poll_interval(Duration::from_millis(10));
        let registry = Arc::new(SnapshotRegistry::new());
        let handle = spawn_server(&cfg, Arc::clone(&registry)).expect("spawn server");

        let ring = Arc::new(EventRing::new(16));
        let cell = registry.install(None, Arc::clone(&ring));
        cell.publish(snap(1, 4, true));

        let (code, body) = http_get(handle.addr(), "/metrics");
        assert_eq!(code, 200);
        assert!(body.contains("ringsampler_up 1"), "{body}");
        let (code, body) = http_get(handle.addr(), "/progress");
        assert_eq!(code, 200);
        assert!(body.contains("\"fleet\""));
        // The /trace tail serves installed flight-recorder rings live.
        ring.record(TraceEvent {
            ts_ns: 1,
            kind: ringstat::EventKind::BatchStart,
            a: 0,
            b: 8,
            c: 0,
            d: 0,
        });
        let (code, body) = http_get(handle.addr(), "/trace");
        assert_eq!(code, 200);
        assert!(body.contains("\"batch_start\""), "{body}");
        assert!(body.contains("\"recorded\": 1"), "{body}");
        let (code, body) = http_get(handle.addr(), "/healthz");
        assert_eq!((code, body.as_str()), (200, "ok\n"));
        let (code, _) = http_get(handle.addr(), "/nope");
        assert_eq!(code, 404);
        handle.shutdown();
    }
}
