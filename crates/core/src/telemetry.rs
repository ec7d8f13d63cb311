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
//!   [`Monitor`], which appends them to one plain series per worker. Every
//!   live view is a fold over those series: `GET /history` (windowed
//!   rates, EWMA trends, slope estimators), `GET /congestion` (per-worker
//!   verdicts — `ok`, `queue_saturated`, `cq_wait_rising`, `stalled`,
//!   `straggler` — with the evidence window behind them, DESIGN.md §14),
//!   `GET /progress` (fleet throughput and ETA) and `GET /healthz`. The
//!   stall watchdog is a fact about a series too: an active worker whose
//!   `batches` count has not moved for 10 s is reported once with its
//!   last-known state, recent history and flight-recorder tail, and flips
//!   `/healthz` to `503` — turning silent io_uring wedges into diagnosable
//!   events. `GET /metrics` (Prometheus text) and
//!   `GET /trace` (the live tail of each flight-recorder ring, read with
//!   the non-destructive [`EventRing::recent`]) complete the set.
//!   Congestion episodes — contiguous runs of a non-`ok` verdict — are
//!   tracked with their time bounds and folded into the post-mortem
//!   [`crate::metrics::EpochReport`]. Thresholds are the constants next
//!   to [`CongestionDetector`].
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
use ringstat::history::{
    batch_p99_series, batch_p99_slope, cpu_share, cpu_share_series, cq_wait_share_series,
    cq_wait_share_slope, ewma, interval_series, io_busy_share, mean_inflight, windowed_rates,
};
use ringstat::{
    EventRing, HistoryPoint, HttpServer, Json, PromWriter, Response, SnapshotCell, TraceEvent,
    WorkerSnapshot,
};

use crate::error::{Result, SamplerError};

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

/// The shared collection of worker seqlock slots the telemetry thread
/// reads. Registration is cold-path (epoch setup / loader construction);
/// workers never touch the registry after receiving their slot.
#[derive(Debug, Default)]
pub struct SnapshotRegistry {
    slots: Mutex<Vec<Arc<SnapshotCell<WorkerSnapshot>>>>,
    epochs: Mutex<u64>,
    /// Flight-recorder rings keyed by worker index, for the live
    /// `GET /trace` tail. Registered at epoch setup (cold path); the
    /// telemetry thread reads them with the best-effort, torn-slot-
    /// skipping [`EventRing::recent`] — never the destructive drain.
    rings: Mutex<Vec<(usize, Arc<EventRing>)>>,
    /// Congestion episode tracking (verdict transitions with their time
    /// bounds), updated by the telemetry thread, drained at epoch join.
    congestion: Mutex<CongestionLog>,
    /// The last completed epoch's rendered ringprof document, published
    /// by the engine at epoch join and served verbatim by
    /// `GET /resources`. Deliberately *not* cleared on epoch reset: the
    /// previous epoch's attribution stays queryable while the next one
    /// runs.
    resources: Mutex<Option<String>>,
}

impl SnapshotRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one fresh slot (standalone workers, e.g. a training
    /// `DataLoader`). The slot stays listed after the worker finishes,
    /// with `active = false`.
    pub fn register(&self) -> Arc<SnapshotCell<WorkerSnapshot>> {
        let cell = Arc::new(SnapshotCell::new(WorkerSnapshot::new()));
        if let Ok(mut slots) = self.slots.lock() {
            slots.push(Arc::clone(&cell));
        }
        cell
    }

    /// Replaces all slots with `n` fresh ones for a new epoch and
    /// returns them (one per worker thread, in index order). Flight-
    /// recorder rings and open congestion episodes from the previous
    /// epoch are dropped too — the new epoch's workers re-register theirs
    /// (cumulative episode counters survive, so `/metrics` counters stay
    /// monotonic). History needs no reset: the [`Monitor`] restarts a
    /// worker's series when it sees the slot's epoch change.
    pub fn reset_epoch(&self, n: usize) -> Vec<Arc<SnapshotCell<WorkerSnapshot>>> {
        let cells: Vec<_> = (0..n)
            .map(|_| Arc::new(SnapshotCell::new(WorkerSnapshot::new())))
            .collect();
        if let Ok(mut slots) = self.slots.lock() {
            *slots = cells.clone();
        }
        if let Ok(mut rings) = self.rings.lock() {
            rings.clear();
        }
        if let Ok(mut log) = self.congestion.lock() {
            log.reset();
        }
        cells
    }

    /// Feeds one tick's verdicts into the episode tracker: a worker
    /// whose state changed closes its open episode (if any) at `now_ms`
    /// and opens a new one when the new state is not `ok`. Telemetry
    /// thread only.
    pub fn update_congestion(&self, verdicts: &[CongestionVerdict], now_ms: u64) {
        if let Ok(mut log) = self.congestion.lock() {
            log.update(verdicts, now_ms);
        }
    }

    /// Every worker's current congestion state, in slot-index order.
    pub fn congestion_states(&self) -> Vec<(usize, CongestionState)> {
        match self.congestion.lock() {
            Ok(log) => log.states(),
            Err(_) => Vec::new(),
        }
    }

    /// Cumulative count of congestion episodes *started* per worker
    /// (monotonic across epochs — the `/metrics` counter).
    pub fn episode_counts(&self) -> Vec<(usize, u64)> {
        match self.congestion.lock() {
            Ok(log) => log.counts(),
            Err(_) => Vec::new(),
        }
    }

    /// Closes every open episode at the last observed instant and
    /// returns all episodes recorded since the previous drain (epoch
    /// join path — the result lands in `EpochReport::congestion`).
    pub fn drain_episodes(&self) -> Vec<CongestionEpisode> {
        match self.congestion.lock() {
            Ok(mut log) => log.drain(),
            Err(_) => Vec::new(),
        }
    }

    /// Publishes the rendered ringprof document for `GET /resources`
    /// (epoch-join path; the engine renders it from the final
    /// [`crate::metrics::EpochReport`]).
    pub fn publish_resources(&self, doc: String) {
        if let Ok(mut res) = self.resources.lock() {
            *res = Some(doc);
        }
    }

    /// The document `GET /resources` serves: the last published ringprof
    /// attribution, or an explicit `"resources": null` placeholder
    /// before the first epoch joins (or with profiling off).
    pub fn resources_document(&self) -> String {
        if let Ok(res) = self.resources.lock() {
            if let Some(doc) = res.as_ref() {
                return doc.clone();
            }
        }
        Json::object()
            .with("epoch", Json::U64(0))
            .with("resources", Json::Null)
            .to_string_pretty()
    }

    /// Registers worker `worker`'s flight-recorder ring for the live
    /// `/trace` tail. Cold path (epoch setup / loader construction).
    pub fn register_ring(&self, worker: usize, ring: Arc<EventRing>) {
        if let Ok(mut rings) = self.rings.lock() {
            rings.push((worker, ring));
            rings.sort_by_key(|(w, _)| *w);
        }
    }

    /// Registers a standalone worker's ring (DataLoader path), assigning
    /// the next free index. Returns the assigned index.
    pub fn append_ring(&self, ring: Arc<EventRing>) -> usize {
        if let Ok(mut rings) = self.rings.lock() {
            let idx = rings.iter().map(|(w, _)| w + 1).max().unwrap_or(0);
            rings.push((idx, ring));
            idx
        } else {
            0
        }
    }

    /// Reads the tail of every registered flight-recorder ring: up to `k`
    /// most-recent events per worker (best effort — slots being written
    /// concurrently are skipped) plus the recorded/dropped cursors.
    pub fn observe_traces(&self, k: usize) -> Vec<TraceTail> {
        let rings = match self.rings.lock() {
            Ok(r) => r.clone(),
            Err(_) => return Vec::new(),
        };
        rings
            .iter()
            .map(|(worker, ring)| TraceTail {
                index: *worker,
                recorded: ring.head(),
                dropped: ring.dropped(),
                events: ring.recent(k),
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
        let slots = match self.slots.lock() {
            Ok(s) => s.clone(),
            Err(_) => return Vec::new(),
        };
        slots
            .iter()
            .enumerate()
            .map(|(index, cell)| WorkerObservation {
                index,
                snapshot: cell.read(),
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

/// A worker's congestion verdict (DESIGN.md §14). Exactly one state per
/// worker per tick; the detectors are checked in severity order
/// (`stalled` > `cpu_saturated` > `queue_saturated` > `cq_wait_rising`
/// > `straggler`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CongestionState {
    /// No detector fired (also the verdict for inactive workers and
    /// windows too thin to judge).
    Ok,
    /// The queue is pinned *and* the worker's windowed CPU share sits at
    /// or above the CPU floor: the backlog is caused by the thread
    /// itself being compute-bound, not by slow storage. Throwing more
    /// ring depth at this worker cannot help; fanout or plan cost can.
    CpuSaturated,
    /// Mean in-flight read depth pinned at/above the queue threshold
    /// while the worker still has CPU headroom: the drive (or the ring)
    /// can no longer absorb bursts.
    QueueSaturated,
    /// The share of I/O time spent blocked on the completion queue is
    /// both high and rising — the paper's congestion-collapse signature.
    CqWaitRising,
    /// The stall watchdog fired: the worker's snapshot stopped advancing
    /// entirely.
    Stalled,
    /// The worker's windowed batch rate fell far below the fleet median.
    Straggler,
}

impl CongestionState {
    /// Stable wire name used in `/congestion`, `/metrics` labels, and
    /// `EpochReport` JSON.
    pub fn name(self) -> &'static str {
        match self {
            CongestionState::Ok => "ok",
            CongestionState::CpuSaturated => "cpu_saturated",
            CongestionState::QueueSaturated => "queue_saturated",
            CongestionState::CqWaitRising => "cq_wait_rising",
            CongestionState::Stalled => "stalled",
            CongestionState::Straggler => "straggler",
        }
    }

    /// Every non-`ok` state, in severity order — the stable label set
    /// for zero-initialized counters.
    pub const NON_OK: [CongestionState; 5] = [
        CongestionState::Stalled,
        CongestionState::CpuSaturated,
        CongestionState::QueueSaturated,
        CongestionState::CqWaitRising,
        CongestionState::Straggler,
    ];
}

/// The evidence window behind one congestion verdict: every quantity a
/// detector compared against its threshold, so a verdict is auditable
/// from the `/congestion` document alone.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CongestionEvidence {
    /// Timeline instant of the oldest point in the window (ms).
    pub window_start_ms: u64,
    /// Timeline instant of the newest point in the window (ms).
    pub window_end_ms: u64,
    /// Points in the window.
    pub points: u64,
    /// Mean in-flight read depth across the window.
    pub mean_inflight: f64,
    /// CQ-wait share of the most recent interval (0 when no I/O ran).
    pub cq_wait_share: f64,
    /// Least-squares slope of the CQ-wait share, per second.
    pub cq_wait_share_slope: f64,
    /// Fraction of the window's wall time the worker spent in I/O —
    /// the significance gate for the CQ-wait figures.
    pub io_busy_share: f64,
    /// The worker's windowed on-CPU share (thread CPU time over wall),
    /// from the ringprof column of the history points. 0 when resource
    /// profiling is off.
    pub cpu_share: f64,
    /// This worker's windowed batch completion rate.
    pub batches_per_sec: f64,
    /// The fleet median windowed batch rate (active workers with enough
    /// points; 0 when fewer than two participate).
    pub fleet_median_batches_per_sec: f64,
    /// Least-squares slope of the per-interval batch p99, ns per second.
    pub batch_p99_slope_ns_per_sec: f64,
}

/// One worker's verdict for one tick.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CongestionVerdict {
    /// Slot index.
    pub worker: usize,
    /// The verdict.
    pub state: CongestionState,
    /// The window that produced it.
    pub evidence: CongestionEvidence,
}

/// A contiguous run of one non-`ok` verdict on one worker, with its
/// time bounds on the telemetry timeline (ms since server start).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CongestionEpisode {
    /// Slot index.
    pub worker: usize,
    /// The non-`ok` state held throughout the episode.
    pub state: CongestionState,
    /// Timeline instant the verdict first appeared.
    pub start_ms: u64,
    /// Timeline instant the verdict ended (last tick it was observed,
    /// for episodes still open at drain time).
    pub end_ms: u64,
}

/// Episode bookkeeping behind [`SnapshotRegistry`]: current state, open
/// episode, and cumulative started-count per worker.
#[derive(Debug, Default)]
struct CongestionLog {
    /// Per-worker current state (grown on demand).
    states: Vec<CongestionState>,
    /// Per-worker open episode: `(state, start_ms)`.
    open: Vec<Option<(CongestionState, u64)>>,
    /// Per-worker cumulative episodes started (survives epoch resets).
    counts: Vec<u64>,
    /// Episodes closed since the last drain.
    closed: Vec<CongestionEpisode>,
    /// The newest instant fed to `update` — where still-open episodes
    /// are closed at drain time.
    last_ms: u64,
}

impl CongestionLog {
    fn grow(&mut self, n: usize) {
        while self.states.len() < n {
            self.states.push(CongestionState::Ok);
            self.open.push(None);
        }
        while self.counts.len() < n {
            self.counts.push(0);
        }
    }

    fn update(&mut self, verdicts: &[CongestionVerdict], now_ms: u64) {
        self.last_ms = self.last_ms.max(now_ms);
        for v in verdicts {
            self.grow(v.worker + 1);
            let open = match self.open.get_mut(v.worker) {
                Some(o) => o,
                None => continue,
            };
            match *open {
                Some((state, start_ms)) if state != v.state => {
                    self.closed.push(CongestionEpisode {
                        worker: v.worker,
                        state,
                        start_ms,
                        end_ms: now_ms,
                    });
                    *open = None;
                }
                _ => {}
            }
            if open.is_none() && v.state != CongestionState::Ok {
                *open = Some((v.state, now_ms));
                if let Some(c) = self.counts.get_mut(v.worker) {
                    *c += 1;
                }
            }
            if let Some(s) = self.states.get_mut(v.worker) {
                *s = v.state;
            }
        }
    }

    fn states(&self) -> Vec<(usize, CongestionState)> {
        self.states.iter().copied().enumerate().collect()
    }

    fn counts(&self) -> Vec<(usize, u64)> {
        self.counts.iter().copied().enumerate().collect()
    }

    fn drain(&mut self) -> Vec<CongestionEpisode> {
        let last_ms = self.last_ms;
        for (worker, open) in self.open.iter_mut().enumerate() {
            if let Some((state, start_ms)) = open.take() {
                self.closed.push(CongestionEpisode {
                    worker,
                    state,
                    start_ms,
                    end_ms: last_ms,
                });
            }
        }
        let mut episodes = std::mem::take(&mut self.closed);
        episodes.sort_by_key(|e| (e.start_ms, e.worker));
        for s in &mut self.states {
            *s = CongestionState::Ok;
        }
        episodes
    }

    /// Epoch reset: forget per-epoch state but keep the cumulative
    /// episode counts so `/metrics` counters stay monotonic.
    fn reset(&mut self) {
        self.states.clear();
        self.open.clear();
        self.closed.clear();
        self.last_ms = 0;
    }
}

/// The online congestion detectors: pure threshold checks over history
/// windows, deterministic and clock-free so each verdict state has a
/// synthetic-sequence unit test. Severity order decides ties; the full
/// evidence is attached to every verdict, `ok` included.
#[derive(Debug, Default)]
pub struct CongestionDetector;

/// History points per evidence window: each worker's verdict is derived
/// from its most recent `WINDOW` points.
const WINDOW: usize = 12;
/// Minimum points before any non-stall verdict is attempted; thinner
/// windows stay `ok`.
const MIN_POINTS: usize = 5;
/// Mean device backlog (`WorkerSnapshot::inflight`: requests the worker
/// was blocked behind, averaged over each batch's time) at or above which
/// a worker is `queue_saturated`. Sits just under the default 512-entry
/// ring: a worker parked on that many requests most of the time can no
/// longer absorb bursts.
pub(crate) const QUEUE_DEPTH: f64 = 448.0;
/// Minimum per-second upward slope of the CQ-wait share for
/// `cq_wait_rising`.
const CQ_SLOPE: f64 = 0.15;
/// The CQ-wait share the latest interval must also reach before a rising
/// slope is flagged — a worker rising from 1% to 3% is not congested yet.
const CQ_FLOOR: f64 = 0.6;
/// Minimum fraction of the window's wall-clock time spent in I/O at all
/// before a CQ-wait verdict is attempted. A mostly-idle worker's share is
/// computed over microscopic denominators and carries no signal.
const CQ_BUSY: f64 = 0.25;
/// A worker is a `straggler` when its windowed batch rate falls below this
/// fraction of the fleet median.
const STRAGGLER_RATIO: f64 = 0.35;
/// Windowed on-CPU share (thread CPU time over wall, from the ringprof
/// snapshots) at or above which a saturated queue is attributed to the
/// *thread* rather than the device: `cpu_saturated` instead of
/// `queue_saturated`. Requires `profile_resources`; with profiling off the
/// share reads 0 and the split never fires.
const CPU_FLOOR: f64 = 0.85;

impl CongestionDetector {
    /// A detector with the built-in thresholds.
    pub fn new() -> Self {
        Self
    }

    /// Judges every worker from its history window. `stalled` comes from
    /// the [`Monitor`]'s series (a 10 s standstill is a wedge no
    /// rate-based window needs to confirm).
    pub fn assess(
        &self,
        windows: &[(usize, Vec<HistoryPoint>)],
        stalled: &[usize],
    ) -> Vec<CongestionVerdict> {
        // Fleet median over active workers with judgeable windows — the
        // straggler baseline. Upper median; a sole participant is never
        // judged against itself (the median then stays 0).
        let mut rates: Vec<f64> = windows
            .iter()
            .filter(|(_, pts)| self.judgeable(pts))
            .map(|(_, pts)| windowed_rates(pts).batches_per_sec)
            .collect();
        rates.sort_by(f64::total_cmp);
        let median = if rates.len() >= 2 {
            rates.get(rates.len() / 2).copied().unwrap_or(0.0)
        } else {
            0.0
        };
        windows
            .iter()
            .map(|(worker, pts)| self.judge(*worker, pts, stalled, median))
            .collect()
    }

    /// True when a window is thick and fresh enough for rate verdicts.
    fn judgeable(&self, pts: &[HistoryPoint]) -> bool {
        pts.len() >= MIN_POINTS && pts.last().map(|p| p.snap.active).unwrap_or(false)
    }

    fn judge(
        &self,
        worker: usize,
        pts: &[HistoryPoint],
        stalled: &[usize],
        median: f64,
    ) -> CongestionVerdict {
        let rates = windowed_rates(pts);
        let cq_series = cq_wait_share_series(pts);
        let evidence = CongestionEvidence {
            window_start_ms: pts.first().map(|p| p.t_ms).unwrap_or(0),
            window_end_ms: pts.last().map(|p| p.t_ms).unwrap_or(0),
            points: pts.len() as u64,
            mean_inflight: mean_inflight(pts),
            cq_wait_share: cq_series.last().map(|&(_, s)| s).unwrap_or(0.0),
            cq_wait_share_slope: cq_wait_share_slope(pts),
            io_busy_share: io_busy_share(pts),
            cpu_share: cpu_share(pts),
            batches_per_sec: rates.batches_per_sec,
            fleet_median_batches_per_sec: median,
            batch_p99_slope_ns_per_sec: batch_p99_slope(pts),
        };
        let state = if stalled.contains(&worker) {
            CongestionState::Stalled
        } else if !self.judgeable(pts) {
            CongestionState::Ok
        } else if evidence.mean_inflight >= QUEUE_DEPTH {
            // A pinned queue has two distinct causes: the device can't
            // drain it (queue_saturated), or the thread is too busy to
            // feed/reap it (cpu_saturated). The ringprof CPU share is
            // the discriminator.
            if evidence.cpu_share >= CPU_FLOOR {
                CongestionState::CpuSaturated
            } else {
                CongestionState::QueueSaturated
            }
        } else if evidence.io_busy_share >= CQ_BUSY
            && evidence.cq_wait_share >= CQ_FLOOR
            && evidence.cq_wait_share_slope >= CQ_SLOPE
        {
            CongestionState::CqWaitRising
        } else if median > 0.0 && evidence.batches_per_sec < STRAGGLER_RATIO * median {
            CongestionState::Straggler
        } else {
            CongestionState::Ok
        };
        CongestionVerdict {
            worker,
            state,
            evidence,
        }
    }
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
/// uptime, build identity, and the congestion tracker's current output.
/// Split out (with a [`Default`]) so `metrics_document` stays pure and
/// golden-testable — the [`Monitor`] fills it from its timeline and the
/// registry per request.
#[derive(Debug, Clone, Default)]
pub struct MetricsExtras {
    /// Seconds since the telemetry server started.
    pub uptime_seconds: f64,
    /// Crate version for the `ringsampler_build_info` info family.
    pub version: String,
    /// Every worker's current congestion state.
    pub congestion_states: Vec<(usize, CongestionState)>,
    /// Cumulative congestion episodes started, per worker.
    pub congestion_episodes: Vec<(usize, u64)>,
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
        w.counter(
            "ringsampler_worker_batches_total",
            "Mini-batches completed this epoch",
            labels,
            s.batches,
        );
        w.counter(
            "ringsampler_worker_targets_total",
            "Seed nodes processed this epoch",
            labels,
            s.targets,
        );
        w.counter(
            "ringsampler_worker_sampled_nodes_total",
            "Frontier nodes whose neighbor lists were sampled",
            labels,
            s.sampled_nodes,
        );
        w.counter(
            "ringsampler_worker_sampled_edges_total",
            "Neighbor entries sampled",
            labels,
            s.sampled_edges,
        );
        w.counter(
            "ringsampler_worker_io_bytes_total",
            "Payload bytes read from disk",
            labels,
            s.bytes_read,
        );
        w.counter(
            "ringsampler_worker_reads_submitted_total",
            "Read requests submitted to the I/O engine",
            labels,
            s.reads_submitted,
        );
        w.counter(
            "ringsampler_worker_io_groups_total",
            "I/O groups submitted",
            labels,
            s.io_groups,
        );
        w.gauge(
            "ringsampler_worker_inflight_reads",
            "Read requests currently in flight on the worker's ring",
            labels,
            s.inflight as f64,
        );
        w.counter(
            "ringsampler_worker_cpu_nanos_total",
            "Thread CPU time consumed this epoch (ringprof; 0 with profiling off)",
            labels,
            s.cpu_nanos,
        );
        w.histogram(
            "ringsampler_worker_batch_latency_seconds",
            "Wall latency per sampled mini-batch this epoch",
            labels,
            &s.batch_latency,
        );
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
    for &(worker, state) in &extras.congestion_states {
        let idx = worker.to_string();
        let labels: &[(&str, &str)] = &[("worker", &idx), ("state", state.name())];
        w.gauge(
            "ringsampler_worker_congestion_state",
            "Current congestion verdict (constant 1; the state lives in the labels)",
            labels,
            1.0,
        );
    }
    for &(worker, count) in &extras.congestion_episodes {
        let idx = worker.to_string();
        let labels: &[(&str, &str)] = &[("worker", &idx)];
        w.counter(
            "ringsampler_congestion_episodes_total",
            "Congestion episodes (contiguous non-ok verdicts) started",
            labels,
            count,
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

fn trace_event_json(e: &TraceEvent) -> Json {
    Json::object()
        .with("ts_ns", Json::U64(e.ts_ns))
        .with("kind", Json::str(e.kind.name()))
        .with("a", Json::U64(e.a))
        .with("b", Json::U64(e.b))
        .with("c", Json::U64(e.c))
        .with("d", Json::U64(e.d))
}

/// Renders the `GET /progress` JSON document: per-worker rows plus a
/// fleet aggregate. Pure: rates and stall state are passed in.
pub fn progress_document(obs: &[WorkerObservation], stalled: &[usize], rates: &FleetRates) -> String {
    let mut workers = Vec::with_capacity(obs.len());
    let mut fleet_batches = 0u64;
    let mut fleet_total_batches = 0u64;
    let mut fleet_edges = 0u64;
    let mut fleet_bytes = 0u64;
    let mut fleet_inflight = 0u64;
    let mut fleet_active = 0u64;
    for o in obs {
        let Some(s) = o.snapshot else { continue };
        fleet_batches += s.batches;
        fleet_total_batches += s.total_batches;
        fleet_edges += s.sampled_edges;
        fleet_bytes += s.bytes_read;
        fleet_inflight += s.inflight;
        fleet_active += u64::from(s.active);
        let fraction = if s.total_batches > 0 {
            s.batches as f64 / s.total_batches as f64
        } else {
            0.0
        };
        workers.push(
            Json::object()
                .with("worker", Json::U64(o.index as u64))
                .with("epoch", Json::U64(s.epoch))
                .with("active", Json::Bool(s.active))
                .with("stalled", Json::Bool(stalled.contains(&o.index)))
                .with("batches", Json::U64(s.batches))
                .with("total_batches", Json::U64(s.total_batches))
                .with("fraction", Json::F64(fraction))
                .with("targets", Json::U64(s.targets))
                .with("sampled_nodes", Json::U64(s.sampled_nodes))
                .with("sampled_edges", Json::U64(s.sampled_edges))
                .with("bytes_read", Json::U64(s.bytes_read))
                .with("reads_submitted", Json::U64(s.reads_submitted))
                .with("inflight", Json::U64(s.inflight))
                .with("io_groups", Json::U64(s.io_groups))
                .with("batch_latency_p50_ns", Json::U64(s.batch_latency.p50()))
                .with("batch_latency_p99_ns", Json::U64(s.batch_latency.p99())),
        );
    }
    let fleet_fraction = if fleet_total_batches > 0 {
        fleet_batches as f64 / fleet_total_batches as f64
    } else {
        0.0
    };
    let fleet = Json::object()
        .with("workers", Json::U64(obs.len() as u64))
        .with("active", Json::U64(fleet_active))
        .with("stalled", Json::U64(stalled.len() as u64))
        .with("batches", Json::U64(fleet_batches))
        .with("total_batches", Json::U64(fleet_total_batches))
        .with("fraction", Json::F64(fleet_fraction))
        .with("sampled_edges", Json::U64(fleet_edges))
        .with("bytes_read", Json::U64(fleet_bytes))
        .with("inflight", Json::U64(fleet_inflight))
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
        .with("fleet", fleet)
        .to_string_pretty()
}

/// Renders the `GET /history` JSON document: per-worker windowed rates,
/// EWMA/slope trends, and the raw point series. Pure: same windows ⇒
/// same text. `window` echoes the requested window size.
pub fn history_document(windows: &[(usize, Vec<HistoryPoint>)], window: usize) -> String {
    let workers: Vec<Json> = windows
        .iter()
        .map(|(worker, pts)| {
            let rates = windowed_rates(pts);
            let edge_rates: Vec<f64> = interval_series(pts, |s| s.sampled_edges)
                .iter()
                .map(|&(_, r)| r)
                .collect();
            let trends = Json::object()
                .with("edges_per_sec_ewma", Json::F64(ewma(&edge_rates, 0.4)))
                .with(
                    "batch_p99_slope_ns_per_sec",
                    Json::F64(batch_p99_slope(pts)),
                )
                .with(
                    "cq_wait_share_slope_per_sec",
                    Json::F64(cq_wait_share_slope(pts)),
                )
                .with("cpu_share", Json::F64(cpu_share(pts)));
            // Per-point derived columns are aligned with the raw series:
            // interval quantities (p99, cq share) describe the interval
            // *ending* at each point, so the first point reports zeros.
            let p99s = batch_p99_series(pts);
            let cq = cq_wait_share_series(pts);
            let cpu = cpu_share_series(pts);
            let at = |series: &[(u64, f64)], t_ms: u64| {
                series
                    .iter()
                    .find(|&&(t, _)| t == t_ms)
                    .map(|&(_, v)| v)
                    .unwrap_or(0.0)
            };
            let points: Vec<Json> = pts
                .iter()
                .map(|p| {
                    Json::object()
                        .with("t_ms", Json::U64(p.t_ms))
                        .with("batches", Json::U64(p.snap.batches))
                        .with("targets", Json::U64(p.snap.targets))
                        .with("sampled_edges", Json::U64(p.snap.sampled_edges))
                        .with("bytes_read", Json::U64(p.snap.bytes_read))
                        .with("inflight", Json::U64(p.snap.inflight))
                        .with("io_groups", Json::U64(p.snap.io_groups))
                        .with("batch_p99_ns", Json::F64(at(&p99s, p.t_ms)))
                        .with("cq_wait_share", Json::F64(at(&cq, p.t_ms)))
                        .with("cpu_share", Json::F64(at(&cpu, p.t_ms)))
                })
                .collect();
            Json::object()
                .with("worker", Json::U64(*worker as u64))
                .with("points", Json::U64(pts.len() as u64))
                .with("span_secs", Json::F64(rates.span_secs))
                .with(
                    "rates",
                    Json::object()
                        .with("edges_per_sec", Json::F64(rates.edges_per_sec))
                        .with("batches_per_sec", Json::F64(rates.batches_per_sec))
                        .with("enters_per_sec", Json::F64(rates.enters_per_sec))
                        .with("bytes_per_sec", Json::F64(rates.bytes_per_sec)),
                )
                .with("trends", trends)
                .with("series", Json::Array(points))
        })
        .collect();
    Json::object()
        .with("window", Json::U64(window as u64))
        .with("workers", Json::Array(workers))
        .to_string_pretty()
}

/// Renders the `GET /congestion` JSON document: the fleet rollup plus
/// every worker's verdict with its full evidence window. Pure.
pub fn congestion_document(verdicts: &[CongestionVerdict]) -> String {
    let ok = verdicts
        .iter()
        .filter(|v| v.state == CongestionState::Ok)
        .count();
    let mut states = Json::object();
    for state in CongestionState::NON_OK {
        let n = verdicts.iter().filter(|v| v.state == state).count();
        states = states.with(state.name(), Json::U64(n as u64));
    }
    let fleet = Json::object()
        .with("workers", Json::U64(verdicts.len() as u64))
        .with("ok", Json::U64(ok as u64))
        .with("congested", Json::U64((verdicts.len() - ok) as u64))
        .with("states", states);
    let workers: Vec<Json> = verdicts
        .iter()
        .map(|v| {
            let e = &v.evidence;
            Json::object()
                .with("worker", Json::U64(v.worker as u64))
                .with("state", Json::str(v.state.name()))
                .with(
                    "evidence",
                    Json::object()
                        .with("window_start_ms", Json::U64(e.window_start_ms))
                        .with("window_end_ms", Json::U64(e.window_end_ms))
                        .with("points", Json::U64(e.points))
                        .with("mean_inflight", Json::F64(e.mean_inflight))
                        .with("cq_wait_share", Json::F64(e.cq_wait_share))
                        .with("cq_wait_share_slope", Json::F64(e.cq_wait_share_slope))
                        .with("io_busy_share", Json::F64(e.io_busy_share))
                        .with("cpu_share", Json::F64(e.cpu_share))
                        .with("batches_per_sec", Json::F64(e.batches_per_sec))
                        .with(
                            "fleet_median_batches_per_sec",
                            Json::F64(e.fleet_median_batches_per_sec),
                        )
                        .with(
                            "batch_p99_slope_ns_per_sec",
                            Json::F64(e.batch_p99_slope_ns_per_sec),
                        ),
                )
        })
        .collect();
    Json::object()
        .with("fleet", fleet)
        .with("workers", Json::Array(workers))
        .to_string_pretty()
}

/// Parses one `u64` query parameter from a raw request path
/// (`/history?worker=1&window=32`). Absent or unparsable ⇒ `None`.
fn query_param(path: &str, key: &str) -> Option<u64> {
    let (_, query) = path.split_once('?')?;
    query
        .split('&')
        .filter_map(|kv| kv.split_once('='))
        .find(|&(k, _)| k == key)
        .and_then(|(_, v)| v.parse().ok())
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

    /// Ends the series: its final edges and batches join `totals`.
    fn end_into(self, totals: &mut (u64, u64)) {
        if let Some(last) = self.points.back() {
            totals.0 += last.snap.sampled_edges;
            totals.1 += last.snap.batches;
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
    /// Edges and batches counted by series that have ended (epoch change
    /// or slot removed): the part of the lifetime totals no slot shows any
    /// more.
    finished: (u64, u64),
    /// The latest tick's congestion verdicts.
    verdicts: Vec<CongestionVerdict>,
}

impl Monitor {
    /// An empty monitor whose timeline starts at `start`.
    pub fn new(start: Instant) -> Self {
        Self {
            start,
            now: start,
            obs: Vec::new(),
            series: Vec::new(),
            finished: (0, 0),
            verdicts: Vec::new(),
        }
    }

    fn now_ms(&self) -> u64 {
        self.now.saturating_duration_since(self.start).as_millis() as u64
    }

    /// Appends one point per observed snapshot at `now`, judges every
    /// worker, and rolls the registry's congestion episodes forward.
    /// Returns the workers that stalled at this tick (each standstill is
    /// reported once). A series restarts when its slot's epoch changes;
    /// slots that disappeared end theirs.
    pub fn tick(
        &mut self,
        obs: Vec<WorkerObservation>,
        now: Instant,
        registry: &SnapshotRegistry,
    ) -> Vec<StallEvent> {
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
            let moved = series.points.back().is_none_or(|l| l.snap.batches != snap.batches);
            if moved || !snap.active {
                series.moved_ms = now_ms;
                series.stalled = false;
            }
            series.points.push_back(HistoryPoint { t_ms: now_ms, snap });
            if series.points.len() > HISTORY_POINTS {
                series.points.pop_front();
            }
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
        self.verdicts = CongestionDetector::new().assess(&self.windows(WINDOW), &self.stalled());
        registry.update_congestion(&self.verdicts, now_ms);
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
            edges += last.snap.sampled_edges;
            done += last.snap.batches;
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
            lifetime_edges_per_sec: lifetime(self.finished.0 + edges),
            lifetime_batches_per_sec: lifetime(self.finished.1 + done),
        }
    }

    /// The one-shot black box for a worker [`tick`](Self::tick) just
    /// declared stalled, carrying this tick's verdicts.
    fn black_box(&self, event: &StallEvent, registry: &SnapshotRegistry) -> Json {
        stall_blackbox_document(
            event,
            &registry.observe_traces(STALL_TRACE_TAIL),
            &self.windows(STALL_HISTORY_POINTS),
            &self.verdicts,
        )
    }

    /// Serves one request from the monitor's state as of its latest tick
    /// (plus the registry's flight-recorder rings, episode counts and
    /// resource document).
    pub fn route(&self, path: &str, registry: &SnapshotRegistry) -> Response {
        match path {
            "/metrics" => {
                let extras = MetricsExtras {
                    uptime_seconds: self.now.saturating_duration_since(self.start).as_secs_f64(),
                    version: env!("CARGO_PKG_VERSION").to_string(),
                    congestion_states: registry.congestion_states(),
                    congestion_episodes: registry.episode_counts(),
                };
                let traces = registry.observe_traces(0);
                Response::prometheus(metrics_document(&self.obs, &traces, &extras))
            }
            "/progress" => {
                Response::json(progress_document(&self.obs, &self.stalled(), &self.rates()))
            }
            "/trace" => Response::json(trace_document(&registry.observe_traces(256))),
            "/congestion" => Response::json(congestion_document(&self.verdicts)),
            "/resources" => Response::json(registry.resources_document()),
            path if path == "/history" || path.starts_with("/history?") => {
                let window = query_param(path, "window")
                    .map(|w| (w as usize).clamp(2, 4096))
                    .unwrap_or(64);
                let mut windows = self.windows(window);
                if let Some(worker) = query_param(path, "worker") {
                    windows.retain(|(w, _)| *w as u64 == worker);
                }
                Response::json(history_document(&windows, window))
            }
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
            for event in monitor.tick(registry.observe(), Instant::now(), &registry) {
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
/// (what the worker was *doing* when it wedged), its recent history
/// points (how it got there), and the fleet's congestion verdicts from
/// the same tick (who else was suffering). Pure: same inputs ⇒ same
/// document; the server emits it compactly to stderr.
pub fn stall_blackbox_document(
    event: &StallEvent,
    tails: &[TraceTail],
    windows: &[(usize, Vec<HistoryPoint>)],
    verdicts: &[CongestionVerdict],
) -> Json {
    let s = &event.snapshot;
    let doc = Json::object()
        .with("event", Json::str("ringscope_stall"))
        .with("worker", Json::U64(event.worker as u64))
        .with("epoch", Json::U64(s.epoch))
        .with("batches", Json::U64(s.batches))
        .with("io_groups", Json::U64(s.io_groups))
        .with("inflight", Json::U64(s.inflight))
        .with("reads_submitted", Json::U64(s.reads_submitted))
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
                        .with("batches", Json::U64(p.snap.batches))
                        .with("inflight", Json::U64(p.snap.inflight))
                        .with("cpu_nanos", Json::U64(p.snap.cpu_nanos))
                })
                .collect();
            Json::Array(points)
        })
        .unwrap_or(Json::Null);
    let fleet: Vec<Json> = verdicts
        .iter()
        .map(|v| {
            Json::object()
                .with("worker", Json::U64(v.worker as u64))
                .with("state", Json::str(v.state.name()))
        })
        .collect();
    doc.with("trace", trace)
        .with("history", history)
        .with("verdicts", Json::Array(fleet))
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
    use std::io::{Read as _, Write as _};
    use std::net::TcpStream;

    fn snap(batches: u64, total: u64, active: bool) -> WorkerSnapshot {
        let mut s = WorkerSnapshot::new();
        s.epoch = 1;
        s.batches = batches;
        s.total_batches = total;
        s.sampled_edges = batches * 100;
        s.bytes_read = batches * 4096;
        s.reads_submitted = batches * 64;
        s.inflight = 2;
        s.io_groups = batches * 2;
        s.active = active;
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
        let cells = reg.reset_epoch(3);
        assert_eq!(cells.len(), 3);
        assert_eq!(reg.observe().len(), 3);
        let extra = reg.register();
        extra.publish(snap(5, 10, true));
        let obs = reg.observe();
        assert_eq!(obs.len(), 4);
        assert_eq!(obs[3].snapshot.unwrap().batches, 5);
        assert_eq!(reg.reset_epoch(1).len(), 1);
        assert_eq!(reg.observe().len(), 1);
        assert_eq!(reg.next_epoch(), 1);
        assert_eq!(reg.next_epoch(), 2);
    }

    /// Ticks `monitor` at `ms` past `t0` with one observation per
    /// snapshot, returning the workers that stalled at that tick.
    fn tick_at(
        monitor: &mut Monitor,
        reg: &SnapshotRegistry,
        t0: Instant,
        ms: u64,
        snaps: &[WorkerSnapshot],
    ) -> Vec<usize> {
        let now = t0 + Duration::from_millis(ms);
        monitor.tick(obs_of(snaps), now, reg).iter().map(|e| e.worker).collect()
    }

    #[test]
    fn watchdog_fires_after_threshold_and_recovers() {
        let reg = SnapshotRegistry::new();
        let t0 = Instant::now();
        let mut m = Monitor::new(t0);
        let both = [snap(1, 10, true), snap(1, 10, true)];
        let healthz = |m: &Monitor| m.route("/healthz", &reg).status();

        assert!(tick_at(&mut m, &reg, t0, 0, &both).is_empty(), "first sight never stalls");
        // No new batch, but within the threshold: not stalled yet.
        assert!(tick_at(&mut m, &reg, t0, 9_800, &both).is_empty());
        assert_eq!(healthz(&m), 200);

        // STALL_THRESHOLD without a new batch: both fire, exactly once.
        let stalled = m.tick(obs_of(&both), t0 + STALL_THRESHOLD, &reg);
        assert_eq!(stalled.iter().map(|e| e.worker).collect::<Vec<_>>(), vec![0, 1]);
        assert_eq!(stalled[0].snapshot.inflight, 2, "the black box carries the last state");
        assert_eq!(healthz(&m), 503);
        assert_eq!(m.route("/healthz", &reg).body(), "stalled workers: [0, 1]\n");
        assert!(tick_at(&mut m, &reg, t0, 30_000, &both).is_empty(), "stall warnings are one-shot");
        assert_eq!(m.stalled(), vec![0, 1]);
        let box0 = m.black_box(&stalled[0], &reg).to_string_compact();
        assert!(box0.contains("\"state\":\"stalled\""), "{box0}");

        // Worker 0 completes a batch: it recovers; worker 1 stays stalled.
        let advanced = [snap(2, 10, true), snap(1, 10, true)];
        assert!(tick_at(&mut m, &reg, t0, 30_200, &advanced).is_empty());
        assert_eq!(m.stalled(), vec![1]);
        assert_eq!(healthz(&m), 503);

        // Worker 1's next batch: healthy again, and a fresh standstill is
        // reported afresh.
        let recovered = [snap(2, 10, true), snap(2, 10, true)];
        assert!(tick_at(&mut m, &reg, t0, 30_400, &recovered).is_empty());
        assert_eq!(healthz(&m), 200);
        assert_eq!(tick_at(&mut m, &reg, t0, 40_400, &recovered), vec![0, 1]);
    }

    #[test]
    fn inactive_workers_never_stall() {
        let reg = SnapshotRegistry::new();
        let t0 = Instant::now();
        let mut m = Monitor::new(t0);
        let finished = [snap(4, 4, false)];
        tick_at(&mut m, &reg, t0, 0, &finished);
        assert!(tick_at(&mut m, &reg, t0, 60_000, &finished).is_empty());
        assert!(m.stalled().is_empty());
        assert_eq!(m.route("/healthz", &reg).status(), 200);
    }

    /// A synthetic history window: `n` points 100 ms apart, shaped by a
    /// per-point closure over the point's index.
    fn hist_pts(n: u64, shape: impl Fn(u64, &mut WorkerSnapshot)) -> Vec<HistoryPoint> {
        (0..n)
            .map(|i| {
                let mut s = WorkerSnapshot::new();
                s.active = true;
                shape(i, &mut s);
                HistoryPoint { t_ms: i * 100, snap: s }
            })
            .collect()
    }

    /// A healthy window: steady 10 batches/s, modest queue, flat low CQ
    /// wait.
    fn healthy_window(n: u64) -> Vec<HistoryPoint> {
        hist_pts(n, |i, s| {
            s.batches = i;
            s.sampled_edges = i * 1000;
            s.inflight = 32;
            s.submit_nanos = i * 900_000;
            s.complete_nanos = i * 100_000;
        })
    }

    #[test]
    fn congestion_verdict_ok_for_healthy_fleet() {
        let det = CongestionDetector::new();
        let windows = vec![(0, healthy_window(12)), (1, healthy_window(12))];
        let verdicts = det.assess(&windows, &[]);
        assert_eq!(verdicts.len(), 2);
        for v in &verdicts {
            assert_eq!(v.state, CongestionState::Ok, "worker {}", v.worker);
            assert!(v.evidence.points == 12);
            assert!((v.evidence.batches_per_sec - 10.0).abs() < 1e-6);
        }
        // Thin windows and inactive workers also judge ok.
        let thin = vec![(0, healthy_window(3))];
        assert_eq!(det.assess(&thin, &[])[0].state, CongestionState::Ok);
        let mut finished = healthy_window(12);
        for p in &mut finished {
            p.snap.active = false;
        }
        assert_eq!(det.assess(&[(0, finished)], &[])[0].state, CongestionState::Ok);
    }

    #[test]
    fn congestion_verdict_queue_saturated() {
        let det = CongestionDetector::new();
        let windows = vec![(0, hist_pts(12, |i, s| {
            s.batches = i;
            s.inflight = 500; // pinned above the 448 threshold
        }))];
        let v = &det.assess(&windows, &[])[0];
        assert_eq!(v.state, CongestionState::QueueSaturated);
        assert!((v.evidence.mean_inflight - 500.0).abs() < 1e-9);
    }

    #[test]
    fn congestion_verdict_cpu_saturated_vs_queue_saturated() {
        let det = CongestionDetector::new();
        // Both workers sit pinned above the queue threshold; worker 0
        // burns ~95% of each 100 ms interval on-CPU (compute-bound),
        // worker 1 idles at ~5% (device-bound). The ringprof CPU share
        // is the only difference between their windows.
        let pinned = |cpu_per_tick: u64| {
            move |i: u64, s: &mut WorkerSnapshot| {
                s.batches = i;
                s.inflight = 500;
                s.cpu_nanos = i * cpu_per_tick;
            }
        };
        let windows = vec![
            (0, hist_pts(12, pinned(95_000_000))),
            (1, hist_pts(12, pinned(5_000_000))),
        ];
        let verdicts = det.assess(&windows, &[]);
        assert_eq!(verdicts[0].state, CongestionState::CpuSaturated, "{:?}", verdicts[0].evidence);
        assert!(verdicts[0].evidence.cpu_share > 0.85, "{:?}", verdicts[0].evidence);
        assert_eq!(verdicts[1].state, CongestionState::QueueSaturated, "{:?}", verdicts[1].evidence);
        assert!(verdicts[1].evidence.cpu_share < 0.85, "{:?}", verdicts[1].evidence);
    }

    #[test]
    fn congestion_verdict_cq_wait_rising() {
        let det = CongestionDetector::new();
        // Interval CQ share climbs 0.04·i with 60 ms of I/O per 100 ms
        // interval: past the 0.6 floor, slope ≫ 0.15/s, and well above
        // the 0.25 busy gate — the collapse signature.
        let shape = |total: u64| {
            move |i: u64, s: &mut WorkerSnapshot| {
                s.batches = i;
                let share = (i as f64 * 0.04).min(0.95);
                s.complete_nanos = i * (share * total as f64) as u64;
                s.submit_nanos = i * total - s.complete_nanos;
            }
        };
        let windows = vec![(0, hist_pts(24, shape(60_000_000)))];
        let v = &det.assess(&windows, &[])[0];
        assert_eq!(v.state, CongestionState::CqWaitRising, "{:?}", v.evidence);
        assert!(v.evidence.cq_wait_share >= 0.6, "{:?}", v.evidence);
        assert!(v.evidence.cq_wait_share_slope > 0.15, "{:?}", v.evidence);
        assert!(v.evidence.io_busy_share >= 0.25, "{:?}", v.evidence);
        // The same share trajectory from a mostly-idle worker (1 ms of
        // I/O per 100 ms) carries no signal: the busy gate holds it ok.
        let idle = vec![(0, hist_pts(24, shape(1_000_000)))];
        let v = &det.assess(&idle, &[])[0];
        assert_eq!(v.state, CongestionState::Ok, "{:?}", v.evidence);
    }

    #[test]
    fn congestion_verdict_stalled_overrides_everything() {
        let det = CongestionDetector::new();
        let windows = vec![(0, healthy_window(12)), (1, healthy_window(12))];
        let verdicts = det.assess(&windows, &[1]);
        assert_eq!(verdicts[0].state, CongestionState::Ok);
        assert_eq!(verdicts[1].state, CongestionState::Stalled);
    }

    #[test]
    fn congestion_verdict_straggler_vs_fleet_median() {
        let det = CongestionDetector::new();
        // Worker 1 completes batches at 1/10th the fleet rate.
        let slow = hist_pts(12, |i, s| {
            s.batches = i / 10;
            s.inflight = 32;
        });
        let windows = vec![(0, healthy_window(12)), (1, slow)];
        let verdicts = det.assess(&windows, &[]);
        assert_eq!(verdicts[0].state, CongestionState::Ok);
        assert_eq!(verdicts[1].state, CongestionState::Straggler, "{:?}", verdicts[1].evidence);
        assert!((verdicts[1].evidence.fleet_median_batches_per_sec - 10.0).abs() < 1e-6);
        // A lone worker is never judged against itself.
        let solo = vec![(0, hist_pts(12, |i, s| s.batches = i / 10))];
        assert_eq!(det.assess(&solo, &[])[0].state, CongestionState::Ok);
    }

    fn verdict(worker: usize, state: CongestionState) -> CongestionVerdict {
        CongestionVerdict {
            worker,
            state,
            evidence: CongestionEvidence {
                window_start_ms: 0,
                window_end_ms: 0,
                points: 0,
                mean_inflight: 0.0,
                cq_wait_share: 0.0,
                cq_wait_share_slope: 0.0,
                io_busy_share: 0.0,
                cpu_share: 0.0,
                batches_per_sec: 0.0,
                fleet_median_batches_per_sec: 0.0,
                batch_p99_slope_ns_per_sec: 0.0,
            },
        }
    }

    #[test]
    fn episode_tracker_records_time_bounds() {
        let reg = SnapshotRegistry::new();
        // ok → straggler (t=100..300) → ok → queue_saturated (t=400, open).
        reg.update_congestion(&[verdict(0, CongestionState::Ok)], 0);
        reg.update_congestion(&[verdict(0, CongestionState::Straggler)], 100);
        reg.update_congestion(&[verdict(0, CongestionState::Straggler)], 200);
        reg.update_congestion(&[verdict(0, CongestionState::Ok)], 300);
        reg.update_congestion(&[verdict(0, CongestionState::QueueSaturated)], 400);
        assert_eq!(
            reg.congestion_states(),
            vec![(0, CongestionState::QueueSaturated)]
        );
        assert_eq!(reg.episode_counts(), vec![(0, 2)]);
        let episodes = reg.drain_episodes();
        assert_eq!(episodes.len(), 2);
        assert_eq!(
            episodes[0],
            CongestionEpisode {
                worker: 0,
                state: CongestionState::Straggler,
                start_ms: 100,
                end_ms: 300,
            }
        );
        // The open episode is closed at the last observed instant.
        assert_eq!(
            episodes[1],
            CongestionEpisode {
                worker: 0,
                state: CongestionState::QueueSaturated,
                start_ms: 400,
                end_ms: 400,
            }
        );
        // Drain is destructive; counts survive (monotonic /metrics).
        assert!(reg.drain_episodes().is_empty());
        assert_eq!(reg.episode_counts(), vec![(0, 2)]);
        // A state *switch* without an ok gap closes and reopens.
        reg.update_congestion(&[verdict(1, CongestionState::Straggler)], 500);
        reg.update_congestion(&[verdict(1, CongestionState::Stalled)], 600);
        let episodes = reg.drain_episodes();
        assert_eq!(episodes.len(), 2);
        assert_eq!(episodes[0].state, CongestionState::Straggler);
        assert_eq!(episodes[0].end_ms, 600);
        assert_eq!(episodes[1].state, CongestionState::Stalled);
    }

    #[test]
    fn monitor_series_keep_the_newest_points_and_restart_per_epoch() {
        let reg = SnapshotRegistry::new();
        let t0 = Instant::now();
        let mut m = Monitor::new(t0);
        for i in 0..HISTORY_POINTS as u64 + 6 {
            tick_at(&mut m, &reg, t0, i * 100, &[snap(i, 8, true), snap(i * 2, 8, true)]);
        }
        let windows = m.windows(8);
        assert_eq!(windows.len(), 2);
        assert_eq!(windows[1].1.len(), 8);
        assert_eq!(windows[1].1[7].snap.batches, 2 * (HISTORY_POINTS as u64 + 5));
        // Drop-oldest: the newest HISTORY_POINTS points survive.
        let all = m.windows(usize::MAX);
        assert_eq!(all[0].1.len(), HISTORY_POINTS);
        assert_eq!(all[0].1[0].t_ms, 600);
        // A new epoch restarts the worker's series; a vanished slot ends its.
        let mut next = snap(1, 8, true);
        next.epoch = 2;
        tick_at(&mut m, &reg, t0, 60_000, &[next]);
        let windows = m.windows(8);
        assert_eq!(windows.len(), 1);
        assert_eq!(windows[0].1.len(), 1);
        assert_eq!(windows[0].1[0].t_ms, 60_000);
    }

    #[test]
    fn compute_rates_windowed_vs_lifetime() {
        // 5 fast seconds (1000 edges/s), then 10 slow seconds (10/s).
        let reg = SnapshotRegistry::new();
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
            let mut s = WorkerSnapshot::new();
            s.batches = batches;
            s.total_batches = 1000;
            s.sampled_edges = edges;
            s.active = true;
            tick_at(&mut m, &reg, t0, tick * 1000, &[s]);
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
            let mut s = WorkerSnapshot::new();
            s.epoch = epoch;
            s.batches = k;
            s.total_batches = 61;
            s.sampled_edges = 100 * k;
            s.active = true;
            s
        };
        // Epoch 1: 61 ticks 200 ms apart, 100 edges and one batch each —
        // longer than the 10 s rate window. Epoch 2: three more ticks.
        let ticks = (1..=61).map(|k| at(1, k)).chain((1..=3).map(|k| at(2, k)));
        for (i, s) in ticks.enumerate() {
            tick_at(&mut m, &reg, t0, i as u64 * 200, &[s]);
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

    #[test]
    fn history_document_renders_rates_trends_and_series() {
        let pts = hist_pts(4, |i, s| {
            s.batches = i;
            s.sampled_edges = i * 500;
            s.bytes_read = i * 4096;
            s.io_groups = i * 2;
            s.inflight = 16;
        });
        let doc = history_document(&[(0, pts)], 64);
        assert!(doc.contains("\"window\": 64"), "{doc}");
        assert!(doc.contains("\"edges_per_sec\": 5000.0"), "{doc}");
        assert!(doc.contains("\"enters_per_sec\": 20.0"), "{doc}");
        assert!(doc.contains("\"edges_per_sec_ewma\": 5000.0"), "{doc}");
        assert!(doc.contains("\"cq_wait_share_slope_per_sec\""), "{doc}");
        let parsed = Json::parse(&doc).expect("history document parses");
        let workers = parsed.get("workers").and_then(Json::as_array).unwrap();
        let series = workers[0].get("series").and_then(Json::as_array).unwrap();
        assert_eq!(series.len(), 4);
        assert_eq!(series[3].get("t_ms").and_then(Json::as_u64), Some(300));
        // An empty fleet still renders a valid document.
        assert!(Json::parse(&history_document(&[], 8)).is_ok());
    }

    #[test]
    fn congestion_document_renders_verdicts_and_rollup() {
        let verdicts = [
            verdict(0, CongestionState::Ok),
            verdict(1, CongestionState::Straggler),
        ];
        let doc = congestion_document(&verdicts);
        assert!(doc.contains("\"workers\": 2"), "{doc}");
        assert!(doc.contains("\"ok\": 1"), "{doc}");
        assert!(doc.contains("\"congested\": 1"), "{doc}");
        assert!(doc.contains("\"straggler\": 1"), "{doc}");
        assert!(doc.contains("\"state\": \"straggler\""), "{doc}");
        assert!(doc.contains("\"fleet_median_batches_per_sec\""), "{doc}");
        assert!(Json::parse(&doc).is_ok());
    }

    #[test]
    fn query_param_parses_history_requests() {
        assert_eq!(query_param("/history?window=32", "window"), Some(32));
        assert_eq!(query_param("/history?worker=1&window=8", "worker"), Some(1));
        assert_eq!(query_param("/history?worker=1&window=8", "window"), Some(8));
        assert_eq!(query_param("/history", "window"), None);
        assert_eq!(query_param("/history?window=abc", "window"), None);
        assert_eq!(query_param("/history?window", "window"), None);
    }

    fn extras() -> MetricsExtras {
        MetricsExtras {
            uptime_seconds: 12.5,
            version: "0.1.0".into(),
            congestion_states: vec![(0, CongestionState::Ok), (1, CongestionState::Straggler)],
            congestion_episodes: vec![(0, 0), (1, 2)],
        }
    }

    #[test]
    fn metrics_document_has_acceptance_families() {
        let doc = metrics_document(&obs_of(&[snap(3, 8, true), snap(2, 8, true)]), &[], &extras());
        assert!(doc.contains("# TYPE ringsampler_worker_sampled_edges_total counter"));
        assert!(doc.contains(r#"ringsampler_worker_sampled_edges_total{worker="0"} 300"#));
        assert!(doc.contains(r#"ringsampler_worker_sampled_edges_total{worker="1"} 200"#));
        assert!(doc.contains("# TYPE ringsampler_worker_inflight_reads gauge"));
        assert!(doc.contains(r#"ringsampler_worker_inflight_reads{worker="0"} 2"#));
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
    fn metrics_document_carries_uptime_build_info_and_congestion() {
        let doc = metrics_document(&obs_of(&[snap(1, 4, true)]), &[], &extras());
        assert!(doc.contains("ringsampler_uptime_seconds 12.5"), "{doc}");
        assert!(
            doc.contains(r#"ringsampler_build_info{version="0.1.0"} 1"#),
            "{doc}"
        );
        assert!(
            doc.contains(r#"ringsampler_worker_congestion_state{worker="0",state="ok"} 1"#),
            "{doc}"
        );
        assert!(
            doc.contains(r#"ringsampler_worker_congestion_state{worker="1",state="straggler"} 1"#),
            "{doc}"
        );
        assert!(
            doc.contains(r#"ringsampler_congestion_episodes_total{worker="1"} 2"#),
            "{doc}"
        );
    }

    #[test]
    fn registry_rings_register_reset_and_observe() {
        use ringstat::EventKind;
        let reg = SnapshotRegistry::new();
        assert!(reg.observe_traces(8).is_empty());
        let r1 = Arc::new(EventRing::new(8));
        let r0 = Arc::new(EventRing::new(8));
        // Registered out of order: observation is sorted by worker index.
        reg.register_ring(1, Arc::clone(&r1));
        reg.register_ring(0, Arc::clone(&r0));
        r0.record(trace_ev(5, EventKind::BatchStart, 0));
        r0.record(trace_ev(9, EventKind::BatchEnd, 0));
        let tails = reg.observe_traces(8);
        assert_eq!(tails.len(), 2);
        assert_eq!(tails[0].index, 0);
        assert_eq!(tails[0].recorded, 2);
        assert_eq!(tails[0].events.len(), 2);
        assert_eq!(tails[1].index, 1);
        assert!(tails[1].events.is_empty());
        // A standalone ring appends after the highest index.
        let idx = reg.append_ring(Arc::new(EventRing::new(4)));
        assert_eq!(idx, 2);
        // Epoch reset forgets all rings.
        reg.reset_epoch(2);
        assert!(reg.observe_traces(8).is_empty());
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
        let doc = progress_document(&obs_of(&[snap(3, 8, true), snap(5, 8, true)]), &[1], &rates);
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
    fn stall_blackbox_carries_trace_history_and_verdicts() {
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
            s.batches = i;
            s.inflight = 12;
            s.cpu_nanos = i * 1_000_000;
        }))];
        let verdicts = [
            verdict(0, CongestionState::Ok),
            verdict(1, CongestionState::QueueSaturated),
        ];
        let doc = stall_blackbox_document(&event, &tails, &windows, &verdicts).to_string_compact();
        assert!(doc.contains("\"event\":\"ringscope_stall\""), "{doc}");
        assert!(doc.contains("\"worker\":1"), "{doc}");
        assert!(doc.contains("\"cpu_nanos\":42000000"), "{doc}");
        // The black box carries worker 1's trace tail, not worker 0's.
        assert!(doc.contains("\"group_submit\""), "{doc}");
        assert!(doc.contains("\"dropped\":2"), "{doc}");
        assert!(!doc.contains("\"batch_start\""), "{doc}");
        // History points and fleet verdicts travel too.
        assert!(doc.contains("\"t_ms\":200"), "{doc}");
        assert!(doc.contains("\"queue_saturated\""), "{doc}");
        assert!(Json::parse(&doc).is_ok(), "{doc}");
        // Without trace/history for the worker, the sections are null.
        let bare = stall_blackbox_document(&event, &[], &[], &[]).to_string_compact();
        assert!(bare.contains("\"trace\":null"), "{bare}");
        assert!(bare.contains("\"history\":null"), "{bare}");
    }

    #[test]
    fn resources_document_serves_placeholder_then_published() {
        let reg = SnapshotRegistry::new();
        let placeholder = reg.resources_document();
        assert!(placeholder.contains("\"resources\": null"), "{placeholder}");
        assert!(Json::parse(&placeholder).is_ok());
        reg.publish_resources("{\"epoch\": 3, \"resources\": {\"logical_bytes\": 64}}".to_string());
        assert!(reg.resources_document().contains("\"logical_bytes\": 64"));
        // Epoch reset keeps the last attribution queryable.
        reg.reset_epoch(2);
        assert!(reg.resources_document().contains("\"logical_bytes\": 64"));
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

        let cell = registry.register();
        cell.publish(snap(1, 4, true));

        let (code, body) = http_get(handle.addr(), "/metrics");
        assert_eq!(code, 200);
        assert!(body.contains("ringsampler_up 1"), "{body}");
        let (code, body) = http_get(handle.addr(), "/progress");
        assert_eq!(code, 200);
        assert!(body.contains("\"fleet\""));
        for path in ["/history?window=8", "/congestion"] {
            let (code, body) = http_get(handle.addr(), path);
            assert_eq!(code, 200, "{path}");
            assert!(body.contains("\"workers\""), "{path}: {body}");
        }
        // The /trace tail serves registered flight-recorder rings live.
        let ring = Arc::new(EventRing::new(16));
        ring.record(TraceEvent {
            ts_ns: 1,
            kind: ringstat::EventKind::BatchStart,
            a: 0,
            b: 8,
            c: 0,
            d: 0,
        });
        registry.register_ring(0, Arc::clone(&ring));
        let (code, body) = http_get(handle.addr(), "/trace");
        assert_eq!(code, 200);
        assert!(body.contains("\"batch_start\""), "{body}");
        assert!(body.contains("\"recorded\": 1"), "{body}");
        // /resources serves the placeholder until an epoch publishes,
        // then the published document verbatim.
        let (code, body) = http_get(handle.addr(), "/resources");
        assert_eq!(code, 200);
        assert!(body.contains("\"resources\": null"), "{body}");
        registry.publish_resources("{\"epoch\": 1, \"resources\": {\"conserved\": true}}".to_string());
        let (code, body) = http_get(handle.addr(), "/resources");
        assert_eq!(code, 200);
        assert!(body.contains("\"conserved\": true"), "{body}");
        let (code, body) = http_get(handle.addr(), "/healthz");
        assert_eq!((code, body.as_str()), (200, "ok\n"));
        let (code, _) = http_get(handle.addr(), "/nope");
        assert_eq!(code, 404);
        handle.shutdown();
    }
}
