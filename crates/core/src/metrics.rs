//! Sampling metrics: per-thread counters and distributions merged into
//! per-epoch reports.
//!
//! Each worker thread privately accumulates a [`SampleMetrics`] plus the
//! `ringstat` distributions ([`WorkerStats`]); at epoch join the engine
//! folds them into one [`EpochReport`], which leaves the process as JSON
//! ([`EpochReport::to_json`]) and, for the `ringtrace` analyzer, as its
//! raw flight-recorder events ([`EpochReport::trace_events_json_value`]).

use std::time::Duration;

use ringstat::{
    human_bytes, human_count, human_nanos, Json, LatencyHistogram, ResourceSample, Stage,
    StageAccount, TraceEvent,
};

use crate::telemetry::trace_event_json;

pub use ringstat::SampleMetrics;

/// One worker's `ringprof` epoch delta: the kernel counter deltas its
/// thread accumulated between epoch start and join, beside its epoch wall
/// and its stage account. The time between its batches is
/// `wall_nanos − account.total()`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct WorkerResources {
    /// Wall nanoseconds between the worker's epoch-start and epoch-end
    /// resource samples.
    pub wall_nanos: u64,
    /// Kernel counter deltas over the epoch. Thread-scoped except the
    /// `proc_*` fields, which are process-wide (see
    /// [`ringstat::ResourceSample`]).
    pub sample: ResourceSample,
    /// The worker's stage account at epoch join: its six sums are the
    /// row's `stage_nanos`.
    pub account: StageAccount,
    /// Logical bytes this worker's sampling consumed
    /// (`sampled_edges × ENTRY_BYTES`) — the denominator of its
    /// proportional share of the process-wide physical bytes.
    pub logical_bytes: u64,
}

impl WorkerResources {
    /// Fraction of the epoch wall this worker's thread spent on-CPU.
    pub fn cpu_share(&self) -> f64 {
        if self.wall_nanos == 0 {
            0.0
        } else {
            (self.sample.cpu_nanos as f64 / self.wall_nanos as f64).min(1.0)
        }
    }

    /// Context switches (voluntary + involuntary) per wall second.
    pub fn ctx_switches_per_sec(&self) -> f64 {
        per_sec(
            self.sample
                .vol_ctx_switches
                .saturating_add(self.sample.invol_ctx_switches),
            self.wall_nanos,
        )
    }

    /// Page faults (minor + major) per wall second.
    pub fn faults_per_sec(&self) -> f64 {
        per_sec(
            self.sample
                .minor_faults
                .saturating_add(self.sample.major_faults),
            self.wall_nanos,
        )
    }
}

/// Events per second given a wall span in nanoseconds (0.0 for an empty
/// span).
fn per_sec(count: u64, wall_nanos: u64) -> f64 {
    if wall_nanos == 0 {
        0.0
    } else {
        count as f64 / (wall_nanos as f64 / 1e9)
    }
}

/// The epoch-level `ringprof` block: per-worker deltas, the fleet
/// roll-up, the process-wide physical I/O deltas, and the derived
/// read-amplification ratios.
///
/// `/proc/self/io` is **process-wide**, so per-worker physical bytes
/// exist only as a proportional attribution over `logical_bytes` — the
/// JSON block labels them `attributed_physical_bytes` and carries
/// `"physical_attribution": "proportional"` so consumers cannot mistake
/// them for a kernel-provided per-thread counter.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ResourceReport {
    /// One entry per worker thread, in thread-index order.
    pub workers: Vec<WorkerResources>,
    /// Merged kernel deltas: thread-scoped fields summed, process-wide
    /// fields maxed (see [`ResourceSample::merge`]).
    pub fleet: ResourceSample,
    /// Process-wide `rchar` delta across the epoch: bytes requested from
    /// the kernel through read paths. **Not** incremented by `io_uring`
    /// reads on current kernels; the pread engine counts fully.
    pub physical_rchar: u64,
    /// Process-wide `read_bytes` delta: bytes fetched from the storage
    /// layer. ~0 when the OS page cache is warm.
    pub physical_read_bytes: u64,
    /// Logical bytes sampled across the fleet
    /// (`sampled_edges × ENTRY_BYTES`).
    pub logical_bytes: u64,
}

impl ResourceReport {
    /// Folds one worker's epoch delta into the block.
    pub fn absorb(&mut self, worker: WorkerResources) {
        self.fleet.merge(&worker.sample);
        self.workers.push(worker);
    }

    /// `read_amplification = physical_bytes / logical_bytes_sampled`,
    /// with physical measured at the kernel read boundary (`rchar`).
    /// ≥ 1.0 on an uncached pread run (every logical byte crosses the
    /// boundary at least once); drops below 1.0 when the page cache
    /// serves repeats. 0.0 when either side is unmeasured.
    pub fn read_amplification(&self) -> f64 {
        if self.logical_bytes == 0 {
            0.0
        } else {
            self.physical_rchar as f64 / self.logical_bytes as f64
        }
    }

    /// Amplification at the storage layer (`read_bytes`-based): what the
    /// disks actually moved per logical byte. ~0 whenever the OS page
    /// cache already held the edge file.
    pub fn block_read_amplification(&self) -> f64 {
        if self.logical_bytes == 0 {
            0.0
        } else {
            self.physical_read_bytes as f64 / self.logical_bytes as f64
        }
    }

    /// Fraction of the fleet's wall time (the sum of the workers'
    /// `wall_nanos`) its threads spent on-CPU.
    pub fn fleet_cpu_share(&self) -> f64 {
        let wall: u64 = self.workers.iter().map(|w| w.wall_nanos).sum();
        if wall == 0 {
            0.0
        } else {
            (self.fleet.cpu_nanos as f64 / wall as f64).min(1.0)
        }
    }

    /// This worker's proportional share of the process-wide physical
    /// bytes (labeled attribution — `/proc/self/io` has no per-thread
    /// truth to offer).
    pub fn attributed_physical_bytes(&self, worker_logical: u64) -> u64 {
        if self.logical_bytes == 0 {
            return 0;
        }
        ((self.physical_rchar as u128 * worker_logical as u128)
            / self.logical_bytes as u128) as u64
    }
}

/// Everything one worker thread accumulated over its lifetime: flat
/// counters plus the thread-private `ringstat` stage account.
///
/// Produced by [`crate::worker::SamplerWorker::take_stats`]; merged into
/// an [`EpochReport`] with [`EpochReport::absorb`]. Thread-private until
/// the join — no synchronization is involved in recording.
#[derive(Debug, Clone, Default)]
pub struct WorkerStats {
    /// Flat counters (including cache hits/misses).
    pub metrics: SampleMetrics,
    /// The stage sums and the batch, group and CQ-wait histograms: the
    /// fold of every event the worker recorded, kept by its ring or not.
    pub account: StageAccount,
    /// Flight-recorder events drained from this thread's event ring at
    /// epoch join.
    pub events: Vec<TraceEvent>,
    /// Events the ring dropped on overflow (recording never blocks; the
    /// drop counter is the recorder's overload signal).
    pub trace_dropped: u64,
    /// `ringprof` epoch delta for this worker: opened by its first batch
    /// and closed by `take_stats`; `None` when it sampled no batch.
    pub resources: Option<WorkerResources>,
}

impl WorkerStats {
    /// Wraps a single worker's stats as a one-thread epoch report (the
    /// training data-loader path, where one producer thread samples).
    pub fn into_epoch_report(self, wall: Duration) -> EpochReport {
        let mut report = EpochReport {
            wall,
            threads: 1,
            ..Default::default()
        };
        report.absorb(self);
        report
    }
}

/// The result of sampling one epoch.
#[derive(Debug, Clone, Default)]
pub struct EpochReport {
    /// Merged counters from all worker threads.
    pub metrics: SampleMetrics,
    /// Wall-clock duration of the epoch.
    pub wall: Duration,
    /// Worker threads used.
    pub threads: usize,
    /// Merged stage accounts across all threads: `stage_nanos` is its six
    /// sums, and its group, batch and CQ-wait histograms are
    /// `histograms.{io_group_latency, batch_latency, cq_wait}` (the CQ wait
    /// is the whole completion lap — polling, parking and reaping).
    pub account: StageAccount,
    /// One flight-recorder event list per worker thread (indexed by
    /// worker id), feeding the `--trace-events` dump, which the
    /// `ringtrace` analyzer reads and folds into a Chrome trace.
    pub thread_events: Vec<Vec<TraceEvent>>,
    /// Total flight-recorder events dropped on ring overflow, across all
    /// threads.
    pub trace_dropped: u64,
    /// `ringprof` kernel resource attribution: per-worker deltas, the
    /// fleet roll-up, and the read-amplification ratios. `None` when no
    /// worker closed an epoch profile. Worker entries accumulate via
    /// [`absorb`](Self::absorb); the epoch driver fills the process-wide
    /// physical deltas and `logical_bytes` afterwards.
    pub resources: Option<ResourceReport>,
}

impl EpochReport {
    /// Epoch duration in seconds (the y-axis of Figures 4, 5, 7, 8).
    pub fn seconds(&self) -> f64 {
        self.wall.as_secs_f64()
    }

    /// Sampled edges per second of wall time.
    pub fn edges_per_second(&self) -> f64 {
        let s = self.seconds();
        if s == 0.0 {
            0.0
        } else {
            self.metrics.sampled_edges as f64 / s
        }
    }

    /// Folds one worker's stats into this report (histograms merge
    /// losslessly; the events are kept per-thread for the trace).
    pub fn absorb(&mut self, worker: WorkerStats) {
        self.metrics.merge(&worker.metrics);
        self.account.merge(&worker.account);
        self.thread_events.push(worker.events);
        self.trace_dropped += worker.trace_dropped;
        if let Some(res) = worker.resources {
            self.resources.get_or_insert_with(Default::default).absorb(res);
        }
    }

    /// Fraction of the in-batch time outside the scatter stage spent
    /// completing groups rather than sampling, planning and submitting,
    /// `(wait + reap) / (sample + plan + submit + wait + reap)` — the
    /// quantity the Fig. 3b async pipeline minimizes.
    pub fn wait_fraction(&self) -> f64 {
        let total = self.account.total() - self.account.get(Stage::Scatter);
        if total == 0 {
            0.0
        } else {
            self.account.complete() as f64 / total as f64
        }
    }

    /// The report as a JSON tree (`schema_version` 12). Raw values only —
    /// humanization is a Display concern; the `counters` block is
    /// [`SampleMetrics::counters`].
    ///
    /// Schema history: v12 only adds — the counter `spanned_reads`
    /// (requests the reader served from a staged read); v11
    /// replaces the four-phase block (prepare, submit,
    /// complete, aggregate) with the six-stage `stage_nanos` and each
    /// worker's time `ledger` with its `stage_nanos`, and removes
    /// `resources.fleet.ledger` and `resources.conserved` (the time between
    /// a worker's batches is its `wall_nanos` minus its stage sum); v10
    /// removes the `congestion` block with the live verdicts that filled
    /// it, and adds `derived.dominant_stage` and
    /// `derived.dominant_share` ([`StageAccount::dominant`]); v9 only
    /// removes — `congestion.by_state` lost the `cpu_saturated` state,
    /// which could not fire; v8 only removes — the
    /// `spans` block left with the
    /// span log (the Chrome trace is a fold over the `trace` events) and
    /// the counters `prepare_nanos` / `complete_nanos` were the phase
    /// block's `submit` / `complete` stored twice; v7 only removes —
    /// the `ring` block and the counters `fixed_buf_reads`,
    /// `regbuf_fallbacks`, `bufring_reads`, `bufring_recycles`,
    /// `ring_mode_fallbacks` left with the ring-mode
    /// ladder and the registered-buffer pool they reported; v6 added the
    /// `resources` block (`ringprof`:
    /// per-worker kernel resource deltas, the conservation-checked time
    /// ledger, fleet CPU share, and the read-amplification ratios;
    /// `null` when no worker closed an epoch profile) and the
    /// `cpu_saturated` congestion
    /// state; v5 added the `congestion` block (episodes with
    /// worker, state, and time bounds, plus per-state totals) from the
    /// telemetry history layer; v4 added the derived `syscalls_per_batch`
    /// (and what v7 removed); v3 added the `trace` summary block
    /// (flight-recorder event and overflow-drop counts); v2 added the
    /// read-planner counters (`reads_planned`, `reads_saved`,
    /// `bytes_saved`) and the derived `coalesce_ratio`; v1 was the initial
    /// format.
    pub fn to_json_value(&self) -> Json {
        let m = &self.metrics;
        let mut counters = Json::object();
        for (key, value) in m.counters() {
            counters.push(key, Json::U64(value));
        }
        let derived = Json::object()
            .with("wait_fraction", Json::F64(self.wait_fraction()))
            .with("requests_per_syscall", Json::F64(m.requests_per_syscall()))
            .with("syscalls_per_batch", Json::F64(m.syscalls_per_batch()))
            .with("coalesce_ratio", Json::F64(m.coalesce_ratio()))
            .with("edges_per_second", Json::F64(self.edges_per_second()));
        let derived = with_dominant(derived, &self.account);
        let histograms = Json::object()
            .with("io_group_latency", hist_json(&self.account.group_latency))
            .with("batch_latency", hist_json(&self.account.batch_latency))
            .with("cq_wait", hist_json(&self.account.cq_wait));
        let trace_events: u64 = self.thread_events.iter().map(|e| e.len() as u64).sum();
        let trace = Json::object()
            .with("threads", Json::U64(self.thread_events.len() as u64))
            .with("events", Json::U64(trace_events))
            .with("dropped", Json::U64(self.trace_dropped));
        let resources = self.resources.as_ref().map_or(Json::Null, resources_json);
        Json::object()
            .with("schema_version", Json::U64(12))
            .with("threads", Json::U64(self.threads as u64))
            .with("wall_seconds", Json::F64(self.seconds()))
            .with("counters", counters)
            .with("derived", derived)
            .with("stage_nanos", stage_json(&self.account))
            .with("histograms", histograms)
            .with("trace", trace)
            .with("resources", resources)
    }

    /// The raw flight-recorder dump as JSON: per-thread event lists with
    /// wire-stable kind names, plus the total overflow-drop count. This is
    /// the `--trace-events` artifact the `ringtrace` analyzer consumes
    /// (see the bench harness's trace-events document for the file
    /// wrapper).
    pub fn trace_events_json_value(&self) -> Json {
        let workers: Vec<Json> = self
            .thread_events
            .iter()
            .enumerate()
            .map(|(tid, evs)| {
                let events: Vec<Json> = evs.iter().map(trace_event_json).collect();
                Json::object()
                    .with("thread", Json::U64(tid as u64))
                    .with("events", Json::Array(events))
            })
            .collect();
        Json::object()
            .with("dropped", Json::U64(self.trace_dropped))
            .with("workers", Json::Array(workers))
    }

    /// The JSON report document (pretty-printed, stable key order).
    pub fn to_json(&self) -> String {
        self.to_json_value().to_string_pretty()
    }
}

/// `obj` with the two dominant-stage keys of `account` appended:
/// `dominant_stage` (a stage name, `null` for an empty account) and
/// `dominant_share` (its share of all stage time, 0 for an empty account).
/// The report's `derived` block and `/progress`'s fleet row both end so.
pub(crate) fn with_dominant(obj: Json, account: &StageAccount) -> Json {
    let (stage, share) = match account.dominant() {
        Some((stage, share)) => (Json::str(stage.name()), share),
        None => (Json::Null, 0.0),
    };
    obj.with("dominant_stage", stage)
        .with("dominant_share", Json::F64(share))
}

/// An account's six stage sums as JSON, keyed by [`Stage::name`].
fn stage_json(account: &StageAccount) -> Json {
    let mut out = Json::object();
    for stage in Stage::ALL {
        out.push(stage.name(), Json::U64(account.get(stage)));
    }
    out
}

/// The report's `resources` JSON block.
fn resources_json(r: &ResourceReport) -> Json {
    let workers: Vec<Json> = r
        .workers
        .iter()
        .enumerate()
        .map(|(i, w)| {
            let s = &w.sample;
            Json::object()
                .with("worker", Json::U64(i as u64))
                .with("wall_nanos", Json::U64(w.wall_nanos))
                .with("cpu_nanos", Json::U64(s.cpu_nanos))
                .with("user_nanos", Json::U64(s.user_nanos))
                .with("sys_nanos", Json::U64(s.sys_nanos))
                .with("cpu_share", Json::F64(w.cpu_share()))
                .with("vol_ctx_switches", Json::U64(s.vol_ctx_switches))
                .with("invol_ctx_switches", Json::U64(s.invol_ctx_switches))
                .with("ctx_switches_per_sec", Json::F64(w.ctx_switches_per_sec()))
                .with("minor_faults", Json::U64(s.minor_faults))
                .with("major_faults", Json::U64(s.major_faults))
                .with("faults_per_sec", Json::F64(w.faults_per_sec()))
                .with("logical_bytes", Json::U64(w.logical_bytes))
                .with(
                    "attributed_physical_bytes",
                    Json::U64(r.attributed_physical_bytes(w.logical_bytes)),
                )
                .with("stage_nanos", stage_json(&w.account))
        })
        .collect();
    let fleet = Json::object()
        .with("cpu_nanos", Json::U64(r.fleet.cpu_nanos))
        .with("user_nanos", Json::U64(r.fleet.user_nanos))
        .with("sys_nanos", Json::U64(r.fleet.sys_nanos))
        .with("cpu_share", Json::F64(r.fleet_cpu_share()))
        .with("vol_ctx_switches", Json::U64(r.fleet.vol_ctx_switches))
        .with("invol_ctx_switches", Json::U64(r.fleet.invol_ctx_switches))
        .with("minor_faults", Json::U64(r.fleet.minor_faults))
        .with("major_faults", Json::U64(r.fleet.major_faults));
    Json::object()
        .with("workers", Json::Array(workers))
        .with("fleet", fleet)
        .with("physical_rchar", Json::U64(r.physical_rchar))
        .with("physical_read_bytes", Json::U64(r.physical_read_bytes))
        .with("logical_bytes", Json::U64(r.logical_bytes))
        .with("read_amplification", Json::F64(r.read_amplification()))
        .with(
            "block_read_amplification",
            Json::F64(r.block_read_amplification()),
        )
        // /proc/self/io is process-wide: per-worker physical bytes above
        // are a proportional attribution, and this label says so.
        .with("physical_attribution", Json::str("proportional"))
}

fn hist_json(h: &LatencyHistogram) -> Json {
    let buckets: Vec<Json> = h
        .nonzero_buckets()
        .map(|(lo, hi, c)| Json::Array(vec![Json::U64(lo), Json::U64(hi), Json::U64(c)]))
        .collect();
    Json::object()
        .with("count", Json::U64(h.count()))
        .with("sum_nanos", Json::U64(h.sum()))
        .with("min_nanos", Json::U64(h.min()))
        .with("max_nanos", Json::U64(h.max()))
        .with("mean_nanos", Json::F64(h.mean()))
        .with("p50_nanos", Json::U64(h.p50()))
        .with("p95_nanos", Json::U64(h.p95()))
        .with("p99_nanos", Json::U64(h.p99()))
        .with("buckets", Json::Array(buckets))
}

impl std::fmt::Display for EpochReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:.3}s: {} batches, {} edges sampled, {} reads ({}) in {} groups, {} syscalls ({:.0} reqs/syscall), {} threads",
            self.seconds(),
            human_count(self.metrics.batches),
            human_count(self.metrics.sampled_edges),
            human_count(self.metrics.io_requests),
            human_bytes(self.metrics.io_bytes),
            human_count(self.metrics.io_groups),
            human_count(self.metrics.syscalls),
            self.metrics.requests_per_syscall(),
            self.threads
        )?;
        let groups = &self.account.group_latency;
        if !groups.is_empty() {
            write!(
                f,
                ", group p50/p99 {}/{}",
                human_nanos(groups.p50()),
                human_nanos(groups.p99())
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ringstat::EventKind;

    /// A `batch_end` at `ts_ns` closing batch `index` after `dur_ns`.
    fn batch_end(ts_ns: u64, index: u64, dur_ns: u64) -> TraceEvent {
        TraceEvent {
            ts_ns,
            kind: EventKind::BatchEnd,
            a: index,
            b: dur_ns,
            c: 1,
            d: 0,
        }
    }

    #[test]
    fn merge_adds_fields() {
        let mut a = SampleMetrics {
            batches: 1,
            io_requests: 10,
            io_bytes: 40,
            ..Default::default()
        };
        let b = SampleMetrics {
            batches: 2,
            io_requests: 5,
            syscalls: 3,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.batches, 3);
        assert_eq!(a.io_requests, 15);
        assert_eq!(a.io_bytes, 40);
        assert_eq!(a.syscalls, 3);
        assert_eq!(a.requests_per_syscall(), 5.0);
    }

    #[test]
    fn zero_division_guards() {
        let m = SampleMetrics::default();
        assert_eq!(m.requests_per_syscall(), 0.0);
        assert_eq!(m.coalesce_ratio(), 0.0);
        let r = EpochReport::default();
        assert_eq!(r.wait_fraction(), 0.0);
        assert_eq!(r.edges_per_second(), 0.0);
        let json = r.to_json();
        assert!(json.contains("\"dominant_stage\": null"), "{json}");
        assert!(json.contains("\"dominant_share\": 0.0"), "{json}");
    }

    #[test]
    fn planner_counters_flow_to_exports() {
        let mut w = WorkerStats::default();
        w.metrics.reads_planned = 25;
        w.metrics.reads_saved = 75;
        w.metrics.bytes_saved = 300;
        assert!((w.metrics.coalesce_ratio() - 4.0).abs() < 1e-9);
        let r = w.into_epoch_report(Duration::from_secs(1));
        let json = r.to_json();
        for key in [
            "\"reads_planned\": 25",
            "\"reads_saved\": 75",
            "\"bytes_saved\": 300",
            "\"coalesce_ratio\": 4",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }

    #[test]
    fn every_counter_reaches_the_json() {
        // The one counter list builds the JSON `counters` block.
        let r = WorkerStats::default().into_epoch_report(Duration::from_secs(1));
        let json = r.to_json();
        for (key, _) in r.metrics.counters() {
            assert!(json.contains(&format!("\"{key}\": 0")), "missing {key} in {json}");
        }
    }

    #[test]
    fn wait_fraction_math() {
        let mut r = EpochReport::default();
        r.account.add(Stage::Sample, 80);
        r.account.add(Stage::Plan, 20);
        r.account.add(Stage::Submit, 150);
        r.account.add(Stage::Wait, 700);
        r.account.add(Stage::Reap, 50);
        // Decode time is downstream of the wait and stays out of it.
        r.account.add(Stage::Scatter, 9_000);
        assert!((r.wait_fraction() - 0.75).abs() < 1e-9);
    }

    #[test]
    fn report_display() {
        let r = EpochReport {
            metrics: SampleMetrics {
                batches: 4,
                sampled_edges: 100,
                io_requests: 100,
                syscalls: 2,
                ..Default::default()
            },
            wall: Duration::from_millis(500),
            threads: 8,
            ..Default::default()
        };
        let s = r.to_string();
        assert!(s.contains("4 batches"));
        assert!(s.contains("8 threads"));
        assert!((r.seconds() - 0.5).abs() < 1e-9);
        assert!((r.edges_per_second() - 200.0).abs() < 1e-6);
    }

    #[test]
    fn display_humanizes_large_values() {
        let mut account = StageAccount::default();
        account.group_latency.record(90_000); // 90 µs
        let r = EpochReport {
            metrics: SampleMetrics {
                batches: 1_200,
                sampled_edges: 2_500_000,
                io_requests: 2_500_000,
                io_bytes: 5 * 1024 * 1024 * 1024,
                io_groups: 4_900,
                syscalls: 9_800,
                ..Default::default()
            },
            wall: Duration::from_secs(2),
            threads: 64,
            account,
            ..Default::default()
        };
        let s = r.to_string();
        assert!(s.contains("1,200 batches"), "{s}");
        assert!(s.contains("2,500,000 edges sampled"), "{s}");
        assert!(s.contains("5.0 GiB"), "{s}");
        assert!(s.contains("group p50/p99"), "{s}");
        // Raw values stay raw in the JSON export.
        let json = r.to_json();
        assert!(json.contains("\"io_bytes\": 5368709120"), "{json}");
        assert!(json.contains("\"sampled_edges\": 2500000"), "{json}");
    }

    #[test]
    fn absorb_merges_distributions_and_keeps_spans_per_thread() {
        let mk = |latency: u64, batches: u64| {
            let mut w = WorkerStats::default();
            w.metrics.batches = 1;
            w.account.group_latency.record(latency);
            w.account.add(Stage::Sample, 100);
            w.events = (0..batches).map(|i| batch_end(10 * i + 5, i, 5)).collect();
            w
        };
        let mut r = EpochReport::default();
        r.absorb(mk(1_000, 2));
        r.absorb(mk(1_000_000, 3));
        r.threads = 2;
        assert_eq!(r.metrics.batches, 2);
        assert_eq!(r.account.group_latency.count(), 2);
        assert_eq!(r.account.get(Stage::Sample), 200);
        assert_eq!(r.thread_events.len(), 2);
        assert_eq!(r.thread_events[1].len(), 3);
    }

    #[test]
    fn json_report_has_schema_and_quantiles() {
        let mut w = WorkerStats::default();
        for v in [1_000u64, 2_000, 4_000, 1_000_000] {
            w.account.group_latency.record(v);
        }
        w.account.add(Stage::Submit, 123);
        let r = w.into_epoch_report(Duration::from_secs(1));
        assert_eq!(r.threads, 1);
        let json = r.to_json();
        for key in [
            "\"schema_version\": 12",
            "\"counters\"",
            "\"derived\"",
            "\"stage_nanos\"",
            "\"submit\": 123",
            "\"dominant_stage\": \"submit\"",
            "\"dominant_share\": 1.0",
            "\"io_group_latency\"",
            "\"p50_nanos\"",
            "\"p95_nanos\"",
            "\"p99_nanos\"",
            "\"trace\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        // No epoch profile closed for this synthetic report: the
        // resources block must be explicitly null, not missing.
        assert!(json.contains("\"resources\": null"), "{json}");
    }

    #[test]
    fn worker_stage_nanos_are_its_account() {
        // Two workers with different accounts: each resources row carries
        // its own worker's six sums, and the top level their merge.
        let mk = |scale: u64| {
            let mut w = WorkerStats::default();
            for (i, stage) in Stage::ALL.into_iter().enumerate() {
                w.account.add(stage, scale * (i as u64 + 1));
            }
            w.resources = Some(WorkerResources {
                wall_nanos: 1_000_000,
                account: w.account,
                ..Default::default()
            });
            w
        };
        let workers = [mk(10), mk(1_000)];
        let mut r = EpochReport::default();
        for w in workers.iter().cloned() {
            r.absorb(w);
        }
        let json = Json::parse(&r.to_json()).unwrap();
        let rows = json.get("resources").and_then(|r| r.get("workers")).and_then(Json::as_array).unwrap();
        assert_eq!(rows.len(), 2);
        for (row, w) in rows.iter().zip(&workers) {
            let stages = row.get("stage_nanos").unwrap();
            for stage in Stage::ALL {
                let got = stages.get(stage.name()).and_then(Json::as_u64);
                assert_eq!(got, Some(w.account.get(stage)), "{}", stage.name());
            }
        }
        let top = json.get("stage_nanos").unwrap();
        for stage in Stage::ALL {
            assert_eq!(top.get(stage.name()).and_then(Json::as_u64), Some(r.account.get(stage)));
        }
    }

    #[test]
    fn trace_events_flow_to_report_and_dump() {
        let mk = |tid: u64, dropped: u64| WorkerStats {
            events: vec![
                TraceEvent {
                    ts_ns: 10 * tid,
                    kind: EventKind::BatchStart,
                    a: tid,
                    b: 64,
                    c: 0,
                    d: 0,
                },
                TraceEvent {
                    ts_ns: 10 * tid + 5,
                    kind: EventKind::BatchEnd,
                    a: tid,
                    b: 5,
                    c: 2,
                    d: 0,
                },
            ],
            trace_dropped: dropped,
            ..Default::default()
        };
        let mut r = EpochReport::default();
        r.absorb(mk(0, 0));
        r.absorb(mk(1, 3));
        assert_eq!(r.thread_events.len(), 2);
        assert_eq!(r.trace_dropped, 3);
        let json = r.to_json();
        assert!(json.contains("\"trace\""), "{json}");
        assert!(json.contains("\"dropped\": 3"), "{json}");
        // The raw dump round-trips through the JSON parser.
        let dump = r.trace_events_json_value().to_string_pretty();
        let parsed = Json::parse(&dump).expect("dump parses");
        assert_eq!(parsed.get("dropped").and_then(Json::as_u64), Some(3));
        let workers = parsed.get("workers").and_then(Json::as_array).unwrap();
        assert_eq!(workers.len(), 2);
        let ev0 = workers[0].get("events").and_then(Json::as_array).unwrap();
        assert_eq!(ev0.len(), 2);
        assert_eq!(
            ev0[0].get("kind").and_then(Json::as_str),
            Some("batch_start")
        );
        assert_eq!(ev0[1].get("b").and_then(Json::as_u64), Some(5));
    }
}
