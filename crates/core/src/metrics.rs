//! Sampling metrics: per-thread counters and distributions merged into
//! per-epoch reports.
//!
//! Each worker thread privately accumulates a [`SampleMetrics`] plus the
//! `ringstat` distributions ([`WorkerStats`]); at epoch join the engine
//! folds them into one [`EpochReport`], which exports three artifact
//! formats: JSON ([`EpochReport::to_json`]), Prometheus text exposition
//! ([`EpochReport::to_prometheus`]), and a Chrome/Perfetto trace
//! ([`EpochReport::to_chrome_trace`]).

use std::time::Duration;

use ringstat::{
    human_bytes, human_count, human_nanos, ChromeTrace, Json, LatencyHistogram, Phase,
    PhaseTimes, PromWriter, ResourceSample, TimeLedger, TraceEvent,
};

use crate::telemetry::{CongestionEpisode, CongestionState};

/// Counters accumulated while sampling (mergeable across threads).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SampleMetrics {
    /// Mini-batches processed.
    pub batches: u64,
    /// Layer-sampling passes executed.
    pub layers: u64,
    /// Target nodes processed (summed over layers).
    pub targets: u64,
    /// Neighbor entries sampled (= edges in the output blocks).
    pub sampled_edges: u64,
    /// Individual disk read requests issued.
    pub io_requests: u64,
    /// Bytes read from disk.
    pub io_bytes: u64,
    /// I/O groups submitted.
    pub io_groups: u64,
    /// Syscalls issued by the I/O engine.
    pub syscalls: u64,
    /// Sampled entries served from the hot set (0 when caching is off).
    pub cache_hits: u64,
    /// Sampled entries the hot set does not hold (read from the file).
    pub cache_misses: u64,
    /// Read requests issued after read planning (0 with `read_plan = Off`;
    /// see `crate::plan`).
    pub reads_planned: u64,
    /// Read requests the planner eliminated via dedup/coalescing, relative
    /// to the naive one-read-per-entry plan.
    pub reads_saved: u64,
    /// Payload bytes the planner avoided transferring (saturating: a gap
    /// merge that reads more than it saves contributes 0).
    pub bytes_saved: u64,
}

impl SampleMetrics {
    /// Merges `other` into `self`.
    pub fn merge(&mut self, other: &SampleMetrics) {
        self.batches += other.batches;
        self.layers += other.layers;
        self.targets += other.targets;
        self.sampled_edges += other.sampled_edges;
        self.io_requests += other.io_requests;
        self.io_bytes += other.io_bytes;
        self.io_groups += other.io_groups;
        self.syscalls += other.syscalls;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.reads_planned += other.reads_planned;
        self.reads_saved += other.reads_saved;
        self.bytes_saved += other.bytes_saved;
    }

    /// Mean read requests per syscall — the io_uring batching win.
    pub fn requests_per_syscall(&self) -> f64 {
        if self.syscalls == 0 {
            0.0
        } else {
            self.io_requests as f64 / self.syscalls as f64
        }
    }

    /// Mean I/O-engine syscalls per mini-batch.
    pub fn syscalls_per_batch(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.syscalls as f64 / self.batches as f64
        }
    }

    /// Mean naive reads folded into each planned read (≥ 1.0 once any
    /// planning ran; 0.0 when `read_plan = Off`). The read-plan optimizer's
    /// headline ratio: naive requests ÷ planned requests.
    pub fn coalesce_ratio(&self) -> f64 {
        if self.reads_planned == 0 {
            0.0
        } else {
            (self.reads_planned + self.reads_saved) as f64 / self.reads_planned as f64
        }
    }
}

/// One worker's `ringprof` epoch delta: the kernel counter deltas its
/// thread accumulated between epoch start and join, plus the time ledger
/// derived from them and the stage clock.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct WorkerResources {
    /// Wall nanoseconds between the worker's epoch-start and epoch-end
    /// resource samples (the ledger's denominator).
    pub wall_nanos: u64,
    /// Kernel counter deltas over the epoch. Thread-scoped except the
    /// `proc_*` fields, which are process-wide (see
    /// [`ringstat::ResourceSample`]).
    pub sample: ResourceSample,
    /// The `{compute, submit, io_wait, reap, other}` wall-time split.
    pub ledger: TimeLedger,
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

/// The epoch-level `ringprof` block (report schema v6): per-worker
/// deltas, the fleet roll-up, the process-wide physical I/O deltas, and
/// the derived read-amplification ratios.
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
    /// Bucket-wise sum of every worker's ledger.
    pub fleet_ledger: TimeLedger,
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
        self.fleet_ledger.merge(&worker.ledger);
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

    /// Fraction of the fleet's wall time its threads spent on-CPU.
    pub fn fleet_cpu_share(&self) -> f64 {
        if self.fleet_ledger.wall_nanos == 0 {
            0.0
        } else {
            (self.fleet.cpu_nanos as f64 / self.fleet_ledger.wall_nanos as f64).min(1.0)
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

    /// True iff every worker's stage buckets sum exactly to its in-batch
    /// wall (see [`TimeLedger::conserves`]).
    pub fn conserves(&self) -> bool {
        self.workers.iter().all(|w| w.ledger.conserves())
    }
}

/// Everything one worker thread accumulated over its lifetime: flat
/// counters plus the thread-private `ringstat` distributions.
///
/// Produced by [`crate::worker::SamplerWorker::take_stats`]; merged into
/// an [`EpochReport`] with [`EpochReport::absorb`]. Thread-private until
/// the join — no synchronization is involved in recording.
#[derive(Debug, Clone, Default)]
pub struct WorkerStats {
    /// Flat counters (including cache hits/misses).
    pub metrics: SampleMetrics,
    /// Latency per I/O group: start of its `Submit` lap to end of its
    /// `Complete` lap on the worker's stage clock, for either engine.
    pub group_latency: LatencyHistogram,
    /// Wall latency per sampled mini-batch.
    pub batch_latency: LatencyHistogram,
    /// The `Complete` lap of each group (the whole `complete_group` call;
    /// its blocking part alone is `group_complete.c`).
    pub cq_wait: LatencyHistogram,
    /// Nanoseconds per pipeline phase (prepare/submit/complete/aggregate);
    /// their total is exactly `batch_latency`'s sum.
    pub phases: PhaseTimes,
    /// Flight-recorder events drained from this thread's event ring
    /// (empty for the non-destructive
    /// [`stats`](crate::worker::SamplerWorker::stats) snapshot; populated
    /// by `take_stats` at epoch join).
    pub events: Vec<TraceEvent>,
    /// Events the ring dropped on overflow (recording never blocks; the
    /// drop counter is the recorder's overload signal).
    pub trace_dropped: u64,
    /// `ringprof` epoch delta for this worker: populated by the
    /// epoch-join path (`take_stats`) when `profile_resources` is on;
    /// `None` from the non-destructive `stats` snapshot or with
    /// profiling disabled.
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
    /// Merged per-I/O-group submit→complete latency across all threads.
    pub group_latency: LatencyHistogram,
    /// Merged per-batch sampling latency across all threads.
    pub batch_latency: LatencyHistogram,
    /// Merged `Complete` laps across all threads, one sample per group:
    /// the whole `complete_group` call (polling, parking and reaping), not
    /// its blocking part alone. Same meaning under `histograms.cq_wait` in
    /// the JSON report and `ringsampler_cq_wait_seconds`.
    pub cq_wait: LatencyHistogram,
    /// Merged phase times across all threads.
    pub phases: PhaseTimes,
    /// One flight-recorder event list per worker thread (indexed by
    /// worker id), feeding the Chrome trace export, the `--trace-events`
    /// dump and the `ringtrace` analyzer.
    pub thread_events: Vec<Vec<TraceEvent>>,
    /// Total flight-recorder events dropped on ring overflow, across all
    /// threads.
    pub trace_dropped: u64,
    /// Congestion episodes the telemetry history layer recorded during
    /// this epoch (empty when telemetry or history is off): every
    /// contiguous run of a non-`ok` verdict, with its time bounds on the
    /// telemetry timeline. Drained from the registry at epoch join.
    pub congestion: Vec<CongestionEpisode>,
    /// `ringprof` kernel resource attribution: per-worker deltas, the
    /// fleet roll-up, and the read-amplification ratios. `None` when
    /// `profile_resources` is off. Worker entries accumulate via
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
        self.group_latency.merge(&worker.group_latency);
        self.batch_latency.merge(&worker.batch_latency);
        self.cq_wait.merge(&worker.cq_wait);
        self.phases.merge(&worker.phases);
        self.thread_events.push(worker.events);
        self.trace_dropped += worker.trace_dropped;
        if let Some(res) = worker.resources {
            self.resources.get_or_insert_with(Default::default).absorb(res);
        }
    }

    /// The `resources` block alone as a JSON value (`Null` with
    /// profiling off) — also the payload the engine publishes for
    /// ringscope's `GET /resources`.
    pub fn resources_json_value(&self) -> Json {
        match &self.resources {
            Some(r) => resources_json(r),
            None => Json::Null,
        }
    }

    /// Fraction of pipeline time ahead of the decode spent waiting on
    /// completions rather than preparing and submitting work,
    /// `complete / (prepare + submit + complete)` — the quantity the
    /// Fig. 3b async pipeline minimizes.
    pub fn wait_fraction(&self) -> f64 {
        let complete = self.phases.get(Phase::Complete);
        let total = self.phases.total() - self.phases.get(Phase::Aggregate);
        if total == 0 {
            0.0
        } else {
            complete as f64 / total as f64
        }
    }

    /// The report as a JSON tree (`schema_version` 8). Raw values only —
    /// humanization is a Display concern.
    ///
    /// Schema history: v8 only removes — the `spans` block left with the
    /// span log (the Chrome trace is a fold over the `trace` events) and
    /// the counters `prepare_nanos` / `complete_nanos` were
    /// `phase_nanos.submit` / `.complete` stored twice; v7 only removes —
    /// the `ring` block and the counters `fixed_buf_reads`,
    /// `regbuf_fallbacks`, `bufring_reads`, `bufring_recycles`,
    /// `ring_mode_fallbacks` left with the ring-mode
    /// ladder and the registered-buffer pool they reported; v6 added the
    /// `resources` block (`ringprof`:
    /// per-worker kernel resource deltas, the conservation-checked time
    /// ledger, fleet CPU share, and the read-amplification ratios;
    /// `null` when profiling is off) and the `cpu_saturated` congestion
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
        let counters = Json::object()
            .with("batches", Json::U64(m.batches))
            .with("layers", Json::U64(m.layers))
            .with("targets", Json::U64(m.targets))
            .with("sampled_edges", Json::U64(m.sampled_edges))
            .with("io_requests", Json::U64(m.io_requests))
            .with("io_bytes", Json::U64(m.io_bytes))
            .with("io_groups", Json::U64(m.io_groups))
            .with("syscalls", Json::U64(m.syscalls))
            .with("cache_hits", Json::U64(m.cache_hits))
            .with("cache_misses", Json::U64(m.cache_misses))
            .with("reads_planned", Json::U64(m.reads_planned))
            .with("reads_saved", Json::U64(m.reads_saved))
            .with("bytes_saved", Json::U64(m.bytes_saved));
        let derived = Json::object()
            .with("wait_fraction", Json::F64(self.wait_fraction()))
            .with("requests_per_syscall", Json::F64(m.requests_per_syscall()))
            .with("syscalls_per_batch", Json::F64(m.syscalls_per_batch()))
            .with("coalesce_ratio", Json::F64(m.coalesce_ratio()))
            .with("edges_per_second", Json::F64(self.edges_per_second()));
        let mut phases = Json::object();
        for p in Phase::ALL {
            phases.push(p.name(), Json::U64(self.phases.get(p)));
        }
        let histograms = Json::object()
            .with("io_group_latency", hist_json(&self.group_latency))
            .with("batch_latency", hist_json(&self.batch_latency))
            .with("cq_wait", hist_json(&self.cq_wait));
        let trace_events: u64 = self.thread_events.iter().map(|e| e.len() as u64).sum();
        let trace = Json::object()
            .with("threads", Json::U64(self.thread_events.len() as u64))
            .with("events", Json::U64(trace_events))
            .with("dropped", Json::U64(self.trace_dropped));
        let episodes: Vec<Json> = self
            .congestion
            .iter()
            .map(|e| {
                Json::object()
                    .with("worker", Json::U64(e.worker as u64))
                    .with("state", Json::str(e.state.name()))
                    .with("start_ms", Json::U64(e.start_ms))
                    .with("end_ms", Json::U64(e.end_ms))
            })
            .collect();
        let mut by_state = Json::object();
        for state in CongestionState::NON_OK {
            let n = self.congestion.iter().filter(|e| e.state == state).count();
            by_state.push(state.name(), Json::U64(n as u64));
        }
        let congestion = Json::object()
            .with("episodes", Json::Array(episodes))
            .with("by_state", by_state);
        let resources = self.resources_json_value();
        Json::object()
            .with("schema_version", Json::U64(8))
            .with("threads", Json::U64(self.threads as u64))
            .with("wall_seconds", Json::F64(self.seconds()))
            .with("counters", counters)
            .with("derived", derived)
            .with("phase_nanos", phases)
            .with("histograms", histograms)
            .with("trace", trace)
            .with("congestion", congestion)
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
                let events: Vec<Json> = evs
                    .iter()
                    .map(|e| {
                        Json::object()
                            .with("ts_ns", Json::U64(e.ts_ns))
                            .with("kind", Json::Str(e.kind.name().to_string()))
                            .with("a", Json::U64(e.a))
                            .with("b", Json::U64(e.b))
                            .with("c", Json::U64(e.c))
                            .with("d", Json::U64(e.d))
                    })
                    .collect();
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

    /// Appends this report's metric families to a Prometheus exposition,
    /// tagging every sample with `labels` (e.g. `[("run", "fig4")]`).
    pub fn write_prometheus(&self, w: &mut PromWriter, labels: &[(&str, &str)]) {
        let m = &self.metrics;
        // Info-style schema marker (value always 1): scrapers key off the
        // `schema` label to detect format bumps, mirroring the JSON
        // export's `schema_version`.
        let mut with_schema: Vec<(&str, &str)> = labels.to_vec();
        with_schema.push(("schema", "8"));
        w.gauge(
            "ringsampler_report_info",
            "Report format marker; the schema label tracks the JSON schema_version",
            &with_schema,
            1.0,
        );
        w.counter("ringsampler_batches_total", "Mini-batches sampled", labels, m.batches);
        w.counter(
            "ringsampler_sampled_edges_total",
            "Neighbor entries sampled",
            labels,
            m.sampled_edges,
        );
        w.counter(
            "ringsampler_io_requests_total",
            "Individual disk read requests",
            labels,
            m.io_requests,
        );
        w.counter("ringsampler_io_bytes_total", "Bytes read from disk", labels, m.io_bytes);
        w.counter("ringsampler_io_groups_total", "I/O groups submitted", labels, m.io_groups);
        w.counter(
            "ringsampler_syscalls_total",
            "Syscalls issued by the I/O engine",
            labels,
            m.syscalls,
        );
        w.counter("ringsampler_cache_hits_total", "Page-cache hits", labels, m.cache_hits);
        w.counter(
            "ringsampler_cache_misses_total",
            "Page-cache misses",
            labels,
            m.cache_misses,
        );
        w.counter(
            "ringsampler_reads_planned_total",
            "Read requests issued after read planning",
            labels,
            m.reads_planned,
        );
        w.counter(
            "ringsampler_reads_saved_total",
            "Read requests eliminated by dedup/coalescing",
            labels,
            m.reads_saved,
        );
        w.counter(
            "ringsampler_bytes_saved_total",
            "Payload bytes the read planner avoided transferring",
            labels,
            m.bytes_saved,
        );
        w.counter(
            "ringsampler_trace_dropped_total",
            "Flight-recorder events dropped on ring overflow",
            labels,
            self.trace_dropped,
        );
        // Congestion episodes by state, every non-ok state emitted
        // (zeros included) so the label set is stable across runs.
        for state in CongestionState::NON_OK {
            let n = self.congestion.iter().filter(|e| e.state == state).count() as u64;
            let mut with_state: Vec<(&str, &str)> = labels.to_vec();
            with_state.push(("state", state.name()));
            w.counter(
                "ringsampler_congestion_episodes_total",
                "Congestion episodes (contiguous non-ok verdicts) recorded this epoch",
                &with_state,
                n,
            );
        }
        for p in Phase::ALL {
            let mut with_phase: Vec<(&str, &str)> = labels.to_vec();
            with_phase.push(("phase", p.name()));
            w.counter(
                "ringsampler_phase_nanos_total",
                "Nanoseconds per pipeline phase",
                &with_phase,
                self.phases.get(p),
            );
        }
        // ringprof families — emitted only when profiling ran, so a
        // profiling-off exposition is byte-identical to pre-v6 output
        // modulo the schema label.
        if let Some(r) = &self.resources {
            for (mode, nanos) in [("user", r.fleet.user_nanos), ("sys", r.fleet.sys_nanos)] {
                let mut with_mode: Vec<(&str, &str)> = labels.to_vec();
                with_mode.push(("mode", mode));
                w.gauge(
                    "ringsampler_cpu_seconds_total",
                    "Fleet CPU time by mode (getrusage RUSAGE_THREAD, summed over workers)",
                    &with_mode,
                    nanos as f64 / 1e9,
                );
            }
            for (kind, n) in [
                ("voluntary", r.fleet.vol_ctx_switches),
                ("involuntary", r.fleet.invol_ctx_switches),
            ] {
                let mut with_kind: Vec<(&str, &str)> = labels.to_vec();
                with_kind.push(("kind", kind));
                w.counter(
                    "ringsampler_ctx_switches_total",
                    "Fleet context switches by kind",
                    &with_kind,
                    n,
                );
            }
            for (kind, n) in [("minor", r.fleet.minor_faults), ("major", r.fleet.major_faults)] {
                let mut with_kind: Vec<(&str, &str)> = labels.to_vec();
                with_kind.push(("kind", kind));
                w.counter(
                    "ringsampler_page_faults_total",
                    "Fleet page faults by kind",
                    &with_kind,
                    n,
                );
            }
            for (bucket, nanos) in r.fleet_ledger.buckets() {
                let mut with_bucket: Vec<(&str, &str)> = labels.to_vec();
                with_bucket.push(("bucket", bucket));
                w.counter(
                    "ringsampler_ledger_nanos_total",
                    "Fleet time-ledger nanoseconds by bucket (other = between batches)",
                    &with_bucket,
                    nanos,
                );
            }
            w.gauge(
                "ringsampler_cpu_share",
                "Fleet on-CPU fraction of epoch wall time",
                labels,
                r.fleet_cpu_share(),
            );
            w.gauge(
                "ringsampler_read_amplification",
                "Process-wide kernel-boundary bytes (rchar) per logical byte sampled",
                labels,
                r.read_amplification(),
            );
            w.gauge(
                "ringsampler_block_read_amplification",
                "Storage-layer bytes (read_bytes) per logical byte sampled",
                labels,
                r.block_read_amplification(),
            );
        }
        w.gauge("ringsampler_epoch_seconds", "Epoch wall time", labels, self.seconds());
        w.gauge(
            "ringsampler_wait_fraction",
            "Fraction of I/O-path time spent waiting on completions",
            labels,
            self.wait_fraction(),
        );
        w.gauge(
            "ringsampler_requests_per_syscall",
            "Mean read requests per syscall",
            labels,
            m.requests_per_syscall(),
        );
        w.gauge(
            "ringsampler_coalesce_ratio",
            "Mean naive reads folded into each planned read",
            labels,
            m.coalesce_ratio(),
        );
        w.gauge("ringsampler_threads", "Worker threads", labels, self.threads as f64);
        w.histogram(
            "ringsampler_io_group_latency_seconds",
            "Submit-to-complete latency per I/O group",
            labels,
            &self.group_latency,
        );
        w.histogram(
            "ringsampler_batch_latency_seconds",
            "Wall latency per sampled mini-batch",
            labels,
            &self.batch_latency,
        );
        w.histogram(
            "ringsampler_cq_wait_seconds",
            "CQ wait time per completed group",
            labels,
            &self.cq_wait,
        );
    }

    /// The full Prometheus text-exposition document for this report.
    pub fn to_prometheus(&self) -> String {
        let mut w = PromWriter::new();
        self.write_prometheus(&mut w, &[]);
        w.finish()
    }

    /// A Chrome trace-event document (Perfetto-viewable): one timeline row
    /// per worker thread, with its batches and their stages folded from
    /// the flight-recorder events. Metadata events name the process and
    /// each worker lane so the viewer shows "ringsampler / worker-N"
    /// instead of bare pid/tid numbers.
    pub fn to_chrome_trace(&self) -> String {
        let lanes = self.thread_events.iter().enumerate();
        ChromeTrace::from_events(lanes.map(|(tid, evs)| (format!("worker-{tid}"), evs.as_slice())))
            .to_json()
    }
}

/// The `resources` JSON block (shared by the epoch report and the
/// `ringscope` `/resources` endpoint, so both stay byte-compatible).
pub(crate) fn resources_json(r: &ResourceReport) -> Json {
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
                .with("ledger", ledger_json(&w.ledger))
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
        .with("major_faults", Json::U64(r.fleet.major_faults))
        .with("ledger", ledger_json(&r.fleet_ledger));
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
        .with("conserved", Json::Bool(r.conserves()))
}

/// One time ledger as JSON: the five buckets, the stage share of wall and
/// the between-batches share, and the conservation verdict.
pub(crate) fn ledger_json(l: &TimeLedger) -> Json {
    let mut out = Json::object().with("wall_nanos", Json::U64(l.wall_nanos));
    for (name, ns) in l.buckets() {
        out.push(&format!("{name}_nanos"), Json::U64(ns));
    }
    out.with("accounted_share", Json::F64(l.accounted_share()))
        .with("unaccounted_share", Json::F64(l.unaccounted_share()))
        .with("conserved", Json::Bool(l.conserves()))
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
        if !self.group_latency.is_empty() {
            write!(
                f,
                ", group p50/p99 {}/{}",
                human_nanos(self.group_latency.p50()),
                human_nanos(self.group_latency.p99())
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
        let prom = r.to_prometheus();
        for family in [
            "ringsampler_reads_planned_total 25",
            "ringsampler_reads_saved_total 75",
            "ringsampler_bytes_saved_total 300",
            "ringsampler_coalesce_ratio 4",
        ] {
            assert!(prom.contains(family), "missing {family} in {prom}");
        }
    }

    #[test]
    fn wait_fraction_math() {
        let mut r = EpochReport::default();
        r.phases.add(Phase::Prepare, 100);
        r.phases.add(Phase::Submit, 150);
        r.phases.add(Phase::Complete, 750);
        // Decode time is downstream of the wait and stays out of it.
        r.phases.add(Phase::Aggregate, 9_000);
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
        let mut group_latency = LatencyHistogram::new();
        group_latency.record(90_000); // 90 µs
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
            group_latency,
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
            w.group_latency.record(latency);
            w.phases.add(Phase::Prepare, 100);
            w.events = (0..batches).map(|i| batch_end(10 * i + 5, i, 5)).collect();
            w
        };
        let mut r = EpochReport::default();
        r.absorb(mk(1_000, 2));
        r.absorb(mk(1_000_000, 3));
        r.threads = 2;
        assert_eq!(r.metrics.batches, 2);
        assert_eq!(r.group_latency.count(), 2);
        assert_eq!(r.phases.get(Phase::Prepare), 200);
        assert_eq!(r.thread_events.len(), 2);
        assert_eq!(r.thread_events[1].len(), 3);

        let trace = r.to_chrome_trace();
        assert!(trace.contains("\"tid\": 1"));
        assert_eq!(trace.matches("\"ph\": \"X\"").count(), 5);
    }

    #[test]
    fn json_report_has_schema_and_quantiles() {
        let mut w = WorkerStats::default();
        for v in [1_000u64, 2_000, 4_000, 1_000_000] {
            w.group_latency.record(v);
        }
        w.phases.add(Phase::Submit, 123);
        let r = w.into_epoch_report(Duration::from_secs(1));
        assert_eq!(r.threads, 1);
        let json = r.to_json();
        for key in [
            "\"schema_version\": 8",
            "\"counters\"",
            "\"derived\"",
            "\"phase_nanos\"",
            "\"submit\": 123",
            "\"io_group_latency\"",
            "\"p50_nanos\"",
            "\"p95_nanos\"",
            "\"p99_nanos\"",
            "\"trace\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        // Profiling was off for this synthetic report: the resources
        // block must be explicitly null, not missing.
        assert!(json.contains("\"resources\": null"), "{json}");
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
        let prom = r.to_prometheus();
        assert!(prom.contains("ringsampler_trace_dropped_total 3"), "{prom}");
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

    #[test]
    fn chrome_trace_names_process_and_lanes() {
        let w = WorkerStats {
            events: vec![batch_end(5, 0, 5)],
            ..Default::default()
        };
        let r = w.into_epoch_report(Duration::from_secs(1));
        let trace = r.to_chrome_trace();
        assert!(trace.contains("\"ph\": \"M\""), "{trace}");
        assert!(trace.contains("process_name"), "{trace}");
        assert!(trace.contains("ringsampler"), "{trace}");
        assert!(trace.contains("worker-0"), "{trace}");
    }

    #[test]
    fn prometheus_export_has_all_families() {
        let mut w = WorkerStats::default();
        w.metrics.io_requests = 64;
        w.metrics.syscalls = 2;
        w.group_latency.record(50_000);
        let r = w.into_epoch_report(Duration::from_millis(100));
        let text = r.to_prometheus();
        for family in [
            "ringsampler_io_requests_total 64",
            "ringsampler_requests_per_syscall 32",
            "ringsampler_phase_nanos_total{phase=\"prepare\"}",
            "ringsampler_io_group_latency_seconds_bucket",
            "ringsampler_io_group_latency_seconds_count 1",
            "ringsampler_epoch_seconds 0.1",
        ] {
            assert!(text.contains(family), "missing {family} in {text}");
        }
        // Labeled variant tags every sample.
        let mut pw = PromWriter::new();
        r.write_prometheus(&mut pw, &[("run", "fig4")]);
        let labeled = pw.finish();
        assert!(labeled.contains("ringsampler_batches_total{run=\"fig4\"}"));
        assert!(labeled.contains("{run=\"fig4\",phase=\"complete\"}"));
    }
}
