//! `ringtrace` — offline analyzer for flight-recorder event dumps.
//!
//! Consumes the `--trace-events` JSON artifact written by [`StatsSink`]
//! (or the raw `EpochReport::trace_events_json_value` document) and turns
//! the per-worker event streams into:
//!
//! * a per-batch critical-path **stage-attribution table**
//!   (sample / plan / submit / inflight-wait / reap / scatter) with a
//!   coverage figure — the fraction of end-to-end batch time the stages
//!   explain;
//! * a **queue-depth timeline** (in-flight SQEs at each group submit,
//!   bucketed over the run);
//! * **straggler-group detection** — I/O groups whose submit→complete
//!   latency exceeds `k · p99`;
//! * a **Chrome/Perfetto export** — the same event fold `--trace` and
//!   `EpochReport::to_chrome_trace` use, over the parsed dump.
//!
//! Everything here is pure (strings in, strings out) so the stage table
//! can be byte-pinned by golden tests; the thin `ringtrace` binary only
//! does argument parsing and file I/O.
//!
//! [`StatsSink`]: crate::StatsSink

use ringstat::{ChromeTrace, EventKind, Json, Stage, StageAccount, TraceEvent};

/// A parsed `--trace-events` dump: one [`ReportTrace`] per recorded
/// epoch report.
#[derive(Debug, Default)]
pub struct TraceDump {
    /// The labeled per-report traces, in file order.
    pub reports: Vec<ReportTrace>,
}

/// One epoch report's drained flight-recorder state.
#[derive(Debug, Default)]
pub struct ReportTrace {
    /// The sink label (`fig4/epoch0`, `unlimited/t2/epoch0`, ...).
    pub label: String,
    /// Events lost to ring overflow across all workers.
    pub dropped: u64,
    /// Per-worker event streams, each in record order.
    pub workers: Vec<WorkerTrace>,
}

/// One worker's drained event stream.
#[derive(Debug, Default)]
pub struct WorkerTrace {
    /// The worker (thread) index.
    pub thread: u64,
    /// Events in record order (timestamps are ns since epoch start).
    pub events: Vec<TraceEvent>,
}

fn u64_field(obj: &Json, key: &str) -> u64 {
    obj.get(key).and_then(Json::as_u64).unwrap_or(0)
}

fn parse_trace_obj(label: &str, trace: &Json) -> ReportTrace {
    let mut rt = ReportTrace {
        label: label.to_string(),
        dropped: u64_field(trace, "dropped"),
        workers: Vec::new(),
    };
    let workers = trace
        .get("workers")
        .and_then(Json::as_array)
        .unwrap_or(&[]);
    for w in workers {
        let mut wt = WorkerTrace {
            thread: u64_field(w, "thread"),
            events: Vec::new(),
        };
        for e in w.get("events").and_then(Json::as_array).unwrap_or(&[]) {
            let Some(kind) = e
                .get("kind")
                .and_then(Json::as_str)
                .and_then(EventKind::from_name)
            else {
                continue; // unknown kinds from newer writers are skipped
            };
            wt.events.push(TraceEvent {
                ts_ns: u64_field(e, "ts_ns"),
                kind,
                a: u64_field(e, "a"),
                b: u64_field(e, "b"),
                c: u64_field(e, "c"),
                d: u64_field(e, "d"),
            });
        }
        rt.workers.push(wt);
    }
    rt
}

impl TraceDump {
    /// Parses a `--trace-events` document
    /// (`{"schema_version": 1, "reports": [{"label", "trace"}, ...]}`).
    /// A bare trace object (`{"dropped", "workers"}`, the
    /// `EpochReport::trace_events_json_value` shape) is also accepted and
    /// becomes a single report labeled `trace`.
    ///
    /// # Errors
    /// Returns a message when the text is not JSON or has neither shape.
    pub fn parse(text: &str) -> Result<Self, String> {
        let root = Json::parse(text)?;
        if let Some(reports) = root.get("reports").and_then(Json::as_array) {
            let mut dump = TraceDump::default();
            for r in reports {
                let label = r.get("label").and_then(Json::as_str).unwrap_or("?");
                let trace = r.get("trace").ok_or("report entry missing \"trace\"")?;
                dump.reports.push(parse_trace_obj(label, trace));
            }
            return Ok(dump);
        }
        if root.get("workers").is_some() {
            return Ok(TraceDump {
                reports: vec![parse_trace_obj("trace", &root)],
            });
        }
        Err("not a trace-events dump (no \"reports\" or \"workers\" key)".into())
    }

    /// Total events across all reports and workers.
    pub fn event_count(&self) -> usize {
        self.reports
            .iter()
            .flat_map(|r| &r.workers)
            .map(|w| w.events.len())
            .sum()
    }
}

/// One reconstructed batch lifecycle on one worker.
#[derive(Debug, Clone)]
pub struct BatchTrace {
    /// Worker (thread) index the batch ran on.
    pub worker: u64,
    /// The worker-local batch index (`batch_start.a`).
    pub index: u64,
    /// `batch_start` timestamp, ns since epoch start.
    pub start_ns: u64,
    /// End-to-end batch duration from `batch_end.b` (0 while open).
    pub dur_ns: u64,
    /// True when both `batch_start` and `batch_end` were recorded (a
    /// ring overflow can lose either end).
    pub complete: bool,
    /// The batch's events folded into the worker's own account type: its
    /// attributed stage time and completed I/O groups.
    pub stages: StageAccount,
}

/// Reconstructs batch lifecycles from one worker's event stream. Stage
/// events outside any open batch (e.g. after an overflow swallowed the
/// `batch_start`) are dropped rather than misattributed.
pub fn batches(w: &WorkerTrace) -> Vec<BatchTrace> {
    let mut out = Vec::new();
    let mut open: Option<BatchTrace> = None;
    for ev in &w.events {
        match ev.kind {
            EventKind::BatchStart => {
                if let Some(b) = open.take() {
                    out.push(b); // unterminated batch: keep, incomplete
                }
                open = Some(BatchTrace {
                    worker: w.thread,
                    index: ev.a,
                    start_ns: ev.ts_ns,
                    dur_ns: 0,
                    complete: false,
                    stages: StageAccount::default(),
                });
            }
            EventKind::BatchEnd => {
                if let Some(mut b) = open.take() {
                    if b.index == ev.a {
                        b.dur_ns = ev.b;
                        b.complete = true;
                    }
                    out.push(b);
                }
            }
            _ => {
                if let Some(b) = open.as_mut() {
                    b.stages.record(ev);
                }
            }
        }
    }
    if let Some(b) = open.take() {
        out.push(b);
    }
    out
}

/// All batches of a report, across workers.
pub fn report_batches(r: &ReportTrace) -> Vec<BatchTrace> {
    r.workers.iter().flat_map(batches).collect()
}

/// The attributed-time coverage over complete batches:
/// `Σ stage sums / Σ end-to-end batch duration`. Returns `None` when no
/// complete batch exists.
pub fn coverage(batches: &[BatchTrace]) -> Option<f64> {
    let mut attributed = 0u64;
    let mut total = 0u64;
    for b in batches.iter().filter(|b| b.complete) {
        attributed += b.stages.total();
        total += b.dur_ns;
    }
    (total > 0).then(|| attributed as f64 / total as f64)
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Renders the per-batch critical-path stage table over the complete
/// batches in `batches`. Byte-stable for a fixed input (golden-pinned).
pub fn stage_table(batches: &[BatchTrace]) -> String {
    let complete: Vec<&BatchTrace> = batches.iter().filter(|b| b.complete).collect();
    let n = complete.len();
    let mut out = String::new();
    if n == 0 {
        out.push_str("  no complete batches (trace truncated?)\n");
        return out;
    }
    let mut sums = StageAccount::default();
    let mut batch_total = 0u64;
    for b in &complete {
        sums.merge(&b.stages);
        batch_total += b.dur_ns;
    }
    // A complete batch drained its pipeline: every group it submitted completed.
    let groups = sums.group_latency.count();
    out.push_str(&format!(
        "  critical path over {n} complete batch(es), {groups} I/O group(s)\n"
    ));
    out.push_str(&format!(
        "  {:<10} {:>12} {:>12} {:>10}\n",
        "stage", "total ms", "ms/batch", "% of batch"
    ));
    for stage in Stage::ALL {
        let v = sums.get(stage);
        out.push_str(&format!(
            "  {:<10} {:>12.3} {:>12.3} {:>9.1}%\n",
            stage.name(),
            ms(v),
            ms(v) / n as f64,
            100.0 * v as f64 / batch_total as f64
        ));
    }
    out.push_str(&format!("  {}\n", "-".repeat(47)));
    out.push_str(&format!(
        "  {:<10} {:>12.3} {:>12.3} {:>9.1}%\n",
        "attributed",
        ms(sums.total()),
        ms(sums.total()) / n as f64,
        100.0 * sums.total() as f64 / batch_total as f64
    ));
    out.push_str(&format!(
        "  {:<10} {:>12.3} {:>12.3} {:>9.1}%\n",
        "batch e2e",
        ms(batch_total),
        ms(batch_total) / n as f64,
        100.0
    ));
    out
}

/// Renders the queue-depth-over-time timeline: the maximum in-flight SQE
/// count observed at any `group_submit` in each of `buckets` equal time
/// slices of the report. Empty when the report has no submits.
pub fn queue_depth_timeline(r: &ReportTrace, buckets: usize) -> String {
    let mut samples: Vec<(u64, u64)> = Vec::new(); // (ts, inflight_after)
    for w in &r.workers {
        for ev in &w.events {
            if ev.kind == EventKind::GroupSubmit {
                samples.push((ev.ts_ns, ev.c));
            }
        }
    }
    if samples.is_empty() || buckets == 0 {
        return String::new();
    }
    let t0 = samples.iter().map(|s| s.0).min().unwrap_or(0);
    let t1 = samples.iter().map(|s| s.0).max().unwrap_or(0);
    let span = (t1 - t0).max(1);
    let mut depth = vec![0u64; buckets];
    for (ts, d) in &samples {
        let i = (((ts - t0) as u128 * buckets as u128) / (span as u128 + 1)) as usize;
        depth[i] = depth[i].max(*d);
    }
    let peak = depth.iter().copied().max().unwrap_or(0).max(1);
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let mut line = String::new();
    for d in &depth {
        if *d == 0 {
            line.push(' ');
        } else {
            // Ceiling-map so any nonzero depth is visible.
            let idx = ((d * 8).div_ceil(peak) as usize).clamp(1, 8) - 1;
            line.push(BARS[idx]);
        }
    }
    format!(
        "  queue depth |{line}| peak {peak} SQEs over {:.3} ms ({} submits)\n",
        ms(span),
        samples.len()
    )
}

/// One I/O group whose submit→complete latency exceeded the straggler
/// threshold.
#[derive(Debug, Clone, Copy)]
pub struct Straggler {
    /// Worker the group completed on.
    pub worker: u64,
    /// Group id (`group_complete.a`).
    pub group: u64,
    /// Group latency, ns (`group_complete.b`).
    pub kernel_ns: u64,
    /// Completion timestamp, ns since epoch start.
    pub ts_ns: u64,
}

/// Detects straggler groups: kernel latency `> k · p99` over the report's
/// `group_complete` events. Returns `(p99_ns, stragglers)` sorted by
/// descending latency; `(0, [])` when no groups completed.
pub fn stragglers(r: &ReportTrace, k: f64) -> (u64, Vec<Straggler>) {
    let mut lats: Vec<u64> = Vec::new();
    let mut all: Vec<Straggler> = Vec::new();
    for w in &r.workers {
        for ev in &w.events {
            if ev.kind == EventKind::GroupComplete {
                lats.push(ev.b);
                all.push(Straggler {
                    worker: w.thread,
                    group: ev.a,
                    kernel_ns: ev.b,
                    ts_ns: ev.ts_ns,
                });
            }
        }
    }
    if lats.is_empty() {
        return (0, Vec::new());
    }
    lats.sort_unstable();
    let p99 = lats[((lats.len() as f64 * 0.99).ceil() as usize).saturating_sub(1)];
    let threshold = p99 as f64 * k;
    let mut out: Vec<Straggler> = all
        .into_iter()
        .filter(|s| s.kernel_ns as f64 > threshold)
        .collect();
    out.sort_by(|a, b| b.kernel_ns.cmp(&a.kernel_ns).then(a.ts_ns.cmp(&b.ts_ns)));
    (p99, out)
}

/// Chrome/Perfetto export of a parsed dump: one labeled lane per
/// (report, worker), folded by the workspace's one Chrome exporter
/// ([`ChromeTrace::from_events`]).
pub fn to_chrome(dump: &TraceDump) -> String {
    let lanes = dump.reports.iter().flat_map(|r| {
        let label = |w: &WorkerTrace| format!("{}/worker-{}", r.label, w.thread);
        r.workers.iter().map(move |w| (label(w), w.events.as_slice()))
    });
    ChromeTrace::from_events(lanes).to_json()
}

/// The full human-readable analysis of one report: stage table,
/// queue-depth timeline and straggler list. Pure and byte-stable.
pub fn report_analysis(r: &ReportTrace, straggler_k: f64) -> String {
    let mut out = format!("== {} ==\n", r.label);
    let b = report_batches(r);
    out.push_str(&stage_table(&b));
    out.push_str(&queue_depth_timeline(r, 48));
    let (p99, slow) = stragglers(r, straggler_k);
    if p99 > 0 {
        out.push_str(&format!(
            "  stragglers (> {straggler_k:.1} x p99 = {:.3} ms): {}\n",
            ms(p99),
            slow.len()
        ));
        for s in slow.iter().take(8) {
            out.push_str(&format!(
                "    worker {} group {} kernel {:.3} ms at t+{:.3} ms\n",
                s.worker,
                s.group,
                ms(s.kernel_ns),
                ms(s.ts_ns)
            ));
        }
    }
    if r.dropped > 0 {
        out.push_str(&format!(
            "  WARNING: {} event(s) dropped on ring overflow — attribution is partial\n",
            r.dropped
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(ts_ns: u64, kind: EventKind, a: u64, b: u64, c: u64, d: u64) -> TraceEvent {
        TraceEvent {
            ts_ns,
            kind,
            a,
            b,
            c,
            d,
        }
    }

    fn worker_with_one_batch() -> WorkerTrace {
        WorkerTrace {
            thread: 0,
            events: vec![
                ev(0, EventKind::BatchStart, 0, 128, 0, 0),
                ev(50_000, EventKind::SampleDone, 10, 640, 45_000, 0),
                ev(80_000, EventKind::PlanBuilt, 640, 480, 640, 28_000),
                ev(120_000, EventKind::GroupSubmit, 1, 32, 32, 9_000),
                ev(200_000, EventKind::GroupComplete, 1, 71_000, 60_000, 11_000),
                ev(230_000, EventKind::ScatterDone, 640, 25_000, 0, 0),
                ev(250_000, EventKind::BatchEnd, 0, 250_000, 2, 0),
            ],
        }
    }

    #[test]
    fn batch_reconstruction_attributes_stages() {
        let b = batches(&worker_with_one_batch());
        assert_eq!(b.len(), 1);
        let b = &b[0];
        assert!(b.complete);
        assert_eq!(b.dur_ns, 250_000);
        assert_eq!(b.stages.group_latency.count(), 1);
        assert_eq!(
            Stage::ALL.map(|s| b.stages.get(s)),
            [45_000, 28_000, 9_000, 60_000, 11_000, 25_000]
        );
        let cov = coverage(std::slice::from_ref(b)).unwrap();
        assert!((cov - 178_000.0 / 250_000.0).abs() < 1e-9, "{cov}");
    }

    #[test]
    fn truncated_traces_stay_incomplete() {
        // batch_end lost to overflow: next batch_start closes the old one
        // as incomplete; orphan stage events (no open batch) are dropped.
        let w = WorkerTrace {
            thread: 1,
            events: vec![
                ev(100, EventKind::ScatterDone, 1, 99, 0, 0), // orphan
                ev(200, EventKind::BatchStart, 0, 64, 0, 0),
                ev(300, EventKind::SampleDone, 5, 10, 50, 0),
                ev(400, EventKind::BatchStart, 1, 64, 0, 0),
                ev(500, EventKind::BatchEnd, 1, 100, 2, 0),
            ],
        };
        let b = batches(&w);
        assert_eq!(b.len(), 2);
        assert!(!b[0].complete);
        assert_eq!(b[0].stages.get(Stage::Sample), 50);
        assert!(b[1].complete);
        assert_eq!(coverage(&b).unwrap(), 0.0); // only batch 1 counts
        // The orphan scatter landed nowhere.
        assert_eq!(b[0].stages.get(Stage::Scatter) + b[1].stages.get(Stage::Scatter), 0);
    }

    #[test]
    fn stage_table_handles_empty_input() {
        assert!(stage_table(&[]).contains("no complete batches"));
    }

    #[test]
    fn queue_depth_and_stragglers() {
        let mut w = worker_with_one_batch();
        // A second, much slower group: becomes the p99 itself, so only a
        // k < 1 threshold flags anything; with k=0.5 both must clear it.
        w.events.push(ev(300_000, EventKind::GroupSubmit, 2, 8, 64, 1_000));
        w.events
            .push(ev(900_000, EventKind::GroupComplete, 2, 500_000, 490_000, 4_000));
        let r = ReportTrace {
            label: "t".into(),
            dropped: 0,
            workers: vec![w],
        };
        let line = queue_depth_timeline(&r, 8);
        assert!(line.contains("peak 64 SQEs"), "{line}");
        assert!(line.contains("2 submits"), "{line}");
        let (p99, slow) = stragglers(&r, 0.1);
        assert_eq!(p99, 500_000);
        // threshold 0.1*p99 = 50us: both the 71us and 500us groups clear
        // it, sorted slowest-first.
        assert_eq!(slow.len(), 2);
        assert_eq!(slow[0].group, 2);
        assert_eq!(slow[1].group, 1);
        let (_, none) = stragglers(&r, 3.0);
        assert!(none.is_empty());
    }

    #[test]
    fn chrome_export_labels_lanes_and_spans() {
        let dump = TraceDump {
            reports: vec![ReportTrace {
                label: "fig4/epoch0".into(),
                dropped: 0,
                workers: vec![worker_with_one_batch()],
            }],
        };
        let out = to_chrome(&dump);
        assert!(out.contains("\"fig4/epoch0/worker-0\""), "{out}");
        assert!(out.contains("\"process_name\""), "{out}");
        for name in ["batch", "sample", "plan", "submit", "wait", "reap", "scatter"] {
            assert!(out.contains(&format!("\"name\": \"{name}\"")), "{name}: {out}");
        }
    }

    #[test]
    fn parse_accepts_both_shapes() {
        let bare = r#"{"dropped": 1, "workers": [{"thread": 3, "events": [
            {"ts_ns": 5, "kind": "cache_hit", "a": 9, "b": 0, "c": 0, "d": 0},
            {"ts_ns": 6, "kind": "not_a_kind", "a": 0, "b": 0, "c": 0, "d": 0}
        ]}]}"#;
        let dump = TraceDump::parse(bare).unwrap();
        assert_eq!(dump.reports.len(), 1);
        assert_eq!(dump.reports[0].label, "trace");
        assert_eq!(dump.reports[0].dropped, 1);
        assert_eq!(dump.reports[0].workers[0].thread, 3);
        // Unknown kinds are skipped, known ones kept.
        assert_eq!(dump.event_count(), 1);
        assert!(TraceDump::parse("{\"x\": 1}").is_err());
        assert!(TraceDump::parse("not json").is_err());
    }
}
