//! `ringtop` — live terminal dashboard over the ringscope history feed.
//!
//! Polls a running sampler's `GET /history` endpoint (the time-series
//! layer described in DESIGN.md §14) and renders a per-worker panel:
//!
//! * **sparklines** over the retained window — edge throughput,
//!   in-flight queue depth, and interval batch p99;
//! * the windowed rates and EWMA/slope trends the server derived;
//! * the **CPU column**: a windowed on-CPU-share sparkline from the
//!   ringprof history points, plus the last completed epoch's
//!   **time-ledger bar** and read-amplification figures from
//!   `GET /resources`;
//! * a **fleet** roll-up line summing throughput across workers.
//!
//! Everything here is pure (parsed documents in, strings out) so frames
//! can be asserted byte-for-byte by tests and by the CI gate's
//! `ringtop --once` invocation; the thin binary only does the HTTP GET
//! and the redraw loop.

use ringstat::{human_bytes, human_count, human_nanos, Json};

/// One parsed point of a worker's `/history` series.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct SeriesPoint {
    /// Milliseconds since the telemetry thread started.
    pub t_ms: u64,
    /// Cumulative completed batches.
    pub batches: u64,
    /// Cumulative sampled edges.
    pub sampled_edges: u64,
    /// Cumulative bytes read.
    pub bytes_read: u64,
    /// In-flight SQEs at the sample instant.
    pub inflight: u64,
    /// Interval batch p99, ns (0 for the first point).
    pub batch_p99_ns: f64,
    /// Interval CQ-wait share in [0, 1].
    pub cq_wait_share: f64,
    /// Interval on-CPU share in [0, 1] (ringprof; 0 before the worker's epoch profile opens).
    pub cpu_share: f64,
}

/// One worker's `/history` entry: rates, trends, and the raw series.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct WorkerSeries {
    /// Worker (thread) index.
    pub worker: u64,
    /// Wall-clock span of the retained window, seconds.
    pub span_secs: f64,
    /// Windowed edge throughput, edges/s.
    pub edges_per_sec: f64,
    /// Windowed batch completion rate, batches/s.
    pub batches_per_sec: f64,
    /// Windowed `io_uring_enter` rate, enters/s.
    pub enters_per_sec: f64,
    /// Windowed read bandwidth, bytes/s.
    pub bytes_per_sec: f64,
    /// EWMA-smoothed interval edge rate.
    pub edges_ewma: f64,
    /// Batch-p99 trend, ns per second.
    pub p99_slope: f64,
    /// CQ-wait-share trend, share per second.
    pub cq_slope: f64,
    /// Windowed on-CPU share in [0, 1] (ringprof).
    pub cpu_share: f64,
    /// The raw timestamped points, oldest first.
    pub series: Vec<SeriesPoint>,
}

fn f64_field(obj: &Json, key: &str) -> f64 {
    obj.get(key).and_then(Json::as_f64).unwrap_or(0.0)
}

fn u64_field(obj: &Json, key: &str) -> u64 {
    obj.get(key).and_then(Json::as_u64).unwrap_or(0)
}

/// Parses a `GET /history` document into per-worker series.
///
/// # Errors
/// Returns a message when the text is not JSON or lacks a `workers`
/// array.
pub fn parse_history(text: &str) -> Result<Vec<WorkerSeries>, String> {
    let root = Json::parse(text)?;
    let workers = root
        .get("workers")
        .and_then(Json::as_array)
        .ok_or("not a /history document (no \"workers\" array)")?;
    let mut out = Vec::new();
    for w in workers {
        let rates = w.get("rates").cloned().unwrap_or(Json::object());
        let trends = w.get("trends").cloned().unwrap_or(Json::object());
        let mut ws = WorkerSeries {
            worker: u64_field(w, "worker"),
            span_secs: f64_field(w, "span_secs"),
            edges_per_sec: f64_field(&rates, "edges_per_sec"),
            batches_per_sec: f64_field(&rates, "batches_per_sec"),
            enters_per_sec: f64_field(&rates, "enters_per_sec"),
            bytes_per_sec: f64_field(&rates, "bytes_per_sec"),
            edges_ewma: f64_field(&trends, "edges_per_sec_ewma"),
            p99_slope: f64_field(&trends, "batch_p99_slope_ns_per_sec"),
            cq_slope: f64_field(&trends, "cq_wait_share_slope_per_sec"),
            cpu_share: f64_field(&trends, "cpu_share"),
            series: Vec::new(),
        };
        for p in w.get("series").and_then(Json::as_array).unwrap_or(&[]) {
            ws.series.push(SeriesPoint {
                t_ms: u64_field(p, "t_ms"),
                batches: u64_field(p, "batches"),
                sampled_edges: u64_field(p, "sampled_edges"),
                bytes_read: u64_field(p, "bytes_read"),
                inflight: u64_field(p, "inflight"),
                batch_p99_ns: f64_field(p, "batch_p99_ns"),
                cq_wait_share: f64_field(p, "cq_wait_share"),
                cpu_share: f64_field(p, "cpu_share"),
            });
        }
        out.push(ws);
    }
    Ok(out)
}

/// One worker's time ledger from `GET /resources` (the last completed
/// epoch's ringprof attribution).
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct WorkerLedger {
    /// Worker (thread) index.
    pub worker: u64,
    /// Epoch wall time for this worker, ns.
    pub wall_nanos: u64,
    /// Ledger buckets, ns: on-CPU sampling/aggregation work.
    pub compute_nanos: u64,
    /// Submission-side stage wall, ns.
    pub submit_nanos: u64,
    /// Off-CPU time blocked on completions, ns.
    pub io_wait_nanos: u64,
    /// On-CPU completion reaping, ns.
    pub reap_nanos: u64,
    /// The explicit remainder (scheduler delays, unattributed), ns.
    pub other_nanos: u64,
    /// Accounted share in [0, 1] — the conservation check's figure.
    pub accounted_share: f64,
    /// Epoch-scope CPU share in [0, 1].
    pub cpu_share: f64,
}

/// The parsed `GET /resources` document — last epoch's attribution, or
/// `present == false` before the first epoch joins.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct ResourcesView {
    /// True when a published attribution was present (not `null`).
    pub present: bool,
    /// Epoch the attribution describes.
    pub epoch: u64,
    /// Per-worker ledgers, slot order.
    pub workers: Vec<WorkerLedger>,
    /// Fleet kernel-boundary read amplification (rchar / logical).
    pub read_amplification: f64,
    /// Fleet storage-layer read amplification (read_bytes / logical).
    pub block_read_amplification: f64,
    /// Fleet on-CPU share of summed worker wall time.
    pub fleet_cpu_share: f64,
}

/// Parses a `GET /resources` document. A `"resources": null` body (no
/// epoch published yet) parses to an absent view —
/// the dashboard then simply omits the ledger rows.
///
/// # Errors
/// Returns a message when the text is not JSON at all.
pub fn parse_resources(text: &str) -> Result<ResourcesView, String> {
    let root = Json::parse(text)?;
    let mut view = ResourcesView {
        epoch: u64_field(&root, "epoch"),
        ..ResourcesView::default()
    };
    let Some(res) = root.get("resources").filter(|r| !matches!(r, Json::Null)) else {
        return Ok(view);
    };
    view.present = true;
    view.read_amplification = f64_field(res, "read_amplification");
    view.block_read_amplification = f64_field(res, "block_read_amplification");
    let fleet = res.get("fleet").cloned().unwrap_or(Json::object());
    view.fleet_cpu_share = f64_field(&fleet, "cpu_share");
    for w in res.get("workers").and_then(Json::as_array).unwrap_or(&[]) {
        let ledger = w.get("ledger").cloned().unwrap_or(Json::object());
        view.workers.push(WorkerLedger {
            worker: u64_field(w, "worker"),
            wall_nanos: u64_field(w, "wall_nanos"),
            compute_nanos: u64_field(&ledger, "compute_nanos"),
            submit_nanos: u64_field(&ledger, "submit_nanos"),
            io_wait_nanos: u64_field(&ledger, "io_wait_nanos"),
            reap_nanos: u64_field(&ledger, "reap_nanos"),
            other_nanos: u64_field(&ledger, "other_nanos"),
            accounted_share: f64_field(&ledger, "accounted_share"),
            cpu_share: f64_field(w, "cpu_share"),
        });
    }
    Ok(view)
}

/// Renders a worker's time ledger as a fixed-width proportional bar:
/// one glyph class per bucket (`█` compute, `▓` submit, `▒` io_wait,
/// `░` reap, `·` other), apportioned by largest remainder so the bar is
/// always exactly `width` cells when any time was recorded.
pub fn ledger_bar(l: &WorkerLedger, width: usize) -> String {
    let buckets = [
        (l.compute_nanos, '█'),
        (l.submit_nanos, '▓'),
        (l.io_wait_nanos, '▒'),
        (l.reap_nanos, '░'),
        (l.other_nanos, '·'),
    ];
    let total: u64 = buckets.iter().map(|&(ns, _)| ns).sum();
    if total == 0 || width == 0 {
        return " ".repeat(width);
    }
    // Integer cells first, then distribute the remainder to the largest
    // fractional parts so rounding never over- or under-fills the bar.
    let mut cells: Vec<(usize, u64, char)> = buckets
        .iter()
        .map(|&(ns, g)| {
            let exact = ns as u128 * width as u128;
            (
                (exact / total as u128) as usize,
                (exact % total as u128) as u64,
                g,
            )
        })
        .collect();
    let mut used: usize = cells.iter().map(|&(n, _, _)| n).sum();
    while used < width {
        if let Some(best) = cells
            .iter_mut()
            .max_by_key(|&&mut (_, frac, _)| frac)
            .filter(|&&mut (_, frac, _)| frac > 0)
        {
            best.0 += 1;
            best.1 = 0;
            used += 1;
        } else {
            break;
        }
    }
    let mut out = String::new();
    for (n, _, g) in cells {
        for _ in 0..n {
            out.push(g);
        }
    }
    while out.chars().count() < width {
        out.push(' ');
    }
    out
}

const GLYPHS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];

/// Renders `values` as a fixed-width sparkline. Values are scaled
/// against the series maximum; zero renders as a space so idle gaps are
/// visible. Series longer than `width` keep the most recent points;
/// shorter series are left-padded so the line always ends "now".
pub fn sparkline(values: &[f64], width: usize) -> String {
    let tail: Vec<f64> = values
        .iter()
        .copied()
        .skip(values.len().saturating_sub(width))
        .collect();
    let peak = tail.iter().copied().fold(0.0f64, f64::max);
    let mut out = String::new();
    for _ in tail.len()..width {
        out.push(' ');
    }
    for v in &tail {
        if *v <= 0.0 || peak <= 0.0 {
            out.push(' ');
        } else {
            // Ceiling-map so any nonzero value is visible.
            let idx = ((v / peak * 8.0).ceil() as usize).clamp(1, 8) - 1;
            out.push(GLYPHS.get(idx).copied().unwrap_or('█'));
        }
    }
    out
}

/// Per-interval deltas of a cumulative counter column, aligned to the
/// interval-ending point (first point contributes nothing).
fn deltas(series: &[SeriesPoint], get: impl Fn(&SeriesPoint) -> u64) -> Vec<f64> {
    series
        .windows(2)
        .map(|w| match w {
            [a, b] => get(b).saturating_sub(get(a)) as f64,
            _ => 0.0,
        })
        .collect()
}

fn ledger_for(resources: &ResourcesView, worker: u64) -> Option<&WorkerLedger> {
    resources
        .present
        .then(|| resources.workers.iter().find(|l| l.worker == worker))
        .flatten()
}

/// Renders one dashboard frame from parsed `/history` series and the
/// `/resources` attribution (pass `ResourcesView::default()` when the
/// endpoint had nothing — the ledger rows and amplification figures are
/// simply omitted). Pure and byte-stable for fixed inputs.
pub fn render_frame(series: &[WorkerSeries], resources: &ResourcesView, width: usize) -> String {
    let mut out = String::new();
    let mut fleet_edges = 0.0;
    let mut fleet_batches = 0.0;
    let mut fleet_bytes = 0.0;
    out.push_str(&format!("ringtop — {} worker(s)\n", series.len()));
    for ws in series {
        fleet_edges += ws.edges_per_sec;
        fleet_batches += ws.batches_per_sec;
        fleet_bytes += ws.bytes_per_sec;
        out.push_str(&format!(
            "worker {} {} edges/s · {:.1} batches/s · {}/s · {:.1} enters/s · cpu {:.0}%\n",
            ws.worker,
            human_count(ws.edges_per_sec as u64),
            ws.batches_per_sec,
            human_bytes(ws.bytes_per_sec as u64),
            ws.enters_per_sec,
            ws.cpu_share * 100.0,
        ));
        let edges = deltas(&ws.series, |p| p.sampled_edges);
        let inflight: Vec<f64> = ws.series.iter().map(|p| p.inflight as f64).collect();
        let p99: Vec<f64> = ws.series.iter().map(|p| p.batch_p99_ns).collect();
        let cpu: Vec<f64> = ws.series.iter().map(|p| p.cpu_share).collect();
        let last_p99 = p99.iter().copied().fold(0.0f64, f64::max);
        out.push_str(&format!(
            "  throughput |{}| ewma {} edges/s\n",
            sparkline(&edges, width),
            human_count(ws.edges_ewma as u64),
        ));
        out.push_str(&format!(
            "  queue      |{}| now {} inflight\n",
            sparkline(&inflight, width),
            ws.series.last().map_or(0, |p| p.inflight),
        ));
        out.push_str(&format!(
            "  batch p99  |{}| peak {} · slope {:+.0} ns/s\n",
            sparkline(&p99, width),
            human_nanos(last_p99 as u64),
            ws.p99_slope,
        ));
        out.push_str(&format!(
            "  cpu        |{}| win {:.0}%\n",
            sparkline(&cpu, width),
            ws.cpu_share * 100.0,
        ));
        if let Some(l) = ledger_for(resources, ws.worker) {
            out.push_str(&format!(
                "  ledger     |{}| acc {:.0}% of {} (epoch {})\n",
                ledger_bar(l, width),
                l.accounted_share * 100.0,
                human_nanos(l.wall_nanos),
                resources.epoch,
            ));
        }
    }
    out.push_str(&format!(
        "fleet: {} edges/s · {:.1} batches/s · {}/s",
        human_count(fleet_edges as u64),
        fleet_batches,
        human_bytes(fleet_bytes as u64),
    ));
    if resources.present {
        out.push_str(&format!(
            " · cpu {:.0}% · amp {:.2}x (block {:.2}x)",
            resources.fleet_cpu_share * 100.0,
            resources.read_amplification,
            resources.block_read_amplification,
        ));
    }
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pt(t_ms: u64, edges: u64, inflight: u64, p99: f64) -> SeriesPoint {
        SeriesPoint {
            t_ms,
            batches: t_ms / 100,
            sampled_edges: edges,
            bytes_read: edges * 4,
            inflight,
            batch_p99_ns: p99,
            cq_wait_share: 0.1,
            cpu_share: 0.5,
        }
    }

    fn sample_series(worker: u64) -> WorkerSeries {
        WorkerSeries {
            worker,
            span_secs: 0.3,
            edges_per_sec: 5000.0,
            batches_per_sec: 10.0,
            enters_per_sec: 20.0,
            bytes_per_sec: 20_000.0,
            edges_ewma: 5000.0,
            p99_slope: 12.0,
            cq_slope: 0.0,
            cpu_share: 0.72,
            series: vec![
                pt(0, 0, 8, 0.0),
                pt(100, 500, 16, 90_000.0),
                pt(200, 1000, 32, 100_000.0),
                pt(300, 1500, 16, 95_000.0),
            ],
        }
    }

    fn sample_resources(workers: &[u64]) -> ResourcesView {
        ResourcesView {
            present: true,
            epoch: 3,
            workers: workers
                .iter()
                .map(|&worker| WorkerLedger {
                    worker,
                    wall_nanos: 250_000_000,
                    compute_nanos: 100_000_000,
                    submit_nanos: 25_000_000,
                    io_wait_nanos: 75_000_000,
                    reap_nanos: 25_000_000,
                    other_nanos: 25_000_000,
                    accounted_share: 0.9,
                    cpu_share: 0.6,
                })
                .collect(),
            read_amplification: 2.5,
            block_read_amplification: 1.25,
            fleet_cpu_share: 0.6,
        }
    }

    #[test]
    fn sparkline_scales_pads_and_truncates() {
        assert_eq!(sparkline(&[], 4), "    ");
        assert_eq!(sparkline(&[0.0, 0.0], 4), "    ");
        // Left-padded to end "now"; ceiling-map keeps small values visible.
        let line = sparkline(&[1.0, 4.0, 8.0], 4);
        assert_eq!(line.chars().count(), 4);
        assert_eq!(line.chars().next(), Some(' '));
        assert_eq!(line.chars().last(), Some('█'));
        assert!(line.contains('▁'), "{line}");
        // Longer than width: keeps the most recent points only, rescaled
        // against the visible tail (so the dropped 8.0 is not the peak).
        let line = sparkline(&[8.0, 1.0, 1.0], 2);
        assert_eq!(line, "██");
    }

    #[test]
    fn parse_history_round_trips_document_fields() {
        let text = r#"{"window": 64, "workers": [{
            "worker": 1, "points": 2, "span_secs": 0.1,
            "rates": {"edges_per_sec": 5000.0, "batches_per_sec": 10.0,
                      "enters_per_sec": 20.0, "bytes_per_sec": 40960.0},
            "trends": {"edges_per_sec_ewma": 5000.0,
                       "batch_p99_slope_ns_per_sec": -3.5,
                       "cq_wait_share_slope_per_sec": 0.01},
            "series": [
                {"t_ms": 0, "batches": 0, "targets": 9, "sampled_edges": 0,
                 "bytes_read": 0, "inflight": 4, "io_groups": 0,
                 "batch_p99_ns": 0.0, "cq_wait_share": 0.0},
                {"t_ms": 100, "batches": 1, "targets": 9, "sampled_edges": 500,
                 "bytes_read": 4096, "inflight": 8, "io_groups": 2,
                 "batch_p99_ns": 70000.0, "cq_wait_share": 0.25}
            ]}]}"#;
        let parsed = parse_history(text).unwrap();
        assert_eq!(parsed.len(), 1);
        let w = &parsed[0];
        assert_eq!(w.worker, 1);
        assert_eq!(w.edges_per_sec, 5000.0);
        assert_eq!(w.p99_slope, -3.5);
        assert_eq!(w.series.len(), 2);
        assert_eq!(w.series[1].t_ms, 100);
        assert_eq!(w.series[1].inflight, 8);
        assert_eq!(w.series[1].cq_wait_share, 0.25);
        assert!(parse_history("{\"x\": 1}").is_err());
        assert!(parse_history("nope").is_err());
    }

    #[test]
    fn plain_frame_shows_workers_and_fleet() {
        let series = [sample_series(0), sample_series(1)];
        let resources = sample_resources(&[0, 1]);
        let frame = render_frame(&series, &resources, 16);
        assert!(frame.starts_with("ringtop — 2 worker(s)\n"), "{frame}");
        assert!(frame.contains("worker 0 5,000 edges/s · 10.0 batches/s"), "{frame}");
        assert!(frame.contains("worker 1 5,000 edges/s"), "{frame}");
        assert!(frame.contains("throughput |"), "{frame}");
        assert!(frame.contains("queue      |"), "{frame}");
        assert!(frame.contains("batch p99  |"), "{frame}");
        assert!(frame.contains("cpu        |"), "{frame}");
        assert!(frame.contains("· cpu 72%"), "{frame}");
        assert!(frame.contains("ledger     |"), "{frame}");
        assert!(frame.contains("acc 90% of 250.0 ms (epoch 3)"), "{frame}");
        assert!(frame.contains("fleet: 10,000 edges/s · 20.0 batches/s"), "{frame}");
        assert!(frame.contains("· amp 2.50x (block 1.25x)"), "{frame}");
        // Frames carry no escape codes — safe for goldens and CI logs.
        assert!(!frame.contains('\x1b'), "{frame}");
    }

    #[test]
    fn frame_tolerates_empty_series() {
        let series = [WorkerSeries {
            worker: 7,
            ..WorkerSeries::default()
        }];
        let none = ResourcesView::default();
        let frame = render_frame(&series, &none, 8);
        assert!(frame.contains("worker 7 0 edges/s"), "{frame}");
        // No resources published: the ledger row and fleet amplification
        // figures are omitted, the CPU sparkline stays (reads as 0%).
        assert!(!frame.contains("ledger     |"), "{frame}");
        assert!(!frame.contains("amp "), "{frame}");
        assert!(frame.contains("cpu        |"), "{frame}");
        let empty = render_frame(&[], &none, 8);
        assert!(empty.contains("0 worker(s)"), "{empty}");
        assert!(empty.contains("fleet: 0 edges/s"), "{empty}");
    }

    #[test]
    fn parse_resources_round_trips_and_tolerates_null() {
        let text = r#"{"epoch": 4, "resources": {
            "read_amplification": 3.2,
            "block_read_amplification": 1.1,
            "fleet": {"cpu_share": 0.8},
            "workers": [{"worker": 2, "wall_nanos": 1000, "cpu_share": 0.75,
                "ledger": {"compute_nanos": 400, "submit_nanos": 100,
                           "io_wait_nanos": 300, "reap_nanos": 100,
                           "other_nanos": 100, "accounted_share": 0.9,
                           "conserved": true}}]}}"#;
        let view = parse_resources(text).unwrap();
        assert!(view.present);
        assert_eq!(view.epoch, 4);
        assert_eq!(view.read_amplification, 3.2);
        assert_eq!(view.fleet_cpu_share, 0.8);
        assert_eq!(view.workers.len(), 1);
        let l = &view.workers[0];
        assert_eq!(l.worker, 2);
        assert_eq!(l.compute_nanos, 400);
        assert_eq!(l.io_wait_nanos, 300);
        assert_eq!(l.accounted_share, 0.9);
        assert_eq!(l.cpu_share, 0.75);
        // The pre-first-epoch placeholder parses to an absent view.
        let absent = parse_resources("{\"epoch\": 0, \"resources\": null}").unwrap();
        assert!(!absent.present);
        assert!(absent.workers.is_empty());
        assert!(parse_resources("nope").is_err());
    }

    #[test]
    fn ledger_bar_is_proportional_and_exact_width() {
        let l = WorkerLedger {
            compute_nanos: 500,
            submit_nanos: 125,
            io_wait_nanos: 250,
            reap_nanos: 125,
            other_nanos: 0,
            ..WorkerLedger::default()
        };
        let bar = ledger_bar(&l, 8);
        assert_eq!(bar, "████▓▒▒░");
        assert_eq!(bar.chars().count(), 8);
        // All time in one bucket fills the bar with that glyph.
        let idle = WorkerLedger {
            io_wait_nanos: 1,
            ..WorkerLedger::default()
        };
        assert_eq!(ledger_bar(&idle, 4), "▒▒▒▒");
        // No recorded time renders as blanks, still exactly width cells.
        assert_eq!(ledger_bar(&WorkerLedger::default(), 4), "    ");
    }
}
