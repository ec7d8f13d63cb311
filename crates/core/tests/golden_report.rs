//! Golden-file tests pinning the exact bytes of the machine-readable
//! report formats. Downstream consumers (dashboards, the paper-figure
//! scripts, Prometheus scrapers) parse these — any change to the JSON
//! schema or the exposition format must be deliberate and show up in
//! review as a golden-file diff.
//!
//! To regenerate after an intentional format change:
//! `UPDATE_GOLDEN=1 cargo test -p ringsampler --test golden_report`

use std::path::PathBuf;
use std::time::Duration;

use ringsampler::{EpochReport, SampleMetrics, WorkerResources, WorkerStats};
use ringstat::{EventKind, Phase, PromWriter, ResourceSample, TimeLedger, TraceEvent};

/// A fully deterministic report: fixed counters, fixed histogram samples,
/// fixed event timestamps. No clocks involved.
fn golden_report() -> EpochReport {
    let mut worker = WorkerStats {
        metrics: SampleMetrics {
            batches: 4,
            layers: 8,
            targets: 512,
            sampled_edges: 2_048,
            io_requests: 1_024,
            io_bytes: 4 << 20,
            io_groups: 32,
            syscalls: 16,
            cache_hits: 100,
            cache_misses: 28,
            reads_planned: 768,
            reads_saved: 256,
            bytes_saved: 1_024,
        },
        ..Default::default()
    };
    for v in [1_000u64, 2_000, 4_000, 8_000, 150_000] {
        worker.group_latency.record(v);
    }
    for v in [500_000u64, 600_000, 900_000, 1_200_000] {
        worker.batch_latency.record(v);
    }
    for v in [200u64, 400, 90_000] {
        worker.cq_wait.record(v);
    }
    worker.phases.add(Phase::Prepare, 400_000);
    worker.phases.add(Phase::Submit, 600_000);
    worker.phases.add(Phase::Complete, 3_000_000);
    worker.phases.add(Phase::Aggregate, 250_000);
    let ev = |ts_ns: u64, kind: EventKind, a: u64, b: u64, c: u64, d: u64| TraceEvent {
        ts_ns,
        kind,
        a,
        b,
        c,
        d,
    };
    worker.events = vec![
        ev(0, EventKind::BatchStart, 0, 128, 0, 0),
        ev(50_000, EventKind::SampleDone, 10, 640, 45_000, 0),
        ev(80_000, EventKind::PlanBuilt, 640, 480, 640, 28_000),
        ev(120_000, EventKind::GroupSubmit, 1, 32, 32, 9_000),
        ev(200_000, EventKind::GroupComplete, 1, 71_000, 60_000, 11_000),
        ev(230_000, EventKind::ScatterDone, 640, 25_000, 0, 0),
        ev(1_000_000, EventKind::BatchEnd, 0, 1_000_000, 2, 0),
    ];
    worker.trace_dropped = 2;
    // A deterministic ringprof interval: 250 ms wall, 240 ms on-CPU,
    // stages as recorded above (they fit the wall, so the ledger
    // conserves; everything else is between-batches `other`). No clocks
    // involved.
    let sample = ResourceSample {
        cpu_nanos: 240_000_000,
        user_nanos: 200_000_000,
        sys_nanos: 40_000_000,
        vol_ctx_switches: 40,
        invol_ctx_switches: 8,
        minor_faults: 1_200,
        major_faults: 3,
        proc_read_bytes: 2 << 20,
        proc_rchar: 5 << 20,
    };
    let phases = worker.phases;
    worker.resources = Some(WorkerResources {
        wall_nanos: 250_000_000,
        ledger: TimeLedger::build(250_000_000, &phases, sample.cpu_nanos),
        logical_bytes: 2_048 * 8,
        sample,
    });
    let mut report = worker.into_epoch_report(Duration::from_millis(250));
    // The engine fills the process-wide bracket after absorbing workers.
    let res = report.resources.as_mut().unwrap();
    res.physical_rchar = 5 << 20;
    res.physical_read_bytes = 2 << 20;
    res.logical_bytes = 2_048 * 8;
    report
}

fn check_golden(name: &str, actual: &str) {
    let path: PathBuf = [env!("CARGO_MANIFEST_DIR"), "tests", "golden", name]
        .iter()
        .collect();
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden file {} ({e}); run with UPDATE_GOLDEN=1", path.display()));
    assert_eq!(
        actual,
        expected,
        "{name} drifted from the golden file; if the format change is \
         intentional, regenerate with UPDATE_GOLDEN=1"
    );
}

#[test]
fn json_schema_is_pinned() {
    check_golden("report.json", &golden_report().to_json());
}

#[test]
fn prometheus_format_is_pinned() {
    let mut w = PromWriter::new();
    golden_report().write_prometheus(&mut w, &[("run", "golden")]);
    check_golden("report.prom", &w.finish());
}

#[test]
fn chrome_trace_is_pinned() {
    check_golden("trace.json", &golden_report().to_chrome_trace());
}

#[test]
fn trace_events_dump_is_pinned() {
    // The `--trace-events` artifact the `ringtrace` analyzer consumes:
    // wire-stable kind names and per-thread event lists.
    check_golden(
        "trace_events.json",
        &golden_report().trace_events_json_value().to_string_pretty(),
    );
}
