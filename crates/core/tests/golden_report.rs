//! Golden-file tests pinning the exact bytes of the machine-readable
//! report formats. Downstream consumers (dashboards, the paper-figure
//! scripts, trace viewers) parse these — any change to the JSON schema,
//! the event dump or the Chrome fold must be deliberate and show up in
//! review as a golden-file diff.
//!
//! To regenerate after an intentional format change:
//! `UPDATE_GOLDEN=1 cargo test -p ringsampler --test golden_report`

use std::path::PathBuf;
use std::time::Duration;

use ringsampler::{EpochReport, SampleMetrics, WorkerResources, WorkerStats};
use ringstat::{ChromeTrace, EventKind, ResourceSample, Stage, TraceEvent};

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
            spanned_reads: 40,
            cache_hits: 100,
            cache_misses: 28,
            reads_planned: 768,
            reads_saved: 256,
            bytes_saved: 1_024,
        },
        ..Default::default()
    };
    // The stage account, set stage by stage and sample by sample: 4.25 ms
    // of stage time, 2.8 ms of it waiting, over four batches whose
    // latencies sum to the same 4.25 ms, as a sampler's always do.
    let account = &mut worker.account;
    for v in [1_000u64, 2_000, 4_000, 8_000, 150_000] {
        account.group_latency.record(v);
    }
    for v in [500_000u64, 750_000, 1_200_000, 1_800_000] {
        account.batch_latency.record(v);
    }
    for v in [200u64, 400, 90_000] {
        account.cq_wait.record(v);
    }
    for (stage, nanos) in [
        (Stage::Sample, 300_000),
        (Stage::Plan, 100_000),
        (Stage::Submit, 600_000),
        (Stage::Wait, 2_800_000),
        (Stage::Reap, 200_000),
        (Stage::Scatter, 250_000),
    ] {
        account.add(stage, nanos);
    }
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
    // stages as recorded above (everything else of the wall lies between
    // batches). No clocks involved.
    let sample = ResourceSample {
        cpu_nanos: 240_000_000,
        user_nanos: 200_000_000,
        sys_nanos: 40_000_000,
        vol_ctx_switches: 40,
        invol_ctx_switches: 8,
        minor_faults: 1_200,
        major_faults: 3,
    };
    worker.resources = Some(WorkerResources {
        wall_nanos: 250_000_000,
        account: worker.account,
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
fn golden_report_conserves_the_stage_clock() {
    // The identity ci.sh gate 5 holds every real report to: the six stage
    // sums are the in-batch wall, the sum of the batch latencies — for the
    // report and for each worker's row.
    let report = golden_report();
    assert_eq!(report.account.total(), 4_250_000);
    assert_eq!(report.account.total(), report.account.batch_latency.sum());
    let workers = &report.resources.as_ref().unwrap().workers;
    assert!(!workers.is_empty());
    for w in workers {
        assert_eq!(w.account.total(), w.account.batch_latency.sum());
    }
}

#[test]
fn chrome_trace_is_pinned() {
    // The fold `ringtrace --chrome` applies to a dump, over the golden
    // report's events with one `worker-N` lane per worker.
    let report = golden_report();
    let lanes = report.thread_events.iter().enumerate();
    let lanes = lanes.map(|(w, evs)| (format!("worker-{w}"), evs.as_slice()));
    check_golden("trace.json", &ChromeTrace::from_events(lanes).to_json());
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
