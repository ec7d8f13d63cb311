//! Golden-file tests pinning the exact bytes of the `ringscope` live
//! endpoints (`GET /metrics`, `GET /progress`, `GET /trace`) against a
//! fixed two-worker snapshot registry. The documents are rendered by the
//! same pure functions the telemetry thread calls, with all time-dependent
//! inputs (rates, ETA, uptime) fixed — so the goldens are byte-stable.
//!
//! To regenerate after an intentional format change:
//! `UPDATE_GOLDEN=1 cargo test -p ringsampler --test golden_telemetry`

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use ringsampler::telemetry::{
    metrics_document, progress_document, trace_document, FleetRates, MetricsExtras, Monitor,
    SnapshotRegistry,
};
use ringstat::{EventKind, EventRing, Stage, TraceEvent, WorkerSnapshot};

/// The fixed two-worker fleet: worker 0 mid-epoch with reads in flight,
/// worker 1 further along. Deterministic histogram samples, no clocks.
fn golden_registry() -> Arc<SnapshotRegistry> {
    let registry = Arc::new(SnapshotRegistry::new());
    registry.reset_epoch(2);
    // Flight-recorder rings: worker 0 mid-batch (submit without its
    // complete yet), worker 1 with one full group lifecycle, its ring of
    // two having overwritten the batch start before it.
    let (r0, r1) = (Arc::new(EventRing::new(8)), Arc::new(EventRing::new(2)));
    let cells = [
        registry.install(Some(0), Arc::clone(&r0)),
        registry.install(Some(1), Arc::clone(&r1)),
    ];

    let mut w0 = WorkerSnapshot {
        epoch: 1,
        total_batches: 8,
        seeds: 384,
        cpu_nanos: 2_000_000,
        active: true,
        ..Default::default()
    };
    w0.metrics.batches = 3;
    w0.metrics.targets = 960;
    w0.metrics.sampled_edges = 1_536;
    w0.metrics.io_bytes = 6_144;
    w0.metrics.io_requests = 1_536;
    w0.metrics.io_groups = 12;
    for v in [500_000u64, 600_000, 900_000] {
        w0.account.batch_latency.record(v);
    }
    // Stage time: worker 0 waits on the device, worker 1 mostly samples;
    // the merged accounts are 60 % wait.
    w0.account.add(Stage::Submit, 300_000);
    w0.account.add(Stage::Wait, 1_500_000);
    cells[0].publish(w0);

    let mut w1 = WorkerSnapshot {
        epoch: 1,
        total_batches: 8,
        seeds: 640,
        cpu_nanos: 3_500_000,
        active: true,
        ..Default::default()
    };
    w1.metrics.batches = 5;
    w1.metrics.targets = 1_600;
    w1.metrics.sampled_edges = 2_560;
    w1.metrics.io_bytes = 10_240;
    w1.metrics.io_requests = 2_560;
    w1.metrics.io_groups = 20;
    for v in [400_000u64, 500_000, 700_000, 800_000, 1_100_000] {
        w1.account.batch_latency.record(v);
    }
    w1.account.add(Stage::Sample, 700_000);
    cells[1].publish(w1);

    let ev = |ts_ns: u64, kind: EventKind, a: u64, b: u64, c: u64, d: u64| TraceEvent {
        ts_ns,
        kind,
        a,
        b,
        c,
        d,
    };
    r0.record(ev(1_000, EventKind::BatchStart, 2, 128, 0, 0));
    r0.record(ev(1_500, EventKind::SampleDone, 10, 640, 450, 0));
    r0.record(ev(1_800, EventKind::PlanBuilt, 640, 320, 1_280, 250));
    r0.record(ev(2_000, EventKind::GroupSubmit, 6, 32, 32, 150));
    r1.record(ev(600, EventKind::BatchStart, 4, 128, 0, 0)); // overwritten
    r1.record(ev(900, EventKind::GroupSubmit, 9, 32, 32, 140));
    r1.record(ev(4_000, EventKind::GroupComplete, 9, 3_100, 2_600, 500));

    registry
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

/// Fixed non-registry inputs of the `/metrics` document (uptime, build
/// version) — the live server reads these from its clock and build; the
/// golden pins a representative set.
fn golden_extras() -> MetricsExtras {
    MetricsExtras {
        uptime_seconds: 12.5,
        version: "0.1.0".to_string(),
    }
}

#[test]
fn metrics_endpoint_body_is_pinned() {
    let registry = golden_registry();
    let doc = metrics_document(&registry.observe(), &registry.observe_traces(0), &golden_extras());
    // Satellite acceptance: uptime gauge and build-info family are part
    // of the pinned bytes.
    assert!(doc.contains("ringsampler_uptime_seconds 12.5"));
    assert!(doc.contains(r#"ringsampler_build_info{version="0.1.0"} 1"#));
    // Acceptance criteria: per-worker sampled-edge counters are present
    // before byte-pinning the whole document.
    assert!(doc.contains(r#"ringsampler_worker_sampled_edges_total{worker="0"} 1536"#));
    assert!(doc.contains(r#"ringsampler_worker_sampled_edges_total{worker="1"} 2560"#));
    assert!(doc.contains(r#"ringsampler_trace_recorded_total{worker="0"} 4"#));
    assert!(doc.contains(r#"ringsampler_trace_dropped_total{worker="1"} 1"#));
    // Every worker's six stage sums, so a scraper can take stage shares.
    assert!(doc.contains("# TYPE ringsampler_worker_stage_nanos_total counter"));
    assert!(doc.contains(r#"ringsampler_worker_stage_nanos_total{worker="0",stage="wait"} 1500000"#));
    assert!(doc.contains(r#"ringsampler_worker_stage_nanos_total{worker="1",stage="sample"} 700000"#));
    assert!(doc.contains(r#"ringsampler_worker_stage_nanos_total{worker="1",stage="wait"} 0"#));
    check_golden("telemetry_metrics.prom", &doc);
}

#[test]
fn trace_endpoint_body_is_pinned() {
    let doc = trace_document(&golden_registry().observe_traces(256));
    // The tail must carry the full group lifecycle with stage-attributed
    // payload fields before byte-pinning the whole document.
    assert!(doc.contains("\"kind\": \"group_submit\""));
    assert!(doc.contains("\"kind\": \"group_complete\""));
    assert!(doc.contains("\"dropped\": 1"));
    check_golden("telemetry_trace.json", &doc);
}

#[test]
fn progress_endpoint_body_is_pinned() {
    // Rates are inputs, not clock readings — fixed for the golden. The
    // windowed and lifetime figures intentionally differ: the fleet
    // slowed down, and `/progress` must show both.
    let rates = FleetRates {
        edges_per_sec: 4_096.0,
        batches_per_sec: 8.0,
        eta_seconds: Some(1.0),
        lifetime_edges_per_sec: 6_144.0,
        lifetime_batches_per_sec: 12.0,
    };
    let doc = progress_document(&golden_registry().observe(), &[], &rates);
    assert!(doc.contains("\"batches\": 8"));
    assert!(doc.contains("\"total_batches\": 16"));
    assert!(doc.contains("\"edges_per_sec\": 4096.0"));
    assert!(doc.contains("\"lifetime_edges_per_sec\": 6144.0"));
    assert!(doc.contains("\"dominant_stage\": \"wait\""), "{doc}");
    assert!(doc.contains("\"dominant_share\": 0.6"), "{doc}");
    check_golden("telemetry_progress.json", &doc);
}

#[test]
fn removed_endpoints_are_gone() {
    // `/progress` names the dominant stage and `/metrics` carries every
    // counter and stage sum, so no endpoint re-derives them: the
    // congestion verdicts, the history series and the resources ledger
    // answer 404 even over a monitor that has observed the fleet.
    let registry = golden_registry();
    let mut monitor = Monitor::new(Instant::now());
    monitor.tick(registry.observe(), Instant::now());
    for path in ["/congestion", "/history", "/history?window=8", "/resources"] {
        assert_eq!(monitor.route(path, &registry).status(), 404, "{path}");
    }
}
