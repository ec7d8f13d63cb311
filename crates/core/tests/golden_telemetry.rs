//! Golden-file tests pinning the exact bytes of the `ringscope` live
//! endpoints (`GET /metrics`, `GET /progress`, `GET /trace`,
//! `GET /history`, `GET /congestion`, `GET /resources`) against a fixed
//! two-worker snapshot registry. The documents are rendered by the same
//! pure functions the telemetry thread calls, with all time-dependent
//! inputs (rates, ETA, uptime, history timestamps) fixed — so the goldens
//! are byte-stable. The history, congestion and resources goldens go
//! through `Monitor::route`, the handler the server's socket loop calls,
//! over a synthetic timeline: the bytes asserted are the body a live
//! `ringtop` would receive.
//!
//! To regenerate after an intentional format change:
//! `UPDATE_GOLDEN=1 cargo test -p ringsampler --test golden_telemetry`

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ringsampler::telemetry::{
    metrics_document, progress_document, trace_document, FleetRates, MetricsExtras, Monitor,
    SnapshotRegistry, WorkerObservation,
};
use ringstat::{EventKind, EventRing, TraceEvent, WorkerSnapshot};

/// The fixed two-worker fleet: worker 0 mid-epoch with reads in flight,
/// worker 1 further along. Deterministic histogram samples, no clocks.
fn golden_registry() -> Arc<SnapshotRegistry> {
    let registry = Arc::new(SnapshotRegistry::new());
    let cells = registry.reset_epoch(2);

    let mut w0 = WorkerSnapshot::new();
    w0.epoch = 1;
    w0.batches = 3;
    w0.total_batches = 8;
    w0.targets = 384;
    w0.sampled_nodes = 960;
    w0.sampled_edges = 1_536;
    w0.bytes_read = 6_144;
    w0.reads_submitted = 1_536;
    w0.inflight = 4;
    w0.io_groups = 12;
    w0.cpu_nanos = 2_000_000;
    w0.active = true;
    for v in [500_000u64, 600_000, 900_000] {
        w0.batch_latency.record(v);
    }
    cells[0].publish(w0);

    let mut w1 = WorkerSnapshot::new();
    w1.epoch = 1;
    w1.batches = 5;
    w1.total_batches = 8;
    w1.targets = 640;
    w1.sampled_nodes = 1_600;
    w1.sampled_edges = 2_560;
    w1.bytes_read = 10_240;
    w1.reads_submitted = 2_560;
    w1.inflight = 0;
    w1.io_groups = 20;
    w1.cpu_nanos = 3_500_000;
    w1.active = true;
    for v in [400_000u64, 500_000, 700_000, 800_000, 1_100_000] {
        w1.batch_latency.record(v);
    }
    cells[1].publish(w1);

    // Flight-recorder rings: worker 0 mid-batch (submit without its
    // complete yet), worker 1 with one full group lifecycle and a drop.
    let ev = |ts_ns: u64, kind: EventKind, a: u64, b: u64, c: u64, d: u64| TraceEvent {
        ts_ns,
        kind,
        a,
        b,
        c,
        d,
    };
    let r0 = Arc::new(EventRing::new(8));
    r0.record(ev(1_000, EventKind::BatchStart, 2, 128, 0, 0));
    r0.record(ev(1_500, EventKind::SampleDone, 10, 640, 450, 0));
    r0.record(ev(1_800, EventKind::PlanBuilt, 640, 320, 1_280, 250));
    r0.record(ev(2_000, EventKind::GroupSubmit, 6, 32, 32, 150));
    registry.register_ring(0, r0);
    let r1 = Arc::new(EventRing::new(2));
    r1.record(ev(900, EventKind::GroupSubmit, 9, 32, 32, 140));
    r1.record(ev(4_000, EventKind::GroupComplete, 9, 3_100, 2_600, 500));
    r1.record(ev(4_200, EventKind::ScatterDone, 640, 180, 0, 0)); // dropped
    registry.register_ring(1, r1);

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
/// version, congestion roll-up) — the live server reads these from
/// clocks and the episode tracker; the golden pins a representative set.
fn golden_extras() -> MetricsExtras {
    MetricsExtras {
        uptime_seconds: 12.5,
        version: "0.1.0".to_string(),
        congestion_states: vec![
            (0, ringsampler::telemetry::CongestionState::Ok),
            (1, ringsampler::telemetry::CongestionState::Straggler),
        ],
        congestion_episodes: vec![(0, 0), (1, 2)],
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
    assert!(doc.contains(r#"ringsampler_worker_congestion_state{worker="1",state="straggler"} 1"#));
    assert!(doc.contains(r#"ringsampler_congestion_episodes_total{worker="1"} 2"#));
    // Acceptance criteria: per-worker sampled-edge counters and in-flight
    // SQE gauges are present before byte-pinning the whole document.
    assert!(doc.contains(r#"ringsampler_worker_sampled_edges_total{worker="0"} 1536"#));
    assert!(doc.contains(r#"ringsampler_worker_sampled_edges_total{worker="1"} 2560"#));
    assert!(doc.contains(r#"ringsampler_worker_inflight_reads{worker="0"} 4"#));
    assert!(doc.contains(r#"ringsampler_worker_inflight_reads{worker="1"} 0"#));
    assert!(doc.contains(r#"ringsampler_trace_recorded_total{worker="0"} 4"#));
    assert!(doc.contains(r#"ringsampler_trace_dropped_total{worker="1"} 1"#));
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
    check_golden("telemetry_progress.json", &doc);
}

/// Ticks a monitor through the fixed history timeline: six 250 ms-spaced
/// points per worker, worker 0 progressing at full rate, worker 1 at a
/// tenth of it (the straggler the congestion golden convicts). Instants
/// are synthetic, so the series — and everything derived from them — are
/// byte-stable.
fn golden_monitor(registry: &SnapshotRegistry) -> Monitor {
    let start = Instant::now();
    let mut monitor = Monitor::new(start);
    for i in 0..6u64 {
        let obs: Vec<WorkerObservation> = [(0usize, 1u64), (1usize, 10u64)]
            .iter()
            .map(|&(index, div)| {
                let mut s = WorkerSnapshot::new();
                s.epoch = 1;
                s.batches = 4 * i / div;
                s.total_batches = 64;
                s.targets = 512 * i / div;
                s.sampled_edges = 2_048 * i / div;
                s.bytes_read = 8_192 * i / div;
                s.inflight = 16 + 4 * i;
                s.io_groups = 8 * i / div;
                s.reads_submitted = 256 * i / div;
                s.submit_nanos = 40_000_000 * i / div;
                s.complete_nanos = 10_000_000 * i / div;
                // ringprof column: worker 0 busy (~180/250 ms on-CPU per
                // interval), the straggler mostly idle.
                s.cpu_nanos = 180_000_000 * i / div;
                s.active = true;
                s.batch_latency.record(700_000 + 50_000 * i);
                WorkerObservation {
                    index,
                    snapshot: Some(s),
                }
            })
            .collect();
        let stalled = monitor.tick(obs, start + Duration::from_millis(250 * i), registry);
        assert!(stalled.is_empty());
    }
    monitor
}

/// `GET path` answered by `monitor` (status, body).
fn get(monitor: &Monitor, registry: &SnapshotRegistry, path: &str) -> (u16, String) {
    let response = monitor.route(path, registry);
    (response.status(), response.body().to_string())
}

#[test]
fn history_endpoint_body_is_pinned_through_http() {
    let registry = SnapshotRegistry::new();
    let monitor = golden_monitor(&registry);

    let (code, body) = get(&monitor, &registry, "/history?window=8");
    assert_eq!(code, 200);
    assert!(body.contains("\"t_ms\": 1250"));
    assert!(body.contains("\"edges_per_sec\": 8192.0"), "{body}");
    check_golden("telemetry_history.json", &body);

    // The worker filter narrows the document to the requested series.
    let (code, filtered) = get(&monitor, &registry, "/history?worker=1&window=8");
    assert_eq!(code, 200);
    assert!(filtered.contains("\"worker\": 1"));
    assert!(!filtered.contains("\"worker\": 0"));
}

#[test]
fn resources_endpoint_body_is_pinned_through_http() {
    use ringsampler::{EpochReport, ResourceReport, WorkerResources};
    use ringstat::{Json, Phase, PhaseTimes, ResourceSample, TimeLedger};

    // The same deterministic ringprof interval the report golden pins:
    // 250 ms wall, 240 ms on-CPU, fixed stage walls. The engine renders
    // this exact document at epoch join and publishes it verbatim.
    let mut phases = PhaseTimes::new();
    phases.add(Phase::Prepare, 400_000);
    phases.add(Phase::Submit, 600_000);
    phases.add(Phase::Complete, 3_000_000);
    phases.add(Phase::Aggregate, 250_000);
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
    let mut res = ResourceReport::default();
    res.absorb(WorkerResources {
        wall_nanos: 250_000_000,
        ledger: TimeLedger::build(250_000_000, &phases, sample.cpu_nanos),
        logical_bytes: 16_384,
        sample,
    });
    res.physical_rchar = 5 << 20;
    res.physical_read_bytes = 2 << 20;
    res.logical_bytes = 16_384;
    let report = EpochReport {
        resources: Some(res),
        ..Default::default()
    };
    let doc = Json::object()
        .with("epoch", Json::U64(1))
        .with("resources", report.resources_json_value())
        .to_string_pretty();

    // Travel the registry → route path: the bytes asserted are the body
    // a live scraper receives from GET /resources.
    let registry = SnapshotRegistry::new();
    registry.publish_resources(doc);
    let (code, body) = get(&Monitor::new(Instant::now()), &registry, "/resources");
    assert_eq!(code, 200);
    assert!(body.contains("\"read_amplification\": 320.0"), "{body}");
    assert!(body.contains("\"conserved\": true"), "{body}");
    assert!(body.contains("\"physical_attribution\": \"proportional\""), "{body}");
    check_golden("telemetry_resources.json", &body);
}

#[test]
fn congestion_endpoint_body_is_pinned() {
    // Before its first tick the monitor judges nobody.
    let registry = SnapshotRegistry::new();
    let (code, body) = get(&Monitor::new(Instant::now()), &registry, "/congestion");
    assert_eq!(code, 200);
    assert!(body.contains("\"workers\": 0"), "{body}");

    // The detector the telemetry thread runs, over the monitor's series:
    // worker 1 completes batches at a tenth of the fleet median and must
    // be convicted as the straggler.
    let monitor = golden_monitor(&registry);
    let (code, doc) = get(&monitor, &registry, "/congestion");
    assert_eq!(code, 200);
    assert!(doc.contains("\"state\": \"ok\""), "{doc}");
    assert!(doc.contains("\"state\": \"straggler\""), "{doc}");
    assert!(doc.contains("\"congested\": 1"), "{doc}");
    check_golden("telemetry_congestion.json", &doc);
}
