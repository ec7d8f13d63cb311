//! Live congestion-detection acceptance test (DESIGN.md §14): a real
//! two-worker epoch with one artificially throttled worker must produce
//! a non-`ok` verdict on exactly that worker — observable on the live
//! `GET /congestion` endpoint mid-run and recorded as episodes in the
//! final [`EpochReport`] — while an unthrottled epoch stays all-`ok`.
//! A third phase checks the zero-interference invariant: enabling
//! telemetry with history changes no sampled byte; a fourth that the queue
//! gauge those verdicts read measures backlog, not group size: the default
//! ring with batches two full groups wide stays all-`ok` on either engine.
//!
//! All phases share one `#[test]` body: the engine's telemetry server is
//! process-global (first config wins), so the phases run sequentially
//! against the same registry rather than racing each other's epochs.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use ringsampler::telemetry::CongestionState;
use ringsampler::{EpochReport, RingSampler, SamplerConfig, TelemetryConfig};
use ringsampler_graph::edgefile::write_csr;
use ringsampler_graph::{CsrGraph, NodeId, OnDiskGraph};
use ringsampler_io::EngineKind;
use ringstat::Json;

fn build_graph(tag: &str) -> OnDiskGraph {
    build_graph_of(tag, 96)
}

fn build_graph_of(tag: &str, nodes: u32) -> OnDiskGraph {
    let base = std::env::temp_dir().join(format!("rs-congestion-{}-{tag}", std::process::id()));
    // Deterministic xorshift so both phases sample identical structure.
    let mut state = 0x1234_5678_9ABC_DEF0u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut edges = Vec::new();
    for v in 0..nodes {
        for _ in 0..6 {
            edges.push((v, (next() % nodes as u64) as u32));
        }
    }
    let csr = CsrGraph::from_edges(nodes as usize, edges).unwrap();
    write_csr(&csr, &base).unwrap()
}

fn config(telemetry: bool) -> SamplerConfig {
    let mut cfg = SamplerConfig::new()
        .fanouts(&[5, 3])
        .ring_entries(8)
        .threads(2)
        .batch_size(8)
        .seed(0xFEED);
    if telemetry {
        cfg = cfg.telemetry(live_telemetry());
    }
    cfg
}

fn live_telemetry() -> TelemetryConfig {
    TelemetryConfig::new("127.0.0.1:0")
        .poll_interval(Duration::from_millis(10))
}

/// 40 batches over 96 nodes: workers 0 and 1 own 20 each
/// (round-robin by batch index).
fn targets() -> Vec<NodeId> {
    (0..320u32).map(|i| i % 96).collect()
}

fn http_get(addr: std::net::SocketAddr, path: &str) -> Option<String> {
    use std::io::{Read as _, Write as _};
    let mut stream = std::net::TcpStream::connect(addr).ok()?;
    stream
        .write_all(format!("GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").as_bytes())
        .ok()?;
    let mut out = String::new();
    stream.read_to_string(&mut out).ok()?;
    out.split_once("\r\n\r\n").map(|(_, body)| body.to_string())
}

/// Runs one epoch over `targets` with a per-worker `on_batch` sleep and a
/// background `/congestion` poller; returns the report, every
/// `(worker, state)` pair observed live and the largest `inflight` any
/// worker published.
fn run_epoch(
    sampler: &RingSampler,
    targets: &[NodeId],
    slow_ms: [u64; 2],
) -> (EpochReport, Vec<(u64, String)>, u64) {
    let telemetry = sampler.telemetry().expect("telemetry on");
    let (addr, registry) = (telemetry.addr(), telemetry.registry());
    let backlog = AtomicU64::new(0);
    let done = AtomicBool::new(false);
    let seen: Mutex<Vec<(u64, String)>> = Mutex::new(Vec::new());
    let report = std::thread::scope(|scope| {
        let poller = scope.spawn(|| {
            while !done.load(Ordering::Acquire) {
                if let Some(body) = http_get(addr, "/congestion") {
                    if let Ok(doc) = Json::parse(&body) {
                        let workers = doc.get("workers").and_then(Json::as_array).unwrap_or(&[]);
                        let mut seen = seen.lock().unwrap();
                        for w in workers {
                            let worker = w.get("worker").and_then(Json::as_u64).unwrap_or(0);
                            let state = w
                                .get("state")
                                .and_then(Json::as_str)
                                .unwrap_or("?")
                                .to_string();
                            seen.push((worker, state));
                        }
                    }
                }
                std::thread::sleep(Duration::from_millis(15));
            }
        });
        let report = sampler
            .sample_epoch_with(targets, |idx, _sample| {
                // The callback runs on the owning worker's thread, right
                // after that worker published its batch.
                for s in registry.observe().iter().filter_map(|o| o.snapshot) {
                    backlog.fetch_max(s.inflight, Ordering::Relaxed);
                }
                // The throttle: sleeping here slows exactly one worker.
                std::thread::sleep(Duration::from_millis(slow_ms[idx % 2]));
            })
            .expect("epoch");
        done.store(true, Ordering::Release);
        poller.join().unwrap();
        report
    });
    (report, seen.into_inner().unwrap(), backlog.into_inner())
}

#[test]
fn throttled_worker_is_convicted_and_unthrottled_fleet_stays_ok() {
    // Phase 1 — throttled: worker 1 runs at a fifth of worker 0's pace.
    let sampler = RingSampler::new(build_graph("throttled"), config(true)).unwrap();
    let (report, observed, _) = run_epoch(&sampler, &targets(), [10, 50]);
    let non_ok: Vec<&(u64, String)> = observed.iter().filter(|(_, s)| s != "ok").collect();
    assert!(
        non_ok.iter().any(|(w, _)| *w == 1),
        "throttled worker 1 never showed a non-ok verdict on /congestion; observed {observed:?}"
    );
    assert!(
        non_ok.iter().all(|(w, _)| *w == 1),
        "only worker 1 is throttled, but others were convicted: {non_ok:?}"
    );
    assert!(
        !report.congestion.is_empty(),
        "the final report must record the congestion episodes"
    );
    assert!(
        report.congestion.iter().all(|e| e.worker == 1),
        "episodes must name the throttled worker only: {:?}",
        report.congestion
    );
    for e in &report.congestion {
        assert!(e.end_ms >= e.start_ms, "episode bounds inverted: {e:?}");
        assert_ne!(e.state, CongestionState::Ok, "episodes are non-ok by construction");
    }

    // Phase 2 — evenly loaded: the same brief pause on both workers.
    // Every live verdict and the final report must stay clean.
    let sampler = RingSampler::new(build_graph("even"), config(true)).unwrap();
    let (report, observed, _) = run_epoch(&sampler, &targets(), [10, 10]);
    assert!(
        observed.iter().all(|(_, s)| s == "ok"),
        "balanced fleet was convicted: {:?}",
        observed.iter().filter(|(_, s)| s != "ok").collect::<Vec<_>>()
    );
    assert!(
        report.congestion.is_empty(),
        "balanced fleet must record no episodes: {:?}",
        report.congestion
    );

    // Phase 3 — zero interference: telemetry with history enabled must
    // not change a single sampled byte versus telemetry off.
    let with_telemetry = RingSampler::new(build_graph("obs-a"), config(true)).unwrap();
    let without = RingSampler::new(build_graph("obs-b"), config(false)).unwrap();
    let collect = |sampler: &RingSampler| {
        let samples = Mutex::new(Vec::new());
        sampler
            .sample_epoch_with(&targets(), |idx, sample| {
                samples.lock().unwrap().push((idx, sample));
            })
            .expect("epoch");
        let mut samples = samples.into_inner().unwrap();
        samples.sort_by_key(|(idx, _)| *idx);
        samples
    };
    assert_eq!(
        collect(&with_telemetry),
        collect(&without),
        "sampling output must be byte-identical with telemetry history on vs off"
    );

    // Phase 4 — group size is not congestion. With the default 512-entry
    // ring and at least 1024 reads a batch the worker lends the engine two
    // full groups at once; a gauge of lent-out requests reads 1024 and
    // convicts every healthy run, pread included. The gauge is the backlog
    // the worker was blocked behind, and these reads come from the page
    // cache: nothing is ever waited for.
    let wide: Vec<NodeId> = (0..40 * 256u32).map(|i| i % 4096).collect();
    for engine in [EngineKind::Uring, EngineKind::Pread] {
        let cfg = SamplerConfig::new()
            .fanouts(&[4, 2])
            .threads(2)
            .batch_size(256)
            .seed(0xFEED)
            .engine(engine)
            .telemetry(live_telemetry());
        let graph = build_graph_of(&format!("wide-{engine:?}"), 4096);
        let sampler = RingSampler::new(graph, cfg).unwrap();
        let (report, observed, backlog) = run_epoch(&sampler, &wide, [10, 10]);
        assert!(report.metrics.io_requests >= 40 * 1024, "{engine:?}: batches too narrow");
        assert!(
            observed.iter().all(|(_, s)| s == "ok"),
            "{engine:?}: healthy default-ring fleet was convicted: {:?}",
            observed.iter().filter(|(_, s)| s != "ok").collect::<Vec<_>>()
        );
        assert!(report.congestion.is_empty(), "{engine:?}: {:?}", report.congestion);
        if engine == EngineKind::Pread {
            assert_eq!(backlog, 0, "pread never queues anything");
        }
    }
}
