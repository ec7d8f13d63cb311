//! The untraced run: three set-ups, one checked window, then the timed
//! windows that every end-to-end metric comes from.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use ringsampler::BatchSample;
use ringstat::Json;

use crate::check::{batch_digest, Oracle};
use crate::host;
use crate::report::{fast_rate, fast_time, in_table_order, median, percentile, Outcome};
use crate::run::{measure, setup, DataDir, Result, Runner, SetupTimes, Window};
use crate::spec::{Kind, Spec, END_TO_END, FANOUTS, MIN_WINDOWS, QUICK_DIV, SETUP_REPS};
use crate::trace::Tracer;

/// What the command line asked of one run.
#[derive(Debug, Clone)]
pub struct Options {
    pub spec: Spec,
    pub seed: u64,
    pub seconds: f64,
    pub quick: bool,
    /// Where datasets (`data/`) and result files (`out/`) go.
    pub root: PathBuf,
}

impl Options {
    pub fn div(&self) -> u64 {
        if self.quick {
            QUICK_DIV
        } else {
            1
        }
    }

    pub fn spec(&self) -> Spec {
        if self.quick {
            self.spec.scaled(QUICK_DIV)
        } else {
            self.spec
        }
    }

    pub fn data_dir(&self) -> Result<DataDir> {
        DataDir::create(
            &self.root.join("data"),
            &format!("{}-{}", self.spec.name, self.seed),
        )
    }
}

/// What the checked window established.
#[derive(Debug, Clone, Copy)]
pub struct Checked {
    /// Batches or requests looked at, and how many were wrong.
    pub attempted: u64,
    pub failed: u64,
    /// Digest of one epoch (of the window, for cold and on-demand).
    pub digest: u64,
    pub edges: u64,
    pub reqs: u64,
}

/// Runs one window (spanned, with a tracer) with the digest of every epoch
/// taken and, given an oracle, every batch checked against it. Returns the
/// window, the digest of each of its epochs, and the batches found wrong.
pub fn digest_window(
    runner: &mut Runner,
    spec: &Spec,
    oracle: Option<&Oracle>,
    tracer: Option<&Tracer>,
) -> Result<(Window, Vec<u64>, u64)> {
    let digests: Vec<AtomicU64> = (0..spec.epochs.max(1)).map(|_| AtomicU64::new(0)).collect();
    let bad = AtomicU64::new(0);
    // Relaxed throughout: plain tallies, read after the window's threads
    // have joined.
    let hook = |epoch: usize, idx: usize, sample: &BatchSample| {
        if oracle.is_some_and(|o| !o.batch_ok(sample)) {
            bad.fetch_add(1, Ordering::Relaxed);
        }
        digests[epoch].fetch_add(batch_digest(idx, sample), Ordering::Relaxed);
    };
    let window = runner.window(Some(&hook), tracer)?;
    let digests = digests.into_iter().map(AtomicU64::into_inner).collect();
    Ok((window, digests, bad.into_inner()))
}

/// Runs one window with every batch checked against the graph loaded by
/// plain file I/O. On the warm epoch workloads every epoch of the window
/// must also produce the same digest.
pub fn check_window(runner: &mut Runner, spec: &Spec) -> Result<Checked> {
    let oracle = Oracle::new(runner.sampler.graph().load_csr()?, &FANOUTS);
    let (window, digests, mut failed) = digest_window(runner, spec, Some(&oracle), None)?;
    let digest = match spec.kind {
        Kind::Epoch => {
            if digests.iter().any(|&d| d != digests[0]) {
                failed += window.reqs;
            }
            digests[0]
        }
        _ => digests.iter().fold(0u64, |a, &d| a.wrapping_add(d)),
    };
    Ok(Checked {
        attempted: window.reqs,
        failed,
        digest,
        edges: window.edges,
        reqs: window.reqs,
    })
}

/// Failed operations among timed windows: a warm epoch workload samples
/// the same edges in every window, so any other count is a wrong sample.
pub fn failed_in(windows: &[Window], checked: &Checked, spec: &Spec) -> u64 {
    windows
        .iter()
        .filter(|w| {
            w.reqs != checked.reqs || (spec.kind == Kind::Epoch && w.edges != checked.edges)
        })
        .map(|w| w.reqs.max(1))
        .sum()
}

/// Each window's (and client's) own latency percentile, then the fast
/// quartile of those.
pub fn window_percentile(windows: &[Window], p: f64) -> f64 {
    let each: Vec<f64> = windows
        .iter()
        .flat_map(|w| &w.lat_us)
        .map(|group| percentile(group, p))
        .collect();
    fast_time(&each)
}

pub fn sizes_json(spec: &Spec, div: u64, windows: &[Window]) -> Json {
    let gen = spec.graph.generator(div);
    let walls: Vec<f64> = windows.iter().map(|w| w.wall_s).collect();
    Json::object()
        .with("graph", Json::str(spec.graph.name()))
        .with("nodes", Json::U64(gen.num_nodes()))
        .with("edges", Json::U64(gen.num_edges()))
        .with("targets_per_epoch", Json::U64(spec.targets as u64))
        .with("batch", Json::U64(spec.batch as u64))
        .with("epochs_per_window", Json::U64(spec.epochs as u64))
        .with(
            "requests_per_client_per_window",
            Json::U64(spec.reqs as u64),
        )
        .with("windows", Json::U64(windows.len() as u64))
        .with("median_window_s", Json::F64(median(&walls)))
        .with(
            "window_s_each",
            Json::Array(walls.iter().map(|&s| Json::F64(s)).collect()),
        )
}

pub fn end_to_end(opts: &Options) -> Result<Outcome> {
    let spec = opts.spec();
    let data = opts.data_dir()?;
    let ref_before = host::ref_ns();

    let reps = if opts.quick { 1 } else { SETUP_REPS };
    let mut setups: Vec<SetupTimes> = Vec::new();
    let mut runner = None;
    for _ in 0..reps {
        // The previous sampler goes first: set-ups do not overlap.
        drop(runner.take());
        let (r, times) = setup(spec, opts.seed, opts.div(), &data.0)?;
        setups.push(times);
        runner = Some(r);
    }
    let mut runner = runner.expect("at least one set-up ran");

    let checked = check_window(&mut runner, &spec)?;
    // The check's copy of the graph is gone; the peak from here on is the
    // sampler's own.
    let hwm_reset = host::reset_hwm();
    let windows = measure(&mut runner, opts.seconds, MIN_WINDOWS)?;
    let peak_kb = host::vm_hwm_kb();
    let ref_after = host::ref_ns();

    let edges: u64 = windows.iter().map(|w| w.edges).sum();
    let phys: u64 = windows.iter().map(|w| w.phys_bytes).sum();
    if spec.kind == Kind::Cold && phys == 0 {
        return Err("skipped: POSIX_FADV_DONTNEED dropped no pages here (no bytes came from the device), so this workload would measure a warm cache".into());
    }
    let each = |f: fn(&Window) -> f64| windows.iter().map(f).collect::<Vec<_>>();
    let setup_s: Vec<f64> = setups.iter().map(|s| s.total_s).collect();
    let values = [
        ("setup_s", median(&setup_s)),
        ("edges_per_s", fast_rate(&each(|w| w.edges_per_s))),
        (
            "cpu_ns_per_edge",
            fast_time(&each(|w| w.cpu_ns as f64 / w.edges as f64)),
        ),
        ("peak_rss_mb", peak_kb as f64 * 1024.0 / 1e6),
        ("req_per_s", fast_rate(&each(|w| w.req_per_s))),
        ("req_p50_us", window_percentile(&windows, 0.5)),
        ("req_p90_us", window_percentile(&windows, 0.9)),
    ];

    let detail = Json::object()
        .with("workload", Json::str(spec.name))
        .with("seed", Json::U64(opts.seed))
        .with("host", host::fingerprint(&data.0))
        .with("sizes", sizes_json(&spec, opts.div(), &windows))
        .with("digest", Json::str(&format!("{:#018x}", checked.digest)))
        .with("edges_per_window", Json::U64(checked.edges))
        .with(
            "setup_s_each",
            Json::Array(setup_s.iter().map(|&s| Json::F64(s)).collect()),
        )
        .with("vm_hwm_reset", Json::Bool(hwm_reset))
        .with("phys_bytes_per_edge", Json::F64(phys as f64 / edges as f64))
        .with(
            "dontneed_dropped_pages",
            Json::Bool(spec.kind == Kind::Cold && phys > 0),
        )
        .with("host_ref_ns", Json::F64(ref_before))
        .with(
            "host_drift_frac",
            Json::F64((ref_after - ref_before).abs() / ref_before),
        );

    Ok(Outcome {
        attempted: checked.attempted + windows.iter().map(|w| w.reqs).sum::<u64>(),
        failed: checked.failed + failed_in(&windows, &checked, &spec),
        metrics: in_table_order(&END_TO_END, &values),
        detail,
    })
}
