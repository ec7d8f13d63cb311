//! # ringsampler-bench
//!
//! Benchmark harness regenerating every table and figure of the
//! RingSampler paper (HotStorage '25). One binary per experiment:
//!
//! | Binary | Paper artifact |
//! |---|---|
//! | `table1` | Table 1 — dataset inventory and sizes |
//! | `fig4_overall` | Fig. 4 — 8 systems × 4 graphs, sampling time/epoch |
//! | `fig5_memory` | Fig. 5 — out-of-core systems under memory budgets |
//! | `fig6_latency` | Fig. 6 — on-demand sampling completion CDF |
//! | `fig7_layers` | Fig. 7 — hop sweep (1–4 layers) |
//! | `fig8_threads` | Fig. 8 — thread scalability, constrained/unconstrained |
//!
//! Criterion benches (`cargo bench`) cover the micro/ablation studies the
//! design motivates: sync vs async pipeline, offset vs full-list reads,
//! queue-depth sweep, ring vs pread syscall counts.
//!
//! ## Scaling
//!
//! All experiments run on synthetic datasets with the paper's shapes at
//! `RS_SCALE`-fold reduction (default 400; see DESIGN.md's substitution
//! table). Memory budgets and device capacities are divided by the same
//! factor, which preserves every capacity relationship in the paper
//! (which systems OOM where). Other knobs: `RS_TARGETS` (targets per
//! epoch, default 10000), `RS_EPOCHS` (measured epochs, default 3),
//! `RS_DATA_DIR` (dataset cache, default `./data`).

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod ringtop;
pub mod ringtrace;

use std::io::Write;
use std::path::{Path, PathBuf};

use ringsampler::{
    epoch_targets, EpochReport, MemoryBudget, ReadPlanMode, RingSampler, SamplerConfig,
    SamplerError, TelemetryConfig,
};
use ringstat::{ChromeTrace, Json, PromWriter};
use ringsampler_baselines::marius_like::DiskModel;
use ringsampler_baselines::{
    DeviceModel, GpuFlavor, GpuMode, GpuSimSampler, InMemorySampler, MariusLikeSampler,
    NeighborSampler, RingSamplerSystem, SmartSsdModel, SmartSsdSampler,
};
use ringsampler_graph::{DatasetSpec, NodeId, OnDiskGraph};

/// Paper defaults (§4.1): 3 layers, fanout {20, 15, 10}.
pub const DEFAULT_FANOUTS: [usize; 3] = [20, 15, 10];
/// Paper default mini-batch size.
pub const DEFAULT_BATCH: usize = 1024;
/// Paper machine's DRAM (the implicit budget of Fig. 4).
pub const PAPER_DRAM_BYTES: u64 = 256 << 30;
/// Paper GPU HBM.
pub const PAPER_HBM_BYTES: u64 = 80 << 30;
/// The paper machine's core count. Simulated device rates are scaled by
/// `local_threads / PAPER_THREADS` so device-to-CPU time ratios carry over
/// to smaller hosts (per-core throughput here is within ~25% of the
/// paper's EPYC 7713P; see DESIGN.md).
pub const PAPER_THREADS: usize = 64;

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&v| v > 0)
        .unwrap_or(default)
}

/// Harness-wide settings derived from the environment.
#[derive(Debug, Clone)]
pub struct HarnessConfig {
    /// Dataset/memory down-scale divisor.
    pub scale: u64,
    /// Target nodes per measured epoch.
    pub targets_per_epoch: usize,
    /// Measured epochs per configuration (paper: 5).
    pub epochs: usize,
    /// Where generated datasets live.
    pub data_dir: PathBuf,
    /// Worker threads for RingSampler (paper: 64, clamped to cores).
    pub threads: usize,
    /// Read-plan optimization for RingSampler workers
    /// (`RS_READ_PLAN` = `off` / `coalesce` / `coalesce:<gap>`;
    /// default `off`, the paper-faithful one-read-per-entry pattern).
    pub read_plan: ReadPlanMode,
    /// Bind address for the embedded `ringscope` telemetry server
    /// (`--serve <addr>` or `RS_SERVE=<addr>`; e.g. `127.0.0.1:9898`, or
    /// port `0` to pick a free port). `None` (the default) disables
    /// telemetry entirely — no listener, no snapshot publishing.
    pub serve: Option<String>,
    /// Flight-recorder ring capacity override (`RS_TRACE_CAPACITY`;
    /// `0` disables event recording entirely). `None` keeps
    /// [`SamplerConfig`]'s default capacity.
    pub trace_capacity: Option<usize>,
}

impl HarnessConfig {
    /// Reads `RS_SCALE`, `RS_TARGETS`, `RS_EPOCHS`, `RS_DATA_DIR`,
    /// `RS_THREADS`, `RS_READ_PLAN`, `RS_TRACE_CAPACITY` and `RS_SERVE`
    /// from the environment, then lets a `--serve <addr>` process argument
    /// override the serve address.
    pub fn from_env() -> Self {
        let args: Vec<String> = std::env::args().skip(1).collect();
        Self::from_env_and_args(&args)
    }

    /// [`from_env`](Self::from_env) over an explicit argument list
    /// (exposed for tests).
    pub fn from_env_and_args(args: &[String]) -> Self {
        let scale = env_u64("RS_SCALE", 400);
        let threads = env_u64(
            "RS_THREADS",
            std::thread::available_parallelism()
                .map(|n| n.get() as u64)
                .unwrap_or(8)
                .min(64),
        ) as usize;
        let serve_arg = args
            .windows(2)
            .find(|w| w[0] == "--serve")
            .map(|w| w[1].clone());
        Self {
            scale,
            targets_per_epoch: env_u64("RS_TARGETS", 10_000) as usize,
            epochs: env_u64("RS_EPOCHS", 3) as usize,
            data_dir: std::env::var("RS_DATA_DIR")
                .map(PathBuf::from)
                .unwrap_or_else(|_| PathBuf::from("data")),
            threads,
            read_plan: std::env::var("RS_READ_PLAN")
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or(ReadPlanMode::Off),
            serve: serve_arg.or_else(|| std::env::var("RS_SERVE").ok().filter(|s| !s.is_empty())),
            // Unlike env_u64 this admits 0 (= recording off).
            trace_capacity: std::env::var("RS_TRACE_CAPACITY")
                .ok()
                .and_then(|v| v.parse().ok()),
        }
    }

    /// The telemetry configuration implied by the `serve` knob, ready for
    /// [`SamplerConfig::telemetry_opt`]. `None` when serving is off.
    pub fn telemetry(&self) -> Option<TelemetryConfig> {
        self.serve.as_deref().map(TelemetryConfig::new)
    }

    /// Keeps the process (and its telemetry endpoints) alive for
    /// `RS_SERVE_LINGER` seconds after the experiment finishes, so smoke
    /// tests and humans can scrape final state. No-op unless serving.
    pub fn serve_linger(&self) {
        if self.serve.is_none() {
            return;
        }
        let secs = std::env::var("RS_SERVE_LINGER")
            .ok()
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or(0);
        if secs > 0 {
            eprintln!("ringscope lingering {secs}s (RS_SERVE_LINGER)");
            std::thread::sleep(std::time::Duration::from_secs(secs));
        }
    }

    /// Materializes a dataset (generating it on first use).
    ///
    /// # Errors
    /// Propagates generation/preprocessing errors.
    pub fn dataset(&self, spec: &DatasetSpec) -> ringsampler_graph::Result<OnDiskGraph> {
        spec.materialize(&self.data_dir)
    }

    /// The epoch's target nodes: a seeded permutation prefix of
    /// `targets_per_epoch` nodes (the paper samples a fixed labeled/train
    /// set each epoch).
    pub fn epoch_targets(&self, graph: &OnDiskGraph, epoch: u64) -> Vec<NodeId> {
        let mut t = epoch_targets(graph.num_nodes(), epoch, 0xBEEF);
        t.truncate(self.targets_per_epoch);
        t
    }

    /// Scaled host-DRAM budget (Fig. 4's implicit 256 GB).
    pub fn host_budget(&self) -> MemoryBudget {
        MemoryBudget::limited(PAPER_DRAM_BYTES / self.scale)
    }
}

/// The eight systems of Fig. 4, in the paper's legend order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SystemKind {
    /// This paper's system.
    RingSampler,
    /// DGL sampling on the CPU, graph in DRAM.
    DglCpu,
    /// DGL with UVA transfers.
    DglUva,
    /// DGL, graph resident in HBM.
    DglGpu,
    /// gSampler with UVA transfers.
    GSamplerUva,
    /// gSampler, graph resident in HBM.
    GSamplerGpu,
    /// In-situ FPGA sampling on a SmartSSD.
    SmartSsd,
    /// MariusGNN partition-buffer out-of-core.
    Marius,
}

impl SystemKind {
    /// Fig. 4's legend order.
    pub const ALL: [SystemKind; 8] = [
        SystemKind::RingSampler,
        SystemKind::DglCpu,
        SystemKind::DglUva,
        SystemKind::DglGpu,
        SystemKind::GSamplerUva,
        SystemKind::GSamplerGpu,
        SystemKind::SmartSsd,
        SystemKind::Marius,
    ];

    /// Display name as in the paper's legend.
    pub fn name(self) -> &'static str {
        match self {
            SystemKind::RingSampler => "RingSampler",
            SystemKind::DglCpu => "DGL-CPU",
            SystemKind::DglUva => "DGL-UVA",
            SystemKind::DglGpu => "DGL-GPU",
            SystemKind::GSamplerUva => "gSampler-UVA",
            SystemKind::GSamplerGpu => "gSampler-GPU",
            SystemKind::SmartSsd => "SmartSSD",
            SystemKind::Marius => "Marius",
        }
    }
}

/// Builds a system instance over `graph` under the harness' scaled
/// capacities. Construction failure with `OutOfMemory` is the paper's OOM
/// outcome.
///
/// # Errors
/// `SamplerError::OutOfMemory` models OOM; other errors are real failures.
#[allow(clippy::too_many_arguments)]
pub fn build_system(
    kind: SystemKind,
    graph: &OnDiskGraph,
    fanouts: &[usize],
    batch: usize,
    threads: usize,
    budget: &MemoryBudget,
    harness: &HarnessConfig,
    seed: u64,
) -> Result<Box<dyn NeighborSampler>, SamplerError> {
    let scale = harness.scale;
    Ok(match kind {
        SystemKind::RingSampler => {
            let mut cfg = SamplerConfig::new()
                .fanouts(fanouts)
                .batch_size(batch)
                .threads(threads)
                .budget(budget.clone())
                .read_plan(harness.read_plan)
                .telemetry_opt(harness.telemetry())
                .seed(seed);
            if let Some(n) = harness.trace_capacity {
                cfg = cfg.trace_capacity(n);
            }
            Box::new(RingSamplerSystem::new(RingSampler::new(graph.clone(), cfg)?))
        }
        SystemKind::DglCpu => Box::new(InMemorySampler::new(
            graph, fanouts, batch, threads, budget, seed,
        )?),
        SystemKind::DglUva | SystemKind::DglGpu | SystemKind::GSamplerUva
        | SystemKind::GSamplerGpu => {
            let (flavor, mode) = match kind {
                SystemKind::DglUva => (GpuFlavor::Dgl, GpuMode::Uva),
                SystemKind::DglGpu => (GpuFlavor::Dgl, GpuMode::DeviceResident),
                SystemKind::GSamplerUva => (GpuFlavor::GSampler, GpuMode::Uva),
                _ => (GpuFlavor::GSampler, GpuMode::DeviceResident),
            };
            Box::new(GpuSimSampler::new(
                graph,
                mode,
                flavor,
                DeviceModel::a100(flavor)
                    .scaled(scale)
                    .rates_scaled(threads, PAPER_THREADS),
                fanouts,
                batch,
                threads,
                budget,
                seed,
            )?)
        }
        SystemKind::SmartSsd => Box::new(SmartSsdSampler::new(
            graph,
            SmartSsdModel::default()
                .scaled(scale)
                .rates_scaled(threads, PAPER_THREADS),
            fanouts,
            batch,
            budget,
            seed,
        )?),
        SystemKind::Marius => Box::new(
            MariusLikeSampler::new(graph, 32, fanouts, batch, budget, true, seed)?
                .with_disk_model(DiskModel::default().rates_scaled(threads, PAPER_THREADS)),
        ),
    })
}

/// Collects labeled [`EpochReport`]s during an experiment and writes the
/// structured artifacts requested on the command line:
///
/// * `--stats-json PATH` — all reports as one JSON document
///   (`{"schema_version": 1, "reports": [{"label", "report"}, ...]}`);
/// * `--prometheus PATH` — Prometheus text exposition, one series set per
///   report with a `run` label;
/// * `--trace PATH` — Chrome `trace.json` (Perfetto-loadable) with one
///   timeline row per sampling worker, folded from the same events
///   `--trace-events` dumps raw;
/// * `--trace-events PATH` (env `RS_TRACE_EVENTS`) — raw flight-recorder
///   event dump, the input of the `ringtrace` analyzer bin.
///
/// With no flags the sink is disabled and [`note`](Self::note) is free.
#[derive(Debug, Default)]
pub struct StatsSink {
    json_path: Option<PathBuf>,
    trace_path: Option<PathBuf>,
    prom_path: Option<PathBuf>,
    trace_events_path: Option<PathBuf>,
    reports: Vec<(String, EpochReport)>,
}

impl StatsSink {
    /// A sink that records and writes nothing.
    pub fn disabled() -> Self {
        Self::default()
    }

    /// Parses `--stats-json`, `--trace`, `--prometheus` and
    /// `--trace-events` from the process arguments (with `RS_TRACE_EVENTS`
    /// as the environment fallback for the last). Unknown arguments are
    /// ignored (the experiment binaries take their main knobs from `RS_*`
    /// environment variables).
    pub fn from_args() -> Self {
        Self::from_arg_list(&std::env::args().skip(1).collect::<Vec<_>>())
    }

    /// [`from_args`](Self::from_args) over an explicit argument list.
    pub fn from_arg_list(args: &[String]) -> Self {
        let mut sink = Self::default();
        let mut i = 0;
        while i < args.len() {
            let value = args.get(i + 1).map(PathBuf::from);
            match args[i].as_str() {
                "--stats-json" => {
                    sink.json_path = value;
                    i += 1;
                }
                "--trace" => {
                    sink.trace_path = value;
                    i += 1;
                }
                "--prometheus" => {
                    sink.prom_path = value;
                    i += 1;
                }
                "--trace-events" => {
                    sink.trace_events_path = value;
                    i += 1;
                }
                _ => {}
            }
            i += 1;
        }
        if sink.trace_events_path.is_none() {
            sink.trace_events_path = std::env::var("RS_TRACE_EVENTS")
                .ok()
                .filter(|s| !s.is_empty())
                .map(PathBuf::from);
        }
        sink
    }

    /// True if any output path was requested.
    pub fn is_enabled(&self) -> bool {
        self.json_path.is_some()
            || self.trace_path.is_some()
            || self.prom_path.is_some()
            || self.trace_events_path.is_some()
    }

    /// Number of reports recorded so far.
    pub fn len(&self) -> usize {
        self.reports.len()
    }

    /// True if no reports were recorded.
    pub fn is_empty(&self) -> bool {
        self.reports.is_empty()
    }

    /// Records one labeled report (no-op when the sink is disabled).
    pub fn note(&mut self, label: &str, report: &EpochReport) {
        if self.is_enabled() {
            self.reports.push((label.to_string(), report.clone()));
        }
    }

    /// The JSON document content (exposed for tests; [`finish`](Self::finish)
    /// writes it to the `--stats-json` path).
    pub fn json_document(&self) -> String {
        let mut reports = Vec::with_capacity(self.reports.len());
        for (label, report) in &self.reports {
            reports.push(
                Json::object()
                    .with("label", Json::str(label))
                    .with("report", report.to_json_value()),
            );
        }
        Json::object()
            .with("schema_version", Json::U64(1))
            .with("reports", Json::Array(reports))
            .to_string_pretty()
    }

    /// The Prometheus exposition content (one series set per report,
    /// distinguished by a `run` label).
    pub fn prometheus_document(&self) -> String {
        let mut w = PromWriter::new();
        for (label, report) in &self.reports {
            report.write_prometheus(&mut w, &[("run", label)]);
        }
        w.finish()
    }

    /// The Chrome trace document, folded from the flight-recorder events.
    /// Workers of every report are laid out on distinct `tid` rows so
    /// epochs don't overdraw each other; metadata events label each lane
    /// `<run label>/worker-N` in Perfetto instead of a bare tid.
    pub fn trace_document(&self) -> String {
        let lanes = self.reports.iter().flat_map(|(label, report)| {
            let workers = report.thread_events.iter().enumerate();
            workers.map(move |(w, evs)| (format!("{label}/worker-{w}"), evs.as_slice()))
        });
        ChromeTrace::from_events(lanes).to_json()
    }

    /// The raw flight-recorder dump written to `--trace-events`: every
    /// report's drained per-worker event lists with wire-stable kind
    /// names, as consumed by the `ringtrace` analyzer
    /// ([`ringtrace::TraceDump::parse`]).
    pub fn trace_events_document(&self) -> String {
        let mut reports = Vec::with_capacity(self.reports.len());
        for (label, report) in &self.reports {
            reports.push(
                Json::object()
                    .with("label", Json::str(label))
                    .with("trace", report.trace_events_json_value()),
            );
        }
        Json::object()
            .with("schema_version", Json::U64(1))
            .with("reports", Json::Array(reports))
            .to_string_pretty()
    }

    /// Writes every requested artifact (creating parent directories).
    ///
    /// # Errors
    /// Propagates file I/O errors.
    pub fn finish(&self) -> std::io::Result<()> {
        fn write(path: &Path, content: &str) -> std::io::Result<()> {
            if let Some(dir) = path.parent() {
                if !dir.as_os_str().is_empty() {
                    std::fs::create_dir_all(dir)?;
                }
            }
            std::fs::write(path, content)?;
            eprintln!("wrote {}", path.display());
            Ok(())
        }
        if let Some(p) = &self.json_path {
            write(p, &self.json_document())?;
        }
        if let Some(p) = &self.prom_path {
            write(p, &self.prometheus_document())?;
        }
        if let Some(p) = &self.trace_path {
            write(p, &self.trace_document())?;
        }
        if let Some(p) = &self.trace_events_path {
            write(p, &self.trace_events_document())?;
        }
        Ok(())
    }
}

/// One experiment measurement: seconds, OOM, or a real failure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Outcome {
    /// Mean reported seconds per epoch.
    Seconds(f64),
    /// The system could not fit its memory requirement.
    Oom,
    /// The run failed with a real error (recorded so a figure can finish
    /// its remaining cells before the binary exits non-zero).
    Failed,
}

impl std::fmt::Display for Outcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // f.pad so callers' width/alignment specifiers apply.
        match self {
            Outcome::Seconds(s) => f.pad(&format!("{s:.3}")),
            Outcome::Oom => f.pad("OOM"),
            Outcome::Failed => f.pad("ERR"),
        }
    }
}

impl Outcome {
    /// The seconds value, if the run completed.
    pub fn seconds(&self) -> Option<f64> {
        match self {
            Outcome::Seconds(s) => Some(*s),
            Outcome::Oom | Outcome::Failed => None,
        }
    }
}

/// Runs `epochs` epochs of `kind` over `graph` and averages the reported
/// seconds (the paper plots the mean of five epochs).
///
/// # Errors
/// Real failures (I/O, bugs) propagate; OOM becomes [`Outcome::Oom`].
pub fn measure_system(
    kind: SystemKind,
    graph: &OnDiskGraph,
    fanouts: &[usize],
    batch: usize,
    threads: usize,
    budget: &MemoryBudget,
    harness: &HarnessConfig,
) -> Result<Outcome, SamplerError> {
    measure_system_observed(
        kind,
        graph,
        fanouts,
        batch,
        threads,
        budget,
        harness,
        kind.name(),
        &mut StatsSink::disabled(),
    )
}

/// [`measure_system`], recording each epoch's [`EpochReport`] into `sink`
/// under `label/epochN` so structured run artifacts can be exported.
///
/// # Errors
/// Real failures (I/O, bugs) propagate; OOM becomes [`Outcome::Oom`].
#[allow(clippy::too_many_arguments)]
pub fn measure_system_observed(
    kind: SystemKind,
    graph: &OnDiskGraph,
    fanouts: &[usize],
    batch: usize,
    threads: usize,
    budget: &MemoryBudget,
    harness: &HarnessConfig,
    label: &str,
    sink: &mut StatsSink,
) -> Result<Outcome, SamplerError> {
    let mut system = match build_system(kind, graph, fanouts, batch, threads, budget, harness, 7)
    {
        Ok(s) => s,
        Err(SamplerError::OutOfMemory { .. }) => return Ok(Outcome::Oom),
        Err(e) => return Err(e),
    };
    let mut total = 0.0;
    for epoch in 0..harness.epochs {
        let targets = harness.epoch_targets(graph, epoch as u64);
        match system.sample_epoch(&targets) {
            Ok(r) => {
                sink.note(&format!("{label}/epoch{epoch}"), &r.measured);
                total += r.reported_seconds();
            }
            Err(SamplerError::OutOfMemory { .. }) => return Ok(Outcome::Oom),
            Err(e) => return Err(e),
        }
    }
    Ok(Outcome::Seconds(total / harness.epochs as f64))
}

/// Writes a result table to stdout and to `results/<name>.txt` (consumed
/// by EXPERIMENTS.md).
///
/// # Errors
/// Propagates file I/O errors.
pub fn emit_table(name: &str, header: &str, rows: &[String]) -> std::io::Result<()> {
    let mut out = String::new();
    out.push_str(&format!("== {name} ==\n"));
    out.push_str(header);
    out.push('\n');
    for r in rows {
        out.push_str(r);
        out.push('\n');
    }
    print!("{out}");
    std::fs::create_dir_all("results")?;
    let mut f = std::fs::File::create(format!("results/{name}.txt"))?;
    f.write_all(out.as_bytes())
}

/// Renders a log-scale horizontal bar chart (the paper's Figures 4/5/7
/// are log-scale bar plots) from `(label, outcome)` pairs. OOM entries
/// render as the paper's "OOM" markers.
pub fn render_log_bars(title: &str, series: &[(String, Outcome)]) -> String {
    let secs: Vec<f64> = series.iter().filter_map(|(_, o)| o.seconds()).collect();
    let mut out = format!("{title}\n");
    if secs.is_empty() {
        out.push_str("  (all OOM)\n");
        return out;
    }
    let max = secs.iter().cloned().fold(f64::MIN, f64::max);
    let min = secs.iter().cloned().fold(f64::MAX, f64::min).max(1e-6);
    let span = (max / min).log10().max(1e-9);
    let width = 46.0;
    let label_w = series.iter().map(|(l, _)| l.len()).max().unwrap_or(8);
    for (label, o) in series {
        match o.seconds() {
            Some(s) => {
                // Bars start at one char so the fastest system is visible.
                let frac = ((s / min).log10() / span).clamp(0.0, 1.0);
                let bar = "█".repeat(1 + (frac * width) as usize);
                out.push_str(&format!("  {label:<label_w$} |{bar} {s:.3}s\n"));
            }
            None => out.push_str(&format!("  {label:<label_w$} |  OOM\n")),
        }
    }
    out.push_str(&format!(
        "  {:label_w$} +{} (log scale, {min:.3}s – {max:.3}s)\n",
        "", "-".repeat(10)
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ringsampler_graph::DatasetId;

    #[test]
    fn harness_defaults() {
        let h = HarnessConfig::from_env();
        assert!(h.scale > 0);
        assert!(h.threads >= 1);
        assert!(h.epochs >= 1);
    }

    #[test]
    fn system_kind_names() {
        assert_eq!(SystemKind::ALL.len(), 8);
        assert_eq!(SystemKind::RingSampler.name(), "RingSampler");
        assert_eq!(SystemKind::GSamplerUva.name(), "gSampler-UVA");
    }

    #[test]
    fn outcome_display() {
        assert_eq!(Outcome::Seconds(1.5).to_string(), "1.500");
        assert_eq!(Outcome::Oom.to_string(), "OOM");
        assert_eq!(Outcome::Oom.seconds(), None);
        assert_eq!(Outcome::Failed.to_string(), "ERR");
        assert_eq!(Outcome::Failed.seconds(), None);
    }

    #[test]
    fn serve_flag_parses_from_args() {
        let h = HarnessConfig::from_env_and_args(&strings(&["--serve", "127.0.0.1:0"]));
        assert_eq!(h.serve.as_deref(), Some("127.0.0.1:0"));
        let t = h.telemetry().expect("serve implies telemetry");
        assert_eq!(t.addr, "127.0.0.1:0");
        // A dangling --serve with no value stays off, as does no flag.
        let dangling = HarnessConfig::from_env_and_args(&strings(&["--serve"]));
        assert!(dangling.serve.is_none() || std::env::var("RS_SERVE").is_ok());
        let off = HarnessConfig::from_env_and_args(&[]);
        if std::env::var("RS_SERVE").is_err() {
            assert!(off.serve.is_none());
            assert!(off.telemetry().is_none());
        }
    }

    #[test]
    fn log_bars_render() {
        let series = vec![
            ("RingSampler".to_string(), Outcome::Seconds(0.5)),
            ("SmartSSD".to_string(), Outcome::Seconds(25.0)),
            ("Marius".to_string(), Outcome::Oom),
        ];
        let chart = render_log_bars("fig", &series);
        assert!(chart.contains("RingSampler"));
        assert!(chart.contains("OOM"));
        assert!(chart.contains("log scale"));
        // Slower system gets a longer bar.
        let rs_bar = chart.lines().find(|l| l.contains("RingSampler")).unwrap();
        let ssd_bar = chart.lines().find(|l| l.contains("SmartSSD")).unwrap();
        let count = |l: &str| l.chars().filter(|&c| c == '█').count();
        assert!(count(ssd_bar) > count(rs_bar));
    }

    #[test]
    fn log_bars_all_oom() {
        let chart = render_log_bars("x", &[("a".into(), Outcome::Oom)]);
        assert!(chart.contains("all OOM"));
    }

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn stats_sink_parses_flags() {
        let s = StatsSink::from_arg_list(&strings(&[
            "--stats-json",
            "a.json",
            "--trace",
            "t.json",
            "--prometheus",
            "m.prom",
            "--trace-events",
            "e.json",
        ]));
        assert!(s.is_enabled());
        assert_eq!(s.trace_events_path.as_deref(), Some(Path::new("e.json")));
        if std::env::var("RS_TRACE_EVENTS").is_err() {
            let none = StatsSink::from_arg_list(&strings(&["--unrelated", "x"]));
            assert!(!none.is_enabled());
            // A trailing flag with no value stays disabled rather than
            // panicking.
            let dangling = StatsSink::from_arg_list(&strings(&["--stats-json"]));
            assert!(!dangling.is_enabled());
        }
    }

    #[test]
    fn stats_sink_disabled_records_nothing() {
        let mut s = StatsSink::disabled();
        s.note("x", &ringsampler::EpochReport::default());
        assert!(s.is_empty());
        s.finish().unwrap(); // writes no files
    }

    #[test]
    fn stats_sink_documents_carry_labels() {
        let mut s = StatsSink::from_arg_list(&strings(&["--stats-json", "unused.json"]));
        let mut report = ringsampler::EpochReport::default();
        report.metrics.batches = 3;
        s.note("fig4/epoch0", &report);
        assert_eq!(s.len(), 1);
        let json = s.json_document();
        assert!(json.contains("\"schema_version\": 1"), "{json}");
        assert!(json.contains("\"label\": \"fig4/epoch0\""), "{json}");
        assert!(json.contains("\"batches\": 3"), "{json}");
        let prom = s.prometheus_document();
        assert!(
            prom.contains("ringsampler_batches_total{run=\"fig4/epoch0\"} 3"),
            "{prom}"
        );
        let trace = s.trace_document();
        assert!(trace.contains("\"traceEvents\""), "{trace}");
        assert!(trace.contains("\"process_name\""), "{trace}");
        assert!(trace.contains("ringsampler"), "{trace}");
    }

    #[test]
    fn stats_sink_trace_events_document_round_trips() {
        let mut s = StatsSink::from_arg_list(&strings(&["--trace-events", "unused.json"]));
        let mut report = ringsampler::EpochReport::default();
        report.thread_events.push(vec![
            ringstat::TraceEvent {
                ts_ns: 100,
                kind: ringstat::EventKind::BatchStart,
                a: 0,
                b: 64,
                c: 0,
                d: 0,
            },
            ringstat::TraceEvent {
                ts_ns: 900,
                kind: ringstat::EventKind::BatchEnd,
                a: 0,
                b: 800,
                c: 2,
                d: 0,
            },
        ]);
        report.trace_dropped = 1;
        s.note("fig4/epoch0", &report);
        let doc = s.trace_events_document();
        assert!(doc.contains("\"schema_version\": 1"), "{doc}");
        assert!(doc.contains("\"label\": \"fig4/epoch0\""), "{doc}");
        let dump = ringtrace::TraceDump::parse(&doc).unwrap();
        assert_eq!(dump.reports.len(), 1);
        assert_eq!(dump.reports[0].dropped, 1);
        assert_eq!(dump.reports[0].workers[0].events.len(), 2);
    }

    #[test]
    fn build_and_measure_tiny() {
        // A miniature end-to-end pass through the harness with a tiny
        // dataset to keep unit tests fast.
        let h = HarnessConfig {
            scale: 100_000,
            targets_per_epoch: 200,
            epochs: 1,
            data_dir: std::env::temp_dir().join(format!("rs-bench-lib-{}", std::process::id())),
            threads: 2,
            read_plan: ReadPlanMode::Coalesce { gap: 0 },
            serve: None,
            trace_capacity: None,
        };
        let spec = DatasetSpec::scaled(DatasetId::OgbnPapers, h.scale);
        let graph = h.dataset(&spec).unwrap();
        let o = measure_system(
            SystemKind::RingSampler,
            &graph,
            &[3, 2],
            64,
            2,
            &MemoryBudget::unlimited(),
            &h,
        )
        .unwrap();
        assert!(o.seconds().unwrap() > 0.0);
        std::fs::remove_dir_all(&h.data_dir).ok();
    }
}
