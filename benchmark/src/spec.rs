//! The benchmark's fixed tables: workloads, their sizes, and metric names.
//!
//! `BENCHMARK.json` at the repository root repeats the workload and metric
//! names for the driver; `check.sh` fails when the two disagree.

use ringsampler::{CachePolicy, ReadPlanMode, SamplerConfig};
use ringsampler_graph::gen::GeneratorSpec;

/// GraphSAGE fanouts of the paper's §4.1 set-up.
pub const FANOUTS: [usize; 3] = [20, 15, 10];
/// Sampler threads and on-demand clients: one per vCPU of the 2-vCPU guest.
pub const THREADS: usize = 2;
/// Every timed statistic is a median over at least this many windows.
pub const MIN_WINDOWS: usize = 5;
/// Full set-ups (dataset build → warm-up) per untraced run; `setup_s` is
/// their median.
pub const SETUP_REPS: usize = 3;
/// Page-cache budget of `epoch_skew_cached`: 40 % of the 80 MB edge file,
/// so the cache neither holds the file nor thrashes.
pub const CACHE_BYTES: u64 = 32 << 20;
/// `--quick` divides every size by this.
pub const QUICK_DIV: u64 = 16;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GraphKind {
    /// `PowerLaw{1 M nodes, 20 M edges, 0.7}`: hubs, 80 MB edge file.
    Skew,
    /// `Uniform{1 M nodes, 32 M edges}`: no locality, 128 MB edge file.
    Uniform,
}

impl GraphKind {
    pub fn name(self) -> &'static str {
        match self {
            GraphKind::Skew => "skew",
            GraphKind::Uniform => "uniform",
        }
    }

    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "skew" => Some(GraphKind::Skew),
            "uniform" => Some(GraphKind::Uniform),
            _ => None,
        }
    }

    pub fn generator(self, div: u64) -> GeneratorSpec {
        match self {
            GraphKind::Skew => GeneratorSpec::PowerLaw {
                nodes: 1_000_000 / div,
                edges: 20_000_000 / div,
                exponent: 0.7,
            },
            GraphKind::Uniform => GeneratorSpec::Uniform {
                nodes: 1_000_000 / div,
                edges: 32_000_000 / div,
            },
        }
    }
}

/// How a window of fixed work is carried out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `epochs` calls of `RingSampler::sample_epoch` over the same targets.
    Epoch,
    /// Like `Epoch`, but every call samples fresh targets after an untimed
    /// `posix_fadvise(DONTNEED)` on the edge file.
    Cold,
    /// Every client sends `reqs` single-target `sample_batch` calls, each
    /// one timed, through a worker of its own.
    OnDemand,
}

#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub graph: GraphKind,
    pub kind: Kind,
    pub read_plan: ReadPlanMode,
    pub cached: bool,
    /// Targets per `sample_epoch` call (`Epoch`, `Cold`).
    pub targets: usize,
    pub batch: usize,
    /// `sample_epoch` calls per window (`Epoch`, `Cold`).
    pub epochs: usize,
    /// Requests per client per window (`OnDemand`).
    pub reqs: usize,
    /// Batches the single-thread layer walk replays.
    pub walk_batches: usize,
}

/// The ISSUE sized epochs at 16384 targets and K = 5; the driver's time cap
/// (114 runs in 3420 s, three set-ups in each) leaves ~10 s of measuring, so
/// epochs are 8192 targets and a window is as many of them as take >= 1 s.
pub const WORKLOADS: [Spec; 5] = [
    Spec {
        name: "epoch_skew_naive",
        why: "one 4-byte SQE per sampled edge (paper Fig. 4): io submit/reap does the work, plan and cache none",
        graph: GraphKind::Skew,
        kind: Kind::Epoch,
        read_plan: ReadPlanMode::Off,
        cached: false,
        targets: 8192,
        batch: 1024,
        epochs: 1,
        reqs: 0,
        walk_batches: 4,
    },
    Spec {
        name: "epoch_skew_coalesce",
        why: "same inputs, coalesced plan: ~130x fewer requests, so plan sort/scatter and payload scratch dominate",
        graph: GraphKind::Skew,
        kind: Kind::Epoch,
        read_plan: ReadPlanMode::Coalesce { gap: 4096 },
        cached: false,
        targets: 8192,
        batch: 1024,
        epochs: 2,
        reqs: 0,
        walk_batches: 4,
    },
    Spec {
        name: "epoch_skew_cached",
        why: "same inputs, 32 MiB page cache (40% of the file): the cached fetch path, neither fitting nor thrashing",
        graph: GraphKind::Skew,
        kind: Kind::Epoch,
        read_plan: ReadPlanMode::Off,
        cached: true,
        targets: 8192,
        batch: 1024,
        epochs: 2,
        reqs: 0,
        walk_batches: 4,
    },
    Spec {
        name: "epoch_uniform_cold",
        why: "page cache dropped before every epoch: the only workload whose reads reach the device",
        graph: GraphKind::Uniform,
        kind: Kind::Cold,
        read_plan: ReadPlanMode::Off,
        cached: false,
        targets: 32,
        batch: 8,
        epochs: 5,
        reqs: 0,
        walk_batches: 8,
    },
    Spec {
        name: "ondemand_skew_b1",
        why: "two closed-loop clients, one target per request (paper Fig. 6): fixed per-call cost dominates",
        graph: GraphKind::Skew,
        kind: Kind::OnDemand,
        read_plan: ReadPlanMode::Off,
        cached: false,
        targets: 0,
        batch: 1,
        epochs: 0,
        reqs: 1000,
        walk_batches: 256,
    },
];

impl Spec {
    pub fn find(name: &str) -> Option<&'static Spec> {
        WORKLOADS.iter().find(|s| s.name == name)
    }

    /// The spec for `--quick`: every size of at least 256 divided by `div`
    /// (the cold workload's 32-target epochs are already small).
    pub fn scaled(&self, div: u64) -> Spec {
        let d = |n: usize| if n >= 256 { n / div as usize } else { n };
        Spec {
            targets: d(self.targets),
            batch: d(self.batch),
            reqs: d(self.reqs),
            walk_batches: d(self.walk_batches),
            ..*self
        }
    }

    /// The sampler configuration of this workload: `SamplerConfig::new()`
    /// defaults apart from what the workload is about.
    pub fn config(&self, seed: u64, div: u64) -> SamplerConfig {
        let cache = if self.cached {
            CachePolicy::Page {
                budget_bytes: CACHE_BYTES / div,
            }
        } else {
            CachePolicy::None
        };
        SamplerConfig::new()
            .fanouts(&FANOUTS)
            .batch_size(self.batch)
            .threads(THREADS)
            .read_plan(self.read_plan)
            .cache(cache)
            .seed(seed)
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> Metric {
    Metric { name, unit }
}

/// What a user of the sampler sees; printed by `--trace 0` runs.
pub const END_TO_END: [Metric; 7] = [
    m("setup_s", "s"),
    m("edges_per_s", "1/s"),
    m("cpu_ns_per_edge", "ns"),
    m("peak_rss_mb", "MB"),
    m("req_per_s", "1/s"),
    m("req_p50_us", "us"),
    m("req_p90_us", "us"),
];

/// One layer each; printed by `--trace 1` runs.
pub const PER_LAYER: [Metric; 34] = [
    m("graph.build_s", "s"),
    m("graph.open_ms", "ms"),
    m("graph.index_mb", "MB"),
    m("graph.neighbor_range_ns", "ns"),
    m("sampling.draw_ns", "ns"),
    m("plan.ns_per_entry", "ns"),
    m("plan.reads_per_edge", "count"),
    m("plan.bytes_per_edge", "B"),
    m("cache.ns_per_lookup", "ns"),
    m("cache.hit_ratio", "ratio"),
    m("io.uring_read4_ns", "ns"),
    m("io.uring_submit_ns", "ns"),
    m("io.uring_complete_ns", "ns"),
    m("io.uring_read_page_ns", "ns"),
    m("io.uring_read64k_us", "us"),
    m("io.pread_read4_ns", "ns"),
    m("io.reader_open_us", "us"),
    m("io.requests_per_edge", "count"),
    m("io.bytes_per_edge", "B"),
    m("io.syscalls_per_kedge", "count"),
    m("io.phys_bytes_per_edge", "B"),
    m("worker.batch_ns_per_edge", "ns"),
    m("worker.replay_coverage", "ratio"),
    m("worker.new_us", "us"),
    m("engine.epoch_fixed_us", "us"),
    m("engine.scaling_2t", "ratio"),
    m("ondemand.req_p99_us", "us"),
    m("ondemand.edges_per_req", "count"),
    m("gnn.loader_batches_per_s", "1/s"),
    m("ringstat.overhead_frac", "ratio"),
    m("baselines.in_memory_edges_per_s", "1/s"),
    m("host.ref_ns", "ns"),
    m("host.drift_frac", "ratio"),
    m("bench.trace_overhead_frac", "ratio"),
];
