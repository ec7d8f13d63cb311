//! Set-up and the timed windows: the only code that drives the sampler for
//! the end-to-end numbers. A window is a fixed amount of work; how many
//! windows a run measures follows from `--seconds`.

use std::fs::File;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use ringsampler::{
    epoch_targets, BatchSample, RingSampler, SampleMetrics, SamplerConfig, SamplerWorker,
};
use ringsampler_graph::preprocess::{build_dataset, PreprocessOptions};
use ringsampler_graph::{NodeId, OnDiskGraph};

use crate::host;
use crate::spec::{GraphKind, Kind, Spec};
use crate::trace::{Span, Tracer};

pub type Error = Box<dyn std::error::Error + Send + Sync>;
pub type Result<T> = std::result::Result<T, Error>;

/// Called with every finished batch (or request): the epoch's number within
/// its window, the batch's index, the sample. Batches of an epoch arrive
/// from the sampler's threads at once.
pub type Hook<'h> = &'h (dyn Fn(usize, usize, &BatchSample) + Sync);

/// One window of fixed work.
#[derive(Debug, Default, Clone)]
pub struct Window {
    /// Timed wall seconds (the cold workload's cache drops are left out).
    pub wall_s: f64,
    pub edges_per_s: f64,
    pub req_per_s: f64,
    pub edges: u64,
    /// Batches (epoch workloads) or requests (on-demand).
    pub reqs: u64,
    /// Request latencies in microseconds, one group per closed-loop client
    /// (one group in all for an epoch's batches).
    pub lat_us: Vec<Vec<f64>>,
    pub cpu_ns: u64,
    pub phys_bytes: u64,
    /// The sampler's own I/O and cache counters over the window.
    pub metrics: SampleMetrics,
}

/// A sampler built for one workload, and what it needs to run windows.
pub struct Runner {
    spec: Spec,
    pub sampler: RingSampler,
    targets: Arc<Vec<NodeId>>,
    clients: Vec<SamplerWorker>,
    edge_file: File,
    /// Next unused position of the target stream (cold, on-demand).
    cursor: usize,
}

impl Runner {
    pub fn new(
        spec: Spec,
        graph: OnDiskGraph,
        targets: Arc<Vec<NodeId>>,
        cfg: SamplerConfig,
    ) -> Result<Self> {
        let edge_file = File::open(graph.edge_path())?;
        let clients = cfg.num_threads;
        let sampler = RingSampler::new(graph, cfg)?;
        let clients = match spec.kind {
            Kind::OnDemand => (0..clients)
                .map(|_| sampler.worker())
                .collect::<ringsampler::Result<_>>()?,
            _ => Vec::new(),
        };
        Ok(Self {
            spec,
            sampler,
            targets,
            clients,
            edge_file,
            cursor: 0,
        })
    }

    /// `n` targets of the stream, wrapping around at its end.
    fn take(&mut self, n: usize) -> Vec<NodeId> {
        let len = self.targets.len();
        let out = (0..n)
            .map(|i| self.targets[(self.cursor + i) % len])
            .collect();
        self.cursor = (self.cursor + n) % len;
        out
    }

    /// The clients' lifetime counters, summed.
    fn client_counters(&self) -> SampleMetrics {
        let mut sum = SampleMetrics::default();
        self.clients.iter().for_each(|c| sum.merge(&c.metrics()));
        sum
    }

    pub fn targets(&self) -> Arc<Vec<NodeId>> {
        Arc::clone(&self.targets)
    }

    /// Runs one window. An `Err` is a failed operation of the sampler.
    /// The timed windows pass neither a hook nor a tracer; with a tracer,
    /// the window, its epochs and their batches (or requests) become spans.
    pub fn window(&mut self, hook: Option<Hook<'_>>, tracer: Option<&Tracer>) -> Result<Window> {
        let (id, start) = (tracer.map(Tracer::id), Instant::now());
        let w = match self.spec.kind {
            Kind::Epoch | Kind::Cold => self.epoch_window(hook, tracer.zip(id))?,
            Kind::OnDemand => self.request_window(hook, tracer.zip(id))?,
        };
        if let Some((tracer, id)) = tracer.zip(id) {
            tracer.push(Span {
                id,
                parent: 0,
                name: "bench.window",
                batch: 0,
                start_ns: tracer.ns(start),
                end_ns: tracer.ns(Instant::now()),
                count: w.edges,
            });
        }
        Ok(w)
    }

    fn epoch_window(
        &mut self,
        hook: Option<Hook<'_>>,
        span: Option<(&Tracer, u32)>,
    ) -> Result<Window> {
        let mut w = Window {
            lat_us: vec![Vec::new()],
            ..Window::default()
        };
        for epoch in 0..self.spec.epochs {
            let targets = match self.spec.kind {
                Kind::Cold => {
                    host::drop_file_cache(&self.edge_file)?;
                    self.take(self.spec.targets)
                }
                _ => self.targets[..self.spec.targets].to_vec(),
            };
            let batches = targets.len().div_ceil(self.spec.batch);
            // Completion time of every batch, in ns since the epoch began.
            let done: Vec<AtomicU64> = (0..batches).map(|_| AtomicU64::new(0)).collect();
            let batch_edges: Vec<AtomicU64> = (0..batches).map(|_| AtomicU64::new(0)).collect();
            let (cpu0, phys0) = (host::cpu_ns(), host::phys_read_bytes());
            let start = Instant::now();
            let report = self.sampler.sample_epoch_with(&targets, |idx, sample| {
                // Relaxed: read only after the epoch's threads have joined.
                done[idx].store(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
                if let Some(hook) = hook {
                    hook(epoch, idx, &sample);
                }
                batch_edges[idx].store(sample.num_sampled_edges() as u64, Ordering::Relaxed);
            })?;
            let end = Instant::now();
            w.wall_s += (end - start).as_secs_f64();
            w.cpu_ns += host::cpu_ns() - cpu0;
            w.phys_bytes += host::phys_read_bytes() - phys0;
            w.edges += report.metrics.sampled_edges;
            w.reqs += report.metrics.batches;
            w.metrics.merge(&report.metrics);
            // Thread t runs batches t, t+T, ... one after the other, so a
            // batch took the time since its thread's previous batch ended.
            let threads = report.threads.max(1);
            let epoch_id = span.map(|(tracer, window)| {
                let id = tracer.id();
                tracer.push(Span {
                    id,
                    parent: window,
                    name: "engine.sample_epoch",
                    batch: epoch as u32,
                    start_ns: tracer.ns(start),
                    end_ns: tracer.ns(end),
                    count: report.metrics.sampled_edges,
                });
                id
            });
            for idx in 0..batches {
                let done_ns = done[idx].load(Ordering::Relaxed);
                let begin_ns = if idx >= threads {
                    done[idx - threads].load(Ordering::Relaxed)
                } else {
                    0
                };
                w.lat_us[0].push(done_ns.saturating_sub(begin_ns) as f64 / 1e3);
                if let Some(((tracer, _), epoch_id)) = span.zip(epoch_id) {
                    tracer.push(Span {
                        id: tracer.id(),
                        parent: epoch_id,
                        name: "worker.sample_batch",
                        batch: idx as u32,
                        start_ns: tracer.ns(start) + begin_ns,
                        end_ns: tracer.ns(start) + done_ns,
                        count: batch_edges[idx].load(Ordering::Relaxed),
                    });
                }
            }
        }
        w.edges_per_s = w.edges as f64 / w.wall_s;
        w.req_per_s = w.reqs as f64 / w.wall_s;
        Ok(w)
    }

    fn request_window(
        &mut self,
        hook: Option<Hook<'_>>,
        span: Option<(&Tracer, u32)>,
    ) -> Result<Window> {
        let reqs = self.spec.reqs;
        let streams: Vec<(usize, Vec<NodeId>)> = (0..self.clients.len())
            .map(|_| (self.cursor, self.take(reqs)))
            .collect();
        let before = self.client_counters();
        let (cpu0, start) = (host::cpu_ns(), Instant::now());
        // (wall seconds, edges, latencies) of each client.
        let per_client: Vec<Result<(f64, u64, Vec<f64>)>> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .clients
                .iter_mut()
                .zip(&streams)
                .map(|(worker, (first, stream))| {
                    scope.spawn(move || -> Result<(f64, u64, Vec<f64>)> {
                        let mut lat = Vec::with_capacity(stream.len());
                        let mut edges = 0u64;
                        let begin = Instant::now();
                        for (i, &target) in stream.iter().enumerate() {
                            let t = Instant::now();
                            let sample = worker.sample_batch(&[target], (first + i) as u64)?;
                            let done = Instant::now();
                            lat.push((done - t).as_nanos() as f64 / 1e3);
                            edges += sample.num_sampled_edges() as u64;
                            if let Some((tracer, window)) = span {
                                tracer.push(Span {
                                    id: tracer.id(),
                                    parent: window,
                                    name: "worker.sample_batch",
                                    batch: (first + i) as u32,
                                    start_ns: tracer.ns(t),
                                    end_ns: tracer.ns(done),
                                    count: sample.num_sampled_edges() as u64,
                                });
                            }
                            if let Some(hook) = hook {
                                hook(0, first + i, &sample);
                            }
                        }
                        Ok((begin.elapsed().as_secs_f64(), edges, lat))
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join()
                        .unwrap_or_else(|_| Err("an on-demand client panicked".into()))
                })
                .collect()
        });
        let after = self.client_counters();
        let mut w = Window {
            wall_s: start.elapsed().as_secs_f64(),
            cpu_ns: host::cpu_ns() - cpu0,
            metrics: SampleMetrics {
                io_requests: after.io_requests - before.io_requests,
                io_bytes: after.io_bytes - before.io_bytes,
                syscalls: after.syscalls - before.syscalls,
                cache_hits: after.cache_hits - before.cache_hits,
                cache_misses: after.cache_misses - before.cache_misses,
                ..SampleMetrics::default()
            },
            ..Window::default()
        };
        for client in per_client {
            let (wall, edges, lat) = client?;
            // Closed loop: each client's rate is its own; the system's is
            // their sum, whichever client finishes its share first.
            w.edges_per_s += edges as f64 / wall;
            w.req_per_s += lat.len() as f64 / wall;
            w.edges += edges;
            w.reqs += lat.len() as u64;
            w.lat_us.push(lat);
        }
        Ok(w)
    }
}

/// Where a run keeps its dataset; removed when the run ends.
pub struct DataDir(pub PathBuf);

impl DataDir {
    pub fn create(root: &Path, tag: &str) -> Result<Self> {
        let dir = root.join(format!("{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(Self(dir))
    }
}

impl Drop for DataDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// `ringbench --build-dataset <kind> <div> <seed> <base> <sync|nosync>`:
/// generates the graph and writes `base.{rsef,rsix}`. Runs in a child
/// process, whose sort buffer therefore never counts towards the sampler's
/// peak RSS.
///
/// Only the cold workload syncs the file (dirty pages cannot be dropped).
/// The warm ones leave it dirty in the page cache: it is deleted long before
/// write-back would start (30 s), so a run causes no device writes or
/// discards, whose aftermath on this guest slowed the timed windows.
pub fn build_dataset_main(args: &[String]) -> Result<()> {
    let [kind, div, seed, base, sync] = args else {
        return Err(
            "usage: --build-dataset <skew|uniform> <div> <seed> <base> <sync|nosync>".into(),
        );
    };
    let kind = GraphKind::parse(kind).ok_or("unknown graph kind")?;
    let gen = kind.generator(div.parse()?);
    let opts = PreprocessOptions {
        // One in-memory sort: the external merge is ~40% slower and three
        // set-ups have to fit in every run.
        chunk_edges: gen.num_edges() as usize + 1,
        ..PreprocessOptions::default()
    };
    let graph = build_dataset(
        gen.num_nodes(),
        gen.stream(seed.parse()?),
        Path::new(base),
        &opts,
    )?;
    if sync == "sync" {
        File::open(graph.edge_path())?.sync_all()?;
    }
    Ok(())
}

/// Times of one set-up.
#[derive(Debug, Default, Clone, Copy)]
pub struct SetupTimes {
    pub total_s: f64,
    pub build_s: f64,
    pub open_ms: f64,
}

/// One full set-up: dataset generate + `build_dataset` (child process),
/// `OnDiskGraph::open`, `RingSampler::new` (and the clients' workers), and
/// one warm-up window.
pub fn setup(spec: Spec, seed: u64, div: u64, dir: &Path) -> Result<(Runner, SetupTimes)> {
    let t0 = Instant::now();
    let base = dir.join(spec.graph.name());
    let status = Command::new(std::env::current_exe()?)
        .arg("--build-dataset")
        .args([spec.graph.name(), &div.to_string(), &seed.to_string()])
        .arg(&base)
        .arg(if spec.kind == Kind::Cold {
            "sync"
        } else {
            "nosync"
        })
        .status()?;
    if !status.success() {
        return Err(format!("dataset build failed: {status}").into());
    }
    let build_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let graph = OnDiskGraph::open(&base)?;
    let open_ms = t1.elapsed().as_secs_f64() * 1e3;
    // One shuffled permutation of the nodes is the request stream; epoch
    // workloads sample its head every epoch.
    let targets = Arc::new(epoch_targets(graph.num_nodes(), 0, seed));
    let mut runner = Runner::new(spec, graph, targets, spec.config(seed, div))?;
    runner.window(None, None)?;
    let times = SetupTimes {
        total_s: t0.elapsed().as_secs_f64(),
        build_s,
        open_ms,
    };
    Ok((runner, times))
}

/// Runs windows until `seconds` have passed, and at least `min` of them.
pub fn measure(runner: &mut Runner, seconds: f64, min: usize) -> Result<Vec<Window>> {
    let start = Instant::now();
    let mut windows = Vec::new();
    while windows.len() < min || start.elapsed().as_secs_f64() < seconds {
        windows.push(runner.window(None, None)?);
    }
    Ok(windows)
}
