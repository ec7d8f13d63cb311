//! `ringprof` A/B harness: cache on/off × read-plan modes, measured at
//! the kernel boundary.
//!
//! Runs the same skewed epoch through four variants — {no cache, page
//! cache} × {naive plan, coalesce} — on the **pread engine** (the one
//! engine whose reads fully increment `/proc/self/io` `rchar`, so the
//! amplification ratios are kernel truth rather than a lower bound) and
//! reports, per variant:
//!
//! * `read_amplification` — kernel-boundary bytes per logical byte
//!   sampled (`rchar / logical`); ≥ 1.0 uncached, strictly lower once
//!   the page cache serves hub repeats;
//! * `block_amp` — the storage-layer ratio (`read_bytes / logical`,
//!   ~0 with a warm OS page cache);
//! * `cpu_share` and **CPU per logical KiB** — the CPU-vs-I/O
//!   discriminator the ledger exists for.
//!
//! Sampling correctness is cross-checked exactly like `plan_compare`:
//! every variant's batch digest must match the first variant, and the
//! cache-off/naive variant is additionally re-run with
//! `profile_resources(false)` to prove ringprof observes without
//! perturbing (byte-identical samples on vs off — the CI gate's
//! invariant). With `RS_PROF_ASSERT=1` the binary fails unless the
//! uncached amplification is ≥ 1.0 and the cached run measures strictly
//! lower.
//!
//! Knobs: `RS_PROF_NODES` / `RS_PROF_EDGES` (default 20k/200k),
//! `RS_TARGETS`, `RS_THREADS`, plus the standard artifact flags.

use ringsampler::{epoch_targets, CachePolicy, ReadPlanMode, RingSampler, SamplerConfig};
use ringsampler_bench::{emit_table, HarnessConfig, StatsSink};
use ringsampler_graph::gen::GeneratorSpec;
use ringsampler_graph::preprocess::{build_dataset, PreprocessOptions};
use ringsampler_io::EngineKind;

/// Same reference workload as `plan_compare`: 2 layers, fanout [25, 10],
/// replacement sampling on a power-law graph — the duplicate-heavy
/// regime where the cache and the planner both have something to save.
const FANOUTS: [usize; 2] = [25, 10];

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&v| v > 0)
        .unwrap_or(default)
}

/// Order-independent checksum of a batch sample (same construction as
/// `plan_compare`): commutative wrapping add over per-batch FNV folds.
fn batch_digest(idx: usize, s: &ringsampler::BatchSample) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ (idx as u64).wrapping_mul(0x100_0000_01b3);
    let mut fold = |v: u64| {
        h ^= v;
        h = h.wrapping_mul(0x100_0000_01b3);
    };
    for layer in &s.layers {
        for &t in &layer.targets {
            fold(t as u64);
        }
        for &d in &layer.dst {
            fold(d as u64);
        }
        for &p in &layer.src_pos {
            fold(p as u64);
        }
    }
    h
}

struct Row {
    label: &'static str,
    seconds: f64,
    read_amp: f64,
    block_amp: f64,
    cpu_share: f64,
    cpu_ns_per_kib: f64,
    ctx_switches: u64,
    accounted: f64,
    digest: u64,
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let h = HarnessConfig::from_env();
    let mut sink = StatsSink::from_args();
    let nodes = env_u64("RS_PROF_NODES", 20_000);
    let edges = env_u64("RS_PROF_EDGES", 200_000);
    // Default to a full epoch over every node (what training does): the
    // cache-vs-uncached amplification A/B is only meaningful when the
    // epoch rereads hub pages more than it pays in page-granularity
    // overhead. `RS_TARGETS` still caps it for quick runs.
    let targets_n = std::env::var("RS_TARGETS")
        .map(|_| h.targets_per_epoch as u64)
        .unwrap_or(nodes)
        .min(nodes) as usize;
    let cache_budget = env_u64("RS_PROF_CACHE_BYTES", 8 << 20);

    let spec = GeneratorSpec::PowerLaw {
        nodes,
        edges,
        exponent: 0.7,
    };
    std::fs::create_dir_all(&h.data_dir)?;
    let base = h.data_dir.join(format!("prof-compare-{nodes}-{edges}"));
    let graph = build_dataset(nodes, spec.stream(42), &base, &PreprocessOptions::default())?;

    let mut targets = epoch_targets(graph.num_nodes(), 0, 0xBEEF);
    targets.truncate(targets_n);

    println!(
        "ringprof A/B: power-law graph ({nodes} nodes, {edges} edges), \
         fanout {FANOUTS:?} with replacement, {targets_n} targets, {} threads, \
         pread engine (rchar-true)\n",
        h.threads
    );

    let variants: [(&'static str, CachePolicy, ReadPlanMode); 4] = [
        ("nocache/naive", CachePolicy::None, ReadPlanMode::Off),
        ("nocache/coalesce", CachePolicy::None, ReadPlanMode::coalesce()),
        (
            "cache/naive",
            CachePolicy::Page {
                budget_bytes: cache_budget,
            },
            ReadPlanMode::Off,
        ),
        (
            "cache/coalesce",
            CachePolicy::Page {
                budget_bytes: cache_budget,
            },
            ReadPlanMode::coalesce(),
        ),
    ];

    let run = |cache: CachePolicy,
               plan: ReadPlanMode,
               profile: bool|
     -> Result<(ringsampler::EpochReport, u64), Box<dyn std::error::Error>> {
        let cfg = SamplerConfig::new()
            .fanouts(&FANOUTS)
            .batch_size(256)
            .threads(h.threads)
            .with_replacement(true)
            .engine(EngineKind::Pread)
            .cache(cache)
            .read_plan(plan)
            .profile_resources(profile)
            .telemetry_opt(h.telemetry())
            .seed(7);
        let sampler = RingSampler::new(graph.clone(), cfg)?;
        let digest = std::sync::atomic::AtomicU64::new(0);
        let report = sampler.sample_epoch_with(&targets, |idx, s| {
            digest.fetch_add(batch_digest(idx, &s), std::sync::atomic::Ordering::Relaxed);
        })?;
        Ok((report, digest.into_inner()))
    };

    let mut rows: Vec<Row> = Vec::new();
    for (label, cache, plan) in variants {
        let (report, digest) = run(cache, plan, true)?;
        sink.note(&format!("prof_compare/{label}"), &report);
        let res = report
            .resources
            .as_ref()
            .expect("profiling on: resources block present");
        let logical_kib = (res.logical_bytes as f64 / 1024.0).max(f64::MIN_POSITIVE);
        rows.push(Row {
            label,
            seconds: report.wall.as_secs_f64(),
            read_amp: res.read_amplification(),
            block_amp: res.block_read_amplification(),
            cpu_share: res.fleet_cpu_share(),
            cpu_ns_per_kib: res.fleet.cpu_nanos as f64 / logical_kib,
            ctx_switches: res.fleet.vol_ctx_switches + res.fleet.invol_ctx_switches,
            accounted: res.fleet_ledger.accounted_share(),
            digest,
        });
    }

    let header = format!(
        "{:<18} {:>8} {:>9} {:>10} {:>9} {:>12} {:>8} {:>9}",
        "variant", "seconds", "read_amp", "block_amp", "cpu", "cpu_ns/KiB", "ctxsw", "accounted"
    );
    let lines: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "{:<18} {:>8.3} {:>9.3} {:>10.3} {:>8.0}% {:>12.0} {:>8} {:>8.0}%",
                r.label,
                r.seconds,
                r.read_amp,
                r.block_amp,
                r.cpu_share * 100.0,
                r.cpu_ns_per_kib,
                r.ctx_switches,
                r.accounted * 100.0
            )
        })
        .collect();
    emit_table("prof_compare", &header, &lines)?;
    sink.finish()?;

    // Correctness gate 1: every variant samples the identical epoch.
    let reference = rows.first().map(|r| r.digest).unwrap_or(0);
    for r in &rows {
        if r.digest != reference {
            eprintln!(
                "FAIL: variant {} diverged (digest {:#x} != {:#x})",
                r.label, r.digest, reference
            );
            std::process::exit(1);
        }
    }

    // Correctness gate 2: ringprof observes without perturbing — the
    // same variant with profiling off must produce byte-identical
    // samples. Always enforced, not just under RS_PROF_ASSERT.
    let (unprofiled, off_digest) = run(CachePolicy::None, ReadPlanMode::Off, false)?;
    assert!(
        unprofiled.resources.is_none(),
        "profiling off must leave the resources block empty"
    );
    if off_digest != reference {
        eprintln!(
            "FAIL: profiling off changed the samples (digest {off_digest:#x} != {reference:#x})"
        );
        std::process::exit(1);
    }
    println!(
        "\nall variants produced identical samples, profiling on or off \
         (digest {reference:#x})"
    );

    // CI smoke gate: kernel-boundary amplification must behave — ≥ 1.0
    // with no cache (every logical byte crosses at least once), strictly
    // lower once the page cache serves hub repeats.
    if std::env::var("RS_PROF_ASSERT").is_ok() {
        let uncached = rows.iter().find(|r| r.label == "nocache/naive").unwrap();
        let cached = rows.iter().find(|r| r.label == "cache/naive").unwrap();
        if uncached.read_amp < 1.0 {
            eprintln!(
                "FAIL: uncached read_amplification {:.3} < 1.0",
                uncached.read_amp
            );
            std::process::exit(1);
        }
        if cached.read_amp >= uncached.read_amp {
            eprintln!(
                "FAIL: cached amplification {:.3} not below uncached {:.3}",
                cached.read_amp, uncached.read_amp
            );
            std::process::exit(1);
        }
        println!(
            "RS_PROF_ASSERT ok: amplification {:.3} uncached -> {:.3} cached",
            uncached.read_amp, cached.read_amp
        );
    }
    h.serve_linger();
    Ok(())
}
