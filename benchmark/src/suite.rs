//! Every workload in one command, and the calibration that shows two sets
//! of runs of the same code agree within the benchmark's own bounds.
//!
//! Each run is a child process of its own, as the driver runs it: peak RSS
//! and the io_uring probe start fresh every time.

use std::collections::BTreeMap;
use std::process::{Command, Stdio};

use ringstat::Json;

use crate::report::{median, quartiles};
use crate::run::Result;
use crate::spec::{Kind, Metric, Spec, END_TO_END, PER_LAYER, WORKLOADS};

/// The parsed result line of one child run.
struct Run {
    correct: bool,
    attempted: u64,
    failed: u64,
    /// Metric name → value, in the child's order.
    metrics: Vec<(String, f64)>,
}

fn child(
    spec: &Spec,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
    echo: bool,
) -> Result<Run> {
    let mut cmd = Command::new(std::env::current_exe()?);
    cmd.args([
        "--workload",
        spec.name,
        "--seed",
        &seed.to_string(),
        "--trace",
        if trace { "1" } else { "0" },
    ]);
    if let Some(s) = seconds {
        cmd.args(["--seconds", &s.to_string()]);
    }
    if quick {
        cmd.arg("--quick");
    }
    let out = cmd.stderr(Stdio::inherit()).output()?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if echo {
        print!("{stdout}");
    }
    let line = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("{}: no result line", spec.name))?;
    let doc = Json::parse(line).map_err(|e| format!("{}: bad result line: {e}", spec.name))?;
    let metrics = match doc.get("metrics") {
        Some(Json::Object(fields)) => fields
            .iter()
            .map(|(k, v)| {
                (
                    k.clone(),
                    v.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN),
                )
            })
            .collect(),
        _ => return Err(format!("{}: result line has no metrics", spec.name).into()),
    };
    Ok(Run {
        correct: out.status.success() && doc.get("correct") == Some(&Json::Bool(true)),
        attempted: doc.get("attempted").and_then(Json::as_u64).unwrap_or(0),
        failed: doc.get("failed").and_then(Json::as_u64).unwrap_or(0),
        metrics,
    })
}

/// The digest a finished run left in `out/result-<workload>.json`.
fn digest_of(spec: &Spec) -> Option<String> {
    let path = crate::package_root()
        .join("out")
        .join(format!("result-{}.json", spec.name));
    let doc = Json::parse(&std::fs::read_to_string(path).ok()?).ok()?;
    doc.get("digest")?.as_str().map(str::to_string)
}

/// Runs every workload once (and once more traced, if asked), prints every
/// metric, and checks that each run printed the metrics `BENCHMARK.json`
/// names and that the three `epoch_skew_*` workloads, which sample the same
/// targets of the same graph, produced one digest.
pub fn all(seed: u64, seconds: Option<f64>, trace: bool, quick: bool) -> Result<bool> {
    let mut ok = Manifest::load()?.agrees_with_tables();
    if !ok {
        println!("BENCHMARK.json and src/spec.rs name different workloads, metrics or units");
    }
    let mut digests: Vec<(&str, String)> = Vec::new();
    for spec in &WORKLOADS {
        let run = child(spec, seed, seconds, false, quick, true)?;
        ok &= run.correct && run.failed == 0 && run.attempted > 0 && prints(&run, &END_TO_END);
        if spec.kind == Kind::Epoch {
            digests.push((spec.name, digest_of(spec).unwrap_or_default()));
        }
        if trace {
            let run = child(spec, seed, seconds, true, quick, true)?;
            ok &= run.correct && prints(&run, &PER_LAYER);
        }
        println!();
    }
    for (name, digest) in &digests {
        println!("digest {name:<22} {digest}");
    }
    let same = digests
        .iter()
        .all(|(_, d)| !d.is_empty() && *d == digests[0].1);
    println!("digests {}", if same { "agree" } else { "DIFFER" });
    Ok(ok && same)
}

/// One metric row of `BENCHMARK.json`.
struct Row {
    name: String,
    unit: String,
    higher_is_better: bool,
    /// Share of the median a later change may lose; end-to-end rows only.
    bound: Option<f64>,
}

/// `BENCHMARK.json`, which tells the driver what this program prints.
struct Manifest {
    workloads: Vec<String>,
    end_to_end: Vec<Row>,
    per_layer: Vec<Row>,
}

impl Manifest {
    fn load() -> Result<Self> {
        let path = crate::package_root().join("..").join("BENCHMARK.json");
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let doc = Json::parse(&text)?;
        let list = |key: &str| {
            doc.get(key)
                .and_then(Json::as_array)
                .ok_or(format!("BENCHMARK.json: no {key}"))
        };
        let text_of = |row: &Json, key: &str| {
            row.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or(format!("BENCHMARK.json: a row lacks {key}"))
        };
        let rows = |key: &str| -> Result<Vec<Row>> {
            list(key)?
                .iter()
                .map(|row| {
                    Ok(Row {
                        name: text_of(row, "name")?,
                        unit: text_of(row, "unit")?,
                        higher_is_better: text_of(row, "better")? == "higher",
                        bound: row.get("bound").and_then(Json::as_f64),
                    })
                })
                .collect()
        };
        Ok(Self {
            workloads: list("workloads")?
                .iter()
                .map(|w| text_of(w, "name"))
                .collect::<std::result::Result<_, _>>()?,
            end_to_end: rows("end_to_end")?,
            per_layer: rows("per_layer")?,
        })
    }

    /// Whether the tables in `spec.rs` name the workloads, metrics and units
    /// of the manifest, in its order.
    fn agrees_with_tables(&self) -> bool {
        let same = |rows: &[Row], table: &[Metric]| {
            rows.len() == table.len()
                && rows
                    .iter()
                    .zip(table)
                    .all(|(r, m)| r.name == m.name && r.unit == m.unit)
        };
        self.workloads
            .iter()
            .map(String::as_str)
            .eq(WORKLOADS.iter().map(|s| s.name))
            && same(&self.end_to_end, &END_TO_END)
            && same(&self.per_layer, &PER_LAYER)
    }
}

/// Whether a run printed exactly the metrics of `table`, all finite.
fn prints(run: &Run, table: &[Metric]) -> bool {
    run.metrics.len() == table.len()
        && run
            .metrics
            .iter()
            .zip(table)
            .all(|((name, value), m)| name == m.name && value.is_finite())
}

/// `sets` sets of `runs` full runs (seeds 1..=runs in every set) of every
/// workload, or of `only`. Prints per
/// workload and metric min / median / max, (Q3-Q1)/median over all runs and,
/// for each later set, how much worse its median is than the first set's;
/// fails if that exceeds the metric's bound.
pub fn calibrate(sets: usize, runs: usize, only: Option<&str>, quick: bool) -> Result<bool> {
    if sets < 2 || runs < 3 {
        return Err("--calibrate needs at least 2 sets of at least 3 runs".into());
    }
    let manifest = Manifest::load()?;
    // (workload, metric) → one vector of values per set.
    let mut values: BTreeMap<(usize, String), Vec<Vec<f64>>> = BTreeMap::new();
    let mut ok = true;
    for set in 0..sets {
        for seed in 1..=runs as u64 {
            for (w, spec) in WORKLOADS
                .iter()
                .enumerate()
                .filter(|(_, s)| only.is_none_or(|name| name == s.name))
            {
                let run = child(spec, seed, None, false, quick, false)?;
                let shown: Vec<String> = run
                    .metrics
                    .iter()
                    .map(|(name, value)| format!("{name} {value:.4}"))
                    .collect();
                eprintln!(
                    "set {} seed {seed} {}: failed {}/{}  {}",
                    set + 1,
                    spec.name,
                    run.failed,
                    run.attempted,
                    shown.join("  ")
                );
                ok &= run.correct;
                for (name, value) in run.metrics {
                    let per_set = values
                        .entry((w, name))
                        .or_insert_with(|| vec![Vec::new(); sets]);
                    per_set[set].push(value);
                }
            }
        }
    }
    println!(
        "{:<22} {:<16} {:>14} {:>14} {:>14} {:>8} {:>7}  worse than set 1 by",
        "workload", "metric", "min", "median", "max", "iqr/med", "bound"
    );
    for ((w, name), per_set) in &values {
        let all: Vec<f64> = per_set.iter().flatten().copied().collect();
        let (q1, q3) = quartiles(&all);
        let med = median(&all);
        let min = all.iter().copied().fold(f64::INFINITY, f64::min);
        let max = all.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let Some((row, bound)) = manifest
            .end_to_end
            .iter()
            .find(|r| r.name == *name)
            .and_then(|r| r.bound.map(|b| (r, b)))
        else {
            return Err(format!("{name} is not an end-to-end metric of BENCHMARK.json").into());
        };
        let first = median(&per_set[0]);
        let sign = if row.higher_is_better { -1.0 } else { 1.0 };
        let worse: Vec<f64> = per_set[1..]
            .iter()
            .map(|s| sign * (median(s) - first) / first)
            .collect();
        let within = worse.iter().all(|&w| w <= bound);
        ok &= within;
        let worse: Vec<String> = worse.iter().map(|w| format!("{w:+.4}")).collect();
        println!(
            "{:<22} {:<16} {:>14.4} {:>14.4} {:>14.4} {:>8.4} {:>7.2}  {}{}",
            WORKLOADS[*w].name,
            name,
            min,
            med,
            max,
            (q3 - q1) / med,
            bound,
            worse.join(" "),
            if within { "" } else { "  EXCEEDS BOUND" }
        );
    }
    Ok(ok)
}
