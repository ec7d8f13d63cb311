//! `ringbench`: end-to-end and per-layer benchmark of the RingSampler
//! reproduction. See `README.md` beside this package.
//!
//! ```text
//! ringbench --workload W --seed N --seconds S --trace 0|1   one run (what the driver calls)
//! ringbench [--seed N] [--trace 1] [--quick]                every workload, digests compared
//! ringbench --calibrate N [--runs R] [--workload W]         N sets of R full runs, spreads checked
//! ```

mod bench;
mod check;
mod host;
mod layers;
mod report;
mod run;
mod spec;
mod suite;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use bench::Options;
use run::Result;
use spec::Spec;

/// Directory of the benchmark package, relative to where it is run from:
/// the repository root (the driver, `check.sh`) or the package itself.
fn package_root() -> PathBuf {
    if std::path::Path::new("benchmark/Cargo.toml").exists() {
        PathBuf::from("benchmark")
    } else {
        PathBuf::from(".")
    }
}

struct Cli {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
    calibrate: Option<usize>,
    runs: usize,
}

fn parse(args: &[String]) -> Result<Cli> {
    let mut cli = Cli {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        quick: false,
        calibrate: None,
        runs: 3,
    };
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--workload" => cli.workload = Some(value("--workload")?),
            "--seed" => cli.seed = value("--seed")?.parse()?,
            "--seconds" => cli.seconds = Some(value("--seconds")?.parse()?),
            "--calibrate" => cli.calibrate = Some(value("--calibrate")?.parse()?),
            "--runs" => cli.runs = value("--runs")?.parse()?,
            "--quick" => cli.quick = true,
            // `--trace 1`, `--trace 0`, or a bare `--trace`.
            "--trace" => {
                cli.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            other => return Err(format!("unknown argument {other:?}").into()),
        }
    }
    if cli.seconds.is_some_and(|s| !(s > 0.0 && s <= 600.0)) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(cli)
}

fn one_run(cli: &Cli, name: &str) -> Result<bool> {
    let spec = *Spec::find(name).ok_or_else(|| {
        let names: Vec<_> = spec::WORKLOADS.iter().map(|s| s.name).collect();
        format!("unknown workload {name:?}; known: {}", names.join(", "))
    })?;
    let root = package_root();
    let opts = Options {
        spec,
        seed: cli.seed,
        seconds: cli.seconds.unwrap_or(if cli.quick { 0.5 } else { 10.0 }),
        quick: cli.quick,
        root: root.clone(),
    };
    let outcome = if cli.trace {
        layers::traced(&opts)?
    } else {
        bench::end_to_end(&opts)?
    };
    let out = root.join("out");
    std::fs::create_dir_all(&out)?;
    let kind = if cli.trace { "layers" } else { "result" };
    std::fs::write(
        out.join(format!("{kind}-{name}.json")),
        outcome.detail.to_string_pretty(),
    )?;
    println!("{name}: {}", spec.why);
    println!(
        "seed {}, {}:",
        cli.seed,
        if cli.trace {
            "per layer (traced run)"
        } else {
            "end to end"
        }
    );
    if let Some(host) = outcome.detail.get("host") {
        println!("host {}", host.to_string_compact());
    }
    print!("{}", outcome.table());
    println!(
        "  failed/attempted {}/{}",
        outcome.failed, outcome.attempted
    );
    println!("{}", outcome.result_line());
    Ok(outcome.correct())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.split_first() {
        Some((first, rest)) if first == "--build-dataset" => {
            run::build_dataset_main(rest).map(|()| true)
        }
        _ => parse(&args).and_then(|cli| {
            // The io_uring probe writes a scratch file to the temp
            // directory; keep that inside the package like everything else.
            let tmp = package_root().join("data");
            std::fs::create_dir_all(&tmp)?;
            std::env::set_var("TMPDIR", &tmp);
            match (&cli.calibrate, &cli.workload) {
                (Some(sets), only) => suite::calibrate(*sets, cli.runs, only.as_deref(), cli.quick),
                (None, Some(name)) => one_run(&cli, name),
                (None, None) => suite::all(cli.seed, cli.seconds, cli.trace, cli.quick),
            }
        }),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("ringbench: a check failed");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("ringbench: {e}");
            ExitCode::FAILURE
        }
    }
}
