//! Runs every paper experiment in sequence (Table 1, Figures 4–8) and
//! prints a combined summary. Equivalent to invoking the six dedicated
//! binaries; useful for one-shot reproduction runs.
//!
//! When `--stats-json PATH` (or another artifact flag) is passed, each
//! child writes its own `PATH.<bin>.json` (see [`per_bin_args`]).

use std::process::Command;

/// Rewrites `--stats-json` / `--trace` / `--prometheus` /
/// `--trace-events` values so each child writes `path.<bin>.<ext>`
/// instead of all children overwriting one `path`: `run.json` becomes
/// `run.fig4_overall.json`.
fn per_bin_args(args: &[String], bin: &str) -> Vec<String> {
    let mut out = Vec::with_capacity(args.len());
    let mut rewrite_next = false;
    for a in args {
        if rewrite_next {
            let p = std::path::Path::new(a);
            out.push(match (p.file_stem(), p.extension()) {
                (Some(stem), Some(ext)) => p
                    .with_file_name(format!(
                        "{}.{bin}.{}",
                        stem.to_string_lossy(),
                        ext.to_string_lossy()
                    ))
                    .display()
                    .to_string(),
                _ => format!("{a}.{bin}"),
            });
            rewrite_next = false;
            continue;
        }
        rewrite_next = matches!(
            a.as_str(),
            "--stats-json" | "--trace" | "--prometheus" | "--trace-events"
        );
        out.push(a.clone());
    }
    out
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let exe = std::env::current_exe()?;
    let dir = exe.parent().expect("binary directory");
    let args: Vec<String> = std::env::args().skip(1).collect();
    let experiments = [
        ("table1", "Table 1 (datasets)"),
        ("fig4_overall", "Figure 4 (overall comparison)"),
        ("fig5_memory", "Figure 5 (memory constraints)"),
        ("fig6_latency", "Figure 6 (on-demand CDF)"),
        ("fig7_layers", "Figure 7 (hop sweep)"),
        ("fig8_threads", "Figure 8 (thread scaling)"),
    ];
    let started = std::time::Instant::now();
    // Run every experiment even if one fails — partial artifacts from the
    // healthy runs are still useful — but never report success: the first
    // failure's exit code is propagated after the fan-out completes.
    let mut failures: Vec<(&str, i32)> = Vec::new();
    for (bin, label) in experiments {
        println!("\n===== {label} =====");
        let status = Command::new(dir.join(bin))
            .args(per_bin_args(&args, bin))
            .status()?;
        if !status.success() {
            let code = status.code().unwrap_or(1);
            eprintln!("{bin} failed with {status}");
            failures.push((bin, code));
        }
    }
    if let Some((first_bin, first_code)) = failures.first().copied() {
        eprintln!(
            "\n{}/{} experiments failed: {}; exiting with {first_bin}'s code {first_code}",
            failures.len(),
            experiments.len(),
            failures
                .iter()
                .map(|(b, _)| *b)
                .collect::<Vec<_>>()
                .join(", ")
        );
        std::process::exit(first_code);
    }
    println!(
        "\nall experiments complete in {:.1}s; tables under results/",
        started.elapsed().as_secs_f64()
    );
    Ok(())
}
