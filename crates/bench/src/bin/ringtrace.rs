//! `ringtrace` — turn a `--trace-events` flight-recorder dump into a
//! per-batch critical-path breakdown.
//!
//! ```text
//! ringtrace DUMP.json [--chrome OUT.json] [--straggler-k K]
//!                     [--assert-coverage FRAC]
//! ```
//!
//! For every report in the dump, prints the stage-attribution table
//! (sample / plan / submit / inflight-wait / reap / scatter vs. the
//! end-to-end batch time), a queue-depth timeline, and any straggler
//! groups with kernel latency above `K · p99` (default K = 3).
//!
//! `--chrome OUT.json` additionally writes a Perfetto-loadable trace with
//! labeled worker lanes. `--assert-coverage FRAC` exits nonzero unless
//! every report's attributed stage time covers at least `FRAC` of the
//! end-to-end batch time (the CI gate uses 0.99).

use ringsampler_bench::ringtrace::{coverage, report_analysis, report_batches, to_chrome, TraceDump};

fn usage() -> ! {
    eprintln!(
        "usage: ringtrace DUMP.json [--chrome OUT.json] [--straggler-k K] \
         [--assert-coverage FRAC]"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut input: Option<String> = None;
    let mut chrome_out: Option<String> = None;
    let mut straggler_k = 3.0f64;
    let mut assert_coverage: Option<f64> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--chrome" => {
                i += 1;
                chrome_out = Some(args.get(i).cloned().unwrap_or_else(|| usage()));
            }
            "--straggler-k" => {
                i += 1;
                straggler_k = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--assert-coverage" => {
                i += 1;
                assert_coverage = Some(
                    args.get(i)
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage()),
                );
            }
            "--help" | "-h" => usage(),
            a if a.starts_with("--") => usage(),
            a => {
                if input.replace(a.to_string()).is_some() {
                    usage();
                }
            }
        }
        i += 1;
    }
    let Some(input) = input else { usage() };

    let text = match std::fs::read_to_string(&input) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("ringtrace: cannot read {input}: {e}");
            std::process::exit(1);
        }
    };
    let dump = match TraceDump::parse(&text) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("ringtrace: cannot parse {input}: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "ringtrace: {} report(s), {} event(s) from {input}",
        dump.reports.len(),
        dump.event_count()
    );

    let mut worst: Option<(String, f64)> = None;
    for r in &dump.reports {
        print!("{}", report_analysis(r, straggler_k));
        if let Some(cov) = coverage(&report_batches(r)) {
            if worst.as_ref().is_none_or(|(_, w)| cov < *w) {
                worst = Some((r.label.clone(), cov));
            }
        }
    }

    if let Some(path) = chrome_out {
        if let Err(e) = std::fs::write(&path, to_chrome(&dump)) {
            eprintln!("ringtrace: cannot write {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("wrote {path}");
    }

    if let Some(min) = assert_coverage {
        match worst {
            Some((label, cov)) if cov >= min => {
                println!(
                    "coverage ok: worst report {label} attributes {:.1}% of batch time \
                     (>= {:.1}%)",
                    100.0 * cov,
                    100.0 * min
                );
            }
            Some((label, cov)) => {
                eprintln!(
                    "FAIL: report {label} attributes only {:.1}% of batch time \
                     (< {:.1}%)",
                    100.0 * cov,
                    100.0 * min
                );
                std::process::exit(1);
            }
            None => {
                eprintln!("FAIL: --assert-coverage given but no complete batches in dump");
                std::process::exit(1);
            }
        }
    }
}
