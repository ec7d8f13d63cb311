//! ringlint CLI.
//!
//! ```text
//! cargo run -p ringlint                         # lint the workspace, text output
//! cargo run -p ringlint -- --json               # machine-readable report
//! cargo run -p ringlint -- --root DIR           # explicit workspace root
//! cargo run -p ringlint -- FILE..               # lint specific files (relative to root)
//! ```
//!
//! Exit codes: 0 clean, 1 violations found, 2 usage or I/O error.

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut json = false;
    let mut root_arg: Option<PathBuf> = None;
    let mut files: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--root" => match args.next() {
                Some(p) => {
                    let p = PathBuf::from(p);
                    if !p.is_dir() {
                        eprintln!("ringlint: --root `{}` is not a directory", p.display());
                        return ExitCode::from(2);
                    }
                    root_arg = Some(p);
                }
                None => {
                    eprintln!("ringlint: --root requires a directory argument");
                    return ExitCode::from(2);
                }
            },
            "--help" | "-h" => {
                println!(
                    "ringlint — RingSampler workspace invariant checker\n\n\
                     USAGE: ringlint [--json] [--root DIR] [FILE..]\n\n\
                     Rules: {}\n\
                     Hygiene: stale-allow (unused `ringlint: allow` comments)",
                    ringlint::rules::ALL_RULES.join(", ")
                );
                return ExitCode::SUCCESS;
            }
            other if other.starts_with('-') => {
                eprintln!("ringlint: unknown flag `{other}` (try --help)");
                return ExitCode::from(2);
            }
            other => files.push(other.replace('\\', "/")),
        }
    }

    let root = match root_arg.or_else(|| {
        std::env::current_dir()
            .ok()
            .and_then(|d| ringlint::find_workspace_root(&d))
            .or_else(|| {
                // Under `cargo run` the manifest dir is crates/ringlint.
                std::env::var_os("CARGO_MANIFEST_DIR")
                    .map(PathBuf::from)
                    .and_then(|d| ringlint::find_workspace_root(&d))
            })
    }) {
        Some(r) => r,
        None => {
            eprintln!("ringlint: could not locate a workspace root (use --root)");
            return ExitCode::from(2);
        }
    };

    let report = if files.is_empty() {
        ringlint::lint_workspace(&root)
    } else {
        ringlint::lint_files(&root, &files)
    };
    let report = match report {
        Ok(r) => r,
        Err(e) => {
            eprintln!("ringlint: {e}");
            return ExitCode::from(2);
        }
    };

    if json {
        println!("{}", report.to_json());
    } else {
        print!("{}", report.to_text());
    }

    if report.violations.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
