//! ringlint: workspace static analysis enforcing RingSampler's safety and
//! sync-free invariants.
//!
//! The paper's performance claims rest on structural properties that the
//! type system cannot express: workers never synchronize on the hot path
//! (§3.1), the io_uring pipeline never blocks in a syscall (Fig. 3b), ring
//! atomics follow the kernel's acquire/release protocol, hot-path code
//! never panics, and every `unsafe` site carries a written justification.
//! ringlint lexes each workspace source file (stable toolchain, no rustc
//! internals) and enforces those invariants with `file:line` diagnostics,
//! a `--json` mode, and per-site
//! `// ringlint: allow(<rule>) — <reason>` exemptions. Stale `allow(..)`
//! comments are reported so exemptions cannot rot.
//!
//! What types already enforce is left to them: a buffer lent to the kernel
//! is owned by the I/O engine for the whole loan (`GroupReader::submit_group`
//! takes it by value, and the one lend is a crate-private `unsafe fn` under
//! `unsafe-audit`), and every module that enters a ring is in the hot-path
//! scope, where lock types are banned outright.
//!
//! Run it with `cargo run -p ringlint`; it exits non-zero on violations.

pub mod config;
pub mod diag;
pub mod lexer;
pub mod rules;

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

pub use diag::{Report, Violation};
pub use rules::{lint_source, FileOutcome};

/// Directories under the workspace root that contain lintable sources.
const SCAN_ROOTS: &[&str] = &["crates", "vendor", "tests"];

/// Collects every scannable `.rs` file under the workspace root, returned
/// as sorted workspace-relative forward-slash paths.
pub fn collect_workspace_files(root: &Path) -> io::Result<Vec<String>> {
    let mut files = Vec::new();
    for scan_root in SCAN_ROOTS {
        let dir = root.join(scan_root);
        if dir.is_dir() {
            walk(&dir, root, &mut files)?;
        }
    }
    files.sort();
    Ok(files)
}

fn walk(dir: &Path, root: &Path, out: &mut Vec<String>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        if path.is_dir() {
            walk(&path, root, out)?;
        } else if let Some(rel) = relative_slash(&path, root) {
            if config::is_scanned(&rel) {
                out.push(rel);
            }
        }
    }
    Ok(())
}

/// Renders `path` relative to `root` with forward slashes.
fn relative_slash(path: &Path, root: &Path) -> Option<String> {
    let rel = path.strip_prefix(root).ok()?;
    let mut s = String::new();
    for comp in rel.components() {
        if !s.is_empty() {
            s.push('/');
        }
        s.push_str(&comp.as_os_str().to_string_lossy());
    }
    Some(s)
}

/// Lints an explicit set of workspace-relative files under `root`.
pub fn lint_files(root: &Path, rels: &[String]) -> io::Result<Report> {
    let mut report = Report::default();
    for rel in rels {
        let src = fs::read_to_string(root.join(rel))?;
        let outcome = rules::lint_source(rel, &src);
        report.files_scanned += 1;
        report.allowed += outcome.allowed;
        report.violations.extend(outcome.violations);
    }
    report.finish();
    Ok(report)
}

/// Lints the whole workspace rooted at `root`.
pub fn lint_workspace(root: &Path) -> io::Result<Report> {
    let files = collect_workspace_files(root)?;
    lint_files(root, &files)
}

/// Locates the workspace root: an explicit `--root`, else the nearest
/// ancestor of `start` whose `Cargo.toml` declares `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut cur = Some(start);
    while let Some(dir) = cur {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir.to_path_buf());
            }
        }
        cur = dir.parent();
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_workspace_root_from_crate_dir() {
        let here = Path::new(env!("CARGO_MANIFEST_DIR"));
        let root = find_workspace_root(here).expect("workspace root");
        assert!(root.join("crates").is_dir());
    }

    #[test]
    fn collects_rs_files_excluding_fixtures() {
        let here = Path::new(env!("CARGO_MANIFEST_DIR"));
        let root = find_workspace_root(here).expect("workspace root");
        let files = collect_workspace_files(&root).expect("walk");
        assert!(files.iter().any(|f| f == "crates/io/src/ring.rs"));
        assert!(files.iter().all(|f| !f.contains("/fixtures/")));
        assert!(files.iter().all(|f| f.ends_with(".rs")));
    }
}
