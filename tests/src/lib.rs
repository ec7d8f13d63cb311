//! Integration-test host package; all tests live in `tests/tests/`.
//!
//! The library holds what they share: the workspace walk below, the
//! text-level hot-path checks in [`rules`] (DESIGN.md §7) and the exact
//! reference sampler in [`reference`].

pub mod reference;
pub mod rules;

use std::path::{Path, PathBuf};

/// The nearest ancestor of `start`, itself included, whose `Cargo.toml`
/// declares a `[workspace]`.
pub fn workspace_root(start: &Path) -> Option<PathBuf> {
    start
        .ancestors()
        .find(|dir| {
            std::fs::read_to_string(dir.join("Cargo.toml"))
                .is_ok_and(|toml| toml.lines().any(|line| line.trim() == "[workspace]"))
        })
        .map(Path::to_path_buf)
}

/// The workspace this package belongs to.
pub fn repo_root() -> PathBuf {
    workspace_root(Path::new(env!("CARGO_MANIFEST_DIR"))).expect("tests/ sits in the workspace")
}

/// Every `.rs` file under `root/crates/*/src`, workspace-relative and
/// sorted.
pub fn crate_sources(root: &Path) -> Vec<String> {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        for entry in std::fs::read_dir(dir).expect("read_dir") {
            let path = entry.expect("dir entry").path();
            if path.is_dir() {
                walk(&path, out);
            } else if path.extension().is_some_and(|e| e == "rs") {
                out.push(path);
            }
        }
    }
    let mut files = Vec::new();
    for krate in std::fs::read_dir(root.join("crates")).expect("crates/") {
        let src = krate.expect("dir entry").path().join("src");
        if src.is_dir() {
            walk(&src, &mut files);
        }
    }
    let mut rels: Vec<String> = files
        .iter()
        .map(|p| {
            p.strip_prefix(root)
                .expect("under root")
                .to_string_lossy()
                .into_owned()
        })
        .collect();
    rels.sort();
    rels
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_workspace_root_from_crate_dir() {
        let root = repo_root();
        assert!(
            root.join("clippy.toml").is_file(),
            "{root:?} is not the repo root"
        );
        for krate in ["crates/core", "crates/io/src", "tests"] {
            assert_eq!(
                workspace_root(&root.join(krate)),
                Some(root.clone()),
                "from {krate}"
            );
        }
        assert_eq!(workspace_root(Path::new("/")), None);
    }
}
