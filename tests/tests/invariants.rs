//! The hot-path invariants clippy cannot see (DESIGN.md §7), applied to
//! this workspace. The file list and the checks live in
//! `ringsampler_integration::rules`; `fixtures_test.rs` shows each check
//! catching a bad module.

use ringsampler_integration::repo_root;
use ringsampler_integration::rules::{check_workspace, ring_entry};

/// Fails on any finding of the given rules.
fn assert_clean(rules: &[&str]) {
    let found: Vec<String> = check_workspace(&repo_root())
        .iter()
        .filter(|f| rules.contains(&f.rule))
        .map(ToString::to_string)
        .collect();
    assert!(found.is_empty(), "{}", found.join("\n"));
}

#[test]
fn hot_path_files_open_with_the_canonical_lint_line() {
    assert_clean(&["lint-line"]);
}

/// A lock guard cannot be live across ring entry while every module that
/// enters a ring is hot-path, where the lock types themselves are banned.
#[test]
fn every_ring_entry_caller_is_hot_path() {
    assert_clean(&["ring-entry-scope"]);
    let root = repo_root();
    for rel in [
        "crates/core/src/worker.rs",
        "crates/io/src/engine.rs",
        "crates/io/src/ring.rs",
    ] {
        let src = std::fs::read_to_string(root.join(rel)).expect(rel);
        assert!(ring_entry(&src).is_some(), "{rel} no longer enters a ring");
    }
}

/// `Arc<AtomicX>` is a shared mutable cell smuggled past the lock ban:
/// hot-path state is per worker.
#[test]
fn no_hot_path_file_shares_an_atomic_cell() {
    assert_clean(&["shared-atomic"]);
}

/// Each `Relaxed`/`SeqCst` in the ordering-protocol modules carries an
/// `// ordering:` reason, and no reason outlives its access.
#[test]
fn every_weak_ordering_states_its_reason() {
    assert_clean(&["ordering-reason", "stale-ordering"]);
}
