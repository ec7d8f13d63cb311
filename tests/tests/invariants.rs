//! The hot-path invariants clippy cannot see (DESIGN.md §7), applied to
//! this workspace. The file list and the checks live in
//! `ringsampler_integration::rules`; `fixtures_test.rs` shows each check
//! catching a bad module.

use ringsampler_integration::rules::{call_sites, check_workspace, ring_entry, sort_reasons};
use ringsampler_integration::{crate_sources, repo_root};

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

/// `Ring::prepare_read` is the one way memory is lent to a ring, and
/// `UringReader::lend` its one caller: a group's first reads and its held
/// same-page reads go out through the same loan of the filed buffer
/// (DESIGN.md §11).
#[test]
fn one_lend_site() {
    let root = repo_root();
    let mut sites = Vec::new();
    for rel in crate_sources(&root) {
        let src = std::fs::read_to_string(root.join(&rel)).expect(&rel);
        for line in call_sites(&src, "prepare_read") {
            // The innermost `fn` opened above the call.
            let owner = src
                .lines()
                .take(line)
                .filter_map(|l| l.split_whitespace().skip_while(|w| *w != "fn").nth(1))
                .last()
                .and_then(|name| name.split(['(', '<']).next())
                .map(str::to_owned);
            sites.push((rel.clone(), owner));
        }
    }
    assert_eq!(sites, [("crates/io/src/engine.rs".to_owned(), Some("lend".to_owned()))]);
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

/// Each hot-path comparison sort says what bounds it or why it is off the
/// per-edge path, and the worker sorts nothing: a layer's order comes from
/// its per-target runs (`plan::RunWalk`).
#[test]
fn every_hot_path_sort_states_its_reason() {
    assert_clean(&["sort-reason", "stale-sort"]);
    let rel = "crates/core/src/worker.rs";
    let src = std::fs::read_to_string(repo_root().join(rel)).expect(rel);
    // With every reason struck out, any sort left in the worker is a finding.
    let unreasoned = sort_reasons(rel, &src.replace("// sort:", "//"));
    assert_eq!(unreasoned, [], "the worker sorts");
}
