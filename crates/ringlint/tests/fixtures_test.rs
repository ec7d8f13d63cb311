//! Fixture tests: each rule has a bad snippet (exact diagnostic count and
//! lines asserted) and a good snippet (clean), plus JSON-shape checks and
//! an end-to-end "bad snippet dropped into a hot-path module fails the
//! workspace lint" test.

use ringlint::diag::Report;
use ringlint::rules::{
    lint_source, RULE_ATOMIC, RULE_BLOCKING, RULE_PANIC, RULE_STALE, RULE_SYNC, RULE_UNSAFE,
};

/// A generic non-hot-path module: only unsafe-audit applies.
const ANY: &str = "crates/x/src/lib.rs";
/// A hot-path module: sync-free + panic-free (+ blocking for worker.rs).
const HOT: &str = "crates/core/src/sampling.rs";
/// The ring module: all five rules apply.
const RING: &str = "crates/io/src/ring.rs";
/// The raw-syscall module: io + atomic scopes, not hot-path.
const SYS: &str = "crates/io/src/sys.rs";

fn lines_for(rule: &str, rel: &str, src: &str) -> Vec<u32> {
    lint_source(rel, src)
        .violations
        .iter()
        .filter(|v| v.rule == rule)
        .map(|v| v.line)
        .collect()
}

#[test]
fn bad_unsafe_fixture_flags_every_site() {
    let src = include_str!("fixtures/bad_unsafe.rs");
    let out = lint_source(ANY, src);
    assert_eq!(out.violations.len(), 3, "{:#?}", out.violations);
    assert!(out.violations.iter().all(|v| v.rule == RULE_UNSAFE));
    assert_eq!(lines_for(RULE_UNSAFE, ANY, src), vec![2, 5, 9]);
}

#[test]
fn good_unsafe_fixture_is_clean() {
    let out = lint_source(ANY, include_str!("fixtures/good_unsafe.rs"));
    assert!(out.violations.is_empty(), "{:#?}", out.violations);
}

#[test]
fn bad_sync_fixture_flags_locks_channels_and_shared_atomics() {
    let src = include_str!("fixtures/bad_sync.rs");
    let out = lint_source(HOT, src);
    assert_eq!(out.violations.len(), 4, "{:#?}", out.violations);
    assert!(out.violations.iter().all(|v| v.rule == RULE_SYNC));
    assert_eq!(lines_for(RULE_SYNC, HOT, src), vec![1, 5, 6, 9]);
    // The same snippet outside the hot path is not the lint's business.
    assert!(lint_source(ANY, src).violations.is_empty());
}

#[test]
fn good_sync_fixture_is_clean() {
    let out = lint_source(HOT, include_str!("fixtures/good_sync.rs"));
    assert!(out.violations.is_empty(), "{:#?}", out.violations);
}

#[test]
fn bad_blocking_fixture_flags_fs_and_seek_calls() {
    let src = include_str!("fixtures/bad_blocking.rs");
    let out = lint_source(SYS, src);
    assert_eq!(out.violations.len(), 3, "{:#?}", out.violations);
    assert!(out.violations.iter().all(|v| v.rule == RULE_BLOCKING));
    assert_eq!(lines_for(RULE_BLOCKING, SYS, src), vec![5, 9, 10]);
    // The synchronous fallback engines are allowlisted by module.
    assert!(lint_source("crates/io/src/mmap.rs", src).violations.is_empty());
}

#[test]
fn good_blocking_fixture_is_clean() {
    let out = lint_source(SYS, include_str!("fixtures/good_blocking.rs"));
    assert!(out.violations.is_empty(), "{:#?}", out.violations);
}

#[test]
fn bad_panic_fixture_flags_unwrap_expect_panic_indexing() {
    let src = include_str!("fixtures/bad_panic.rs");
    let out = lint_source(HOT, src);
    assert_eq!(out.violations.len(), 4, "{:#?}", out.violations);
    assert!(out.violations.iter().all(|v| v.rule == RULE_PANIC));
    assert_eq!(lines_for(RULE_PANIC, HOT, src), vec![2, 3, 5, 7]);
}

#[test]
fn good_panic_fixture_is_clean() {
    let out = lint_source(HOT, include_str!("fixtures/good_panic.rs"));
    assert!(out.violations.is_empty(), "{:#?}", out.violations);
}

#[test]
fn bad_atomic_fixture_flags_wrong_orderings() {
    let src = include_str!("fixtures/bad_atomic.rs");
    let out = lint_source(RING, src);
    assert_eq!(out.violations.len(), 3, "{:#?}", out.violations);
    assert!(out.violations.iter().all(|v| v.rule == RULE_ATOMIC));
    assert_eq!(lines_for(RULE_ATOMIC, RING, src), vec![2, 3, 7]);
    // Outside the atomic scope the orderings are someone else's problem.
    assert!(lint_source(ANY, src).violations.is_empty());
}

#[test]
fn good_atomic_fixture_is_clean() {
    let out = lint_source(RING, include_str!("fixtures/good_atomic.rs"));
    assert!(out.violations.is_empty(), "{:#?}", out.violations);
}

#[test]
fn allow_fixture_suppresses_with_reason_and_flags_without() {
    let out = lint_source(HOT, include_str!("fixtures/allow_exemptions.rs"));
    assert_eq!(out.allowed, 1);
    assert_eq!(out.violations.len(), 1, "{:#?}", out.violations);
    assert_eq!(out.violations[0].rule, RULE_PANIC);
    assert!(out.violations[0].message.contains("requires a reason"));
}

#[test]
fn stale_allow_fixture_reports_the_original_reason() {
    let out = lint_source(HOT, include_str!("fixtures/stale_allow.rs"));
    assert_eq!(out.allowed, 0);
    assert_eq!(out.violations.len(), 1, "{:#?}", out.violations);
    assert_eq!(out.violations[0].rule, RULE_STALE);
    assert!(
        out.violations[0]
            .message
            .contains("indexing predates the get() rewrite"),
        "{:#?}",
        out.violations
    );
}

#[test]
fn json_report_shape() {
    let outcome = lint_source(HOT, include_str!("fixtures/bad_panic.rs"));
    let mut report = Report {
        files_scanned: 1,
        violations: outcome.violations,
        allowed: outcome.allowed,
    };
    report.finish();
    let json = report.to_json();
    assert!(json.starts_with("{\"schema_version\":3,"));
    assert!(json.contains("\"files_scanned\":1"));
    assert!(json.contains("\"allowed\":0"));
    assert!(json.contains("\"counts\":{"));
    assert!(json.contains("\"panic-free-hot-path\":4"));
    assert!(json.contains("\"unsafe-audit\":0"));
    assert!(json.contains("\"stale-allow\":0"));
    assert!(json.contains(
        "{\"rule\":\"panic-free-hot-path\",\"file\":\"crates/core/src/sampling.rs\",\"line\":2,"
    ));
}

#[test]
fn text_diagnostics_are_file_line_rule() {
    let outcome = lint_source(RING, include_str!("fixtures/bad_atomic.rs"));
    let rendered = outcome.violations[0].render();
    assert!(
        rendered.starts_with("crates/io/src/ring.rs:2 [atomic-ordering]"),
        "{rendered}"
    );
}

/// The acceptance criterion, end to end: dropping a bad fixture into a
/// hot-path module of a workspace makes the full lint report a violation
/// for the correct rule at the right file:line.
#[test]
fn bad_fixture_in_hot_path_module_fails_workspace_lint() {
    let root = std::env::temp_dir().join(format!("ringlint-e2e-{}", std::process::id()));
    let module_dir = root.join("crates/core/src");
    std::fs::create_dir_all(&module_dir).expect("mkdir");
    std::fs::write(root.join("Cargo.toml"), "[workspace]\nmembers = []\n").expect("manifest");
    std::fs::write(
        module_dir.join("worker.rs"),
        include_str!("fixtures/bad_panic.rs"),
    )
    .expect("module");

    let report = ringlint::lint_workspace(&root).expect("lint");
    std::fs::remove_dir_all(&root).ok();

    assert_eq!(report.files_scanned, 1);
    assert!(!report.violations.is_empty());
    assert!(report
        .violations
        .iter()
        .all(|v| v.file == "crates/core/src/worker.rs" && v.rule == RULE_PANIC));
    assert_eq!(report.violations[0].line, 2);
}

/// Locks in the current state: the real workspace lints clean, so
/// `cargo run -p ringlint` exits 0.
#[test]
fn real_workspace_is_lint_clean() {
    let here = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let root = ringlint::find_workspace_root(here).expect("workspace root");
    let report = ringlint::lint_workspace(&root).expect("lint");
    assert!(
        report.violations.is_empty(),
        "workspace has lint violations:\n{}",
        report.to_text()
    );
    assert!(report.files_scanned > 50);
    assert!(report.allowed >= 8, "expected the documented exemptions");
}
