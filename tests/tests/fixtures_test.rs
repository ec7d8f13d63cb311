//! Each text-level hot-path check (`ringsampler_integration::rules`) run
//! over a small module that breaks it, and over one that keeps it.

use ringsampler_integration::repo_root;
use ringsampler_integration::rules::{
    check_workspace, lint_line, shared_atomics, sort_reasons, weak_orderings, Finding,
    ATOMIC_PATH, HOT_LINE, HOT_PATH, SYS,
};

/// `(line, rule)` of each finding, in order.
fn rules(found: &[Finding]) -> Vec<(usize, &str)> {
    found.iter().map(|f| (f.line, f.rule)).collect()
}

const BAD_ATOMIC: &str = "\
pub fn publish(seq: &AtomicU64, cursor: &AtomicU64) {
    let s = seq.load(Ordering::Relaxed);
    seq.store(s + 1, Ordering::SeqCst);
    cursor.fetch_add(1, Ordering::AcqRel);
    fence(Ordering::SeqCst);
}
";

const GOOD_ATOMIC: &str = "\
pub fn publish(seq: &AtomicU64, cursor: &AtomicU64) {
    // ordering: sole writer; readers validate with the Acquire fence below
    let s = seq.load(Ordering::Relaxed);
    seq.store(s + 1, Ordering::Release);
    let _ = cursor.load(Ordering::Acquire);
    fence(Ordering::SeqCst); // ordering: orders the odd marker before the payload
}
";

#[test]
fn bad_atomic_fixture_flags_wrong_orderings() {
    let found = weak_orderings("bad_atomic.rs", BAD_ATOMIC);
    assert_eq!(
        rules(&found),
        [
            (2, "ordering-reason"),
            (3, "ordering-reason"),
            (5, "ordering-reason")
        ]
    );
}

#[test]
fn good_atomic_fixture_is_clean() {
    assert_eq!(weak_orderings("good_atomic.rs", GOOD_ATOMIC), []);
}

/// The text half of the sync-free rule: per-worker atomics and shared
/// read-only data pass; clippy holds the lock and channel bans.
#[test]
fn good_sync_fixture_is_clean() {
    let src = format!(
        "{HOT_LINE}
use std::sync::Arc;
use std::sync::atomic::{{AtomicU64, Ordering}};

pub struct Worker {{
    pages: Arc<[u8]>,
    offsets: Arc<Vec<u64>>,
    published: AtomicU64,
}}

impl Worker {{
    pub fn publish(&self, n: u64) {{
        self.published.store(n, Ordering::Release);
    }}
}}
"
    );
    assert_eq!(lint_line("good_sync.rs", &src, HOT_LINE), None);
    assert_eq!(shared_atomics("good_sync.rs", &src), []);
    assert_eq!(weak_orderings("good_sync.rs", &src), []);
}

#[test]
fn allow_fixture_suppresses_with_reason_and_flags_without() {
    let src = "\
// ordering: setup-time read before the ring is shared
let head = sq.head.load(Ordering::Relaxed);
let tail = sq.tail.load(Ordering::Relaxed);
// ordering: cq_head's sole writer is this thread;
// the kernel only reads it
cq.head.store(h, Ordering::Relaxed);
";
    assert_eq!(
        rules(&weak_orderings("allow.rs", src)),
        [(3, "ordering-reason")]
    );
}

#[test]
fn stale_allow_fixture_reports_the_original_reason() {
    let src = "\
// ordering: the ring was relaxed here once
let head = sq.head.load(Ordering::Acquire);
let tail = sq.tail.load(Ordering::Acquire); // ordering: also stale
// ordering: left behind at the end of the module
";
    let found = weak_orderings("stale.rs", src);
    assert_eq!(
        rules(&found),
        [
            (1, "stale-ordering"),
            (3, "stale-ordering"),
            (4, "stale-ordering")
        ]
    );
    let details: Vec<&str> = found.iter().map(|f| f.detail.as_str()).collect();
    for (detail, reason) in details.iter().zip([
        "the ring was relaxed here once",
        "also stale",
        "left behind at the end of the module",
    ]) {
        assert!(
            detail.contains(reason),
            "{detail:?} does not quote {reason:?}"
        );
    }
}

#[test]
fn text_diagnostics_are_file_line_rule() {
    let found = weak_orderings("crates/io/src/ring.rs", BAD_ATOMIC);
    assert_eq!(
        found[0].to_string(),
        "crates/io/src/ring.rs:2: ordering-reason: \
         `Relaxed`/`SeqCst` access without a `// ordering:` reason"
    );
    let missing = lint_line(
        "crates/core/src/plan.rs",
        "//! The read planner.\n",
        HOT_LINE,
    )
    .expect("no lint line");
    assert!(
        missing
            .to_string()
            .starts_with("crates/core/src/plan.rs:1: lint-line: "),
        "{missing}"
    );
}

const BAD_SORT: &str = "\
pub fn plan(perm: &mut [u32], entries: &[u64]) {
    perm.sort_unstable_by_key(|&i| entries[i as usize]);
    // sort:
    perm.sort();
    // sort: the pages were sorted once, at build time
    let n = perm.len();
}
";

const GOOD_SORT: &str = "\
pub fn plan(perm: &mut [u32], entries: &[u64], run: &mut [u32]) {
    // sort: the fallback, for a layer whose runs do not ascend
    perm.sort_unstable_by_key(|&i| entries[i as usize]);
    run.sort(); // sort: one target's draws, at most its fanout
    let sorted = perm.is_sorted();
}
";

#[test]
fn bad_sort_fixture_flags_unreasoned_and_stale_sorts() {
    let found = sort_reasons("bad_sort.rs", BAD_SORT);
    assert_eq!(
        rules(&found),
        [(2, "sort-reason"), (3, "sort-reason"), (5, "stale-sort")]
    );
    assert!(found[1].detail.contains("empty"), "{found:?}");
}

#[test]
fn good_sort_fixture_is_clean() {
    assert_eq!(sort_reasons("good_sort.rs", GOOD_SORT), []);
}

/// A copy of the workspace's listed modules is clean; bad modules put in
/// the hot path, and a ring entry outside it, each fail the workspace check.
#[test]
fn bad_fixture_in_hot_path_module_fails_workspace_lint() {
    let real = repo_root();
    let ws = std::env::temp_dir().join(format!("ringsampler-fixture-ws-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&ws);
    for rel in HOT_PATH.iter().chain([&SYS]).chain(ATOMIC_PATH) {
        let to = ws.join(rel);
        std::fs::create_dir_all(to.parent().expect("parent")).expect("mkdir");
        std::fs::copy(real.join(rel), &to).expect("copy");
    }
    assert_eq!(check_workspace(&ws), [], "the copied modules are clean");

    std::fs::write(
        ws.join("crates/core/src/hotset.rs"),
        "//! A hot set shared through one counter.\n\
         pub struct HotSet {\n    hits: Arc<AtomicU64>,\n}\n",
    )
    .expect("write hotset.rs");
    std::fs::write(
        ws.join("crates/core/src/telemetry.rs"),
        "pub fn drain(ring: &mut Ring) {\n    let _ = ring.submit_and_wait(1);\n}\n",
    )
    .expect("write telemetry.rs");
    std::fs::write(ws.join("crates/io/src/ring.rs"), BAD_ATOMIC).expect("write ring.rs");
    let bad_plan = format!("{HOT_LINE}\n{BAD_SORT}");
    std::fs::write(ws.join("crates/core/src/plan.rs"), bad_plan).expect("write plan.rs");
    let found = check_workspace(&ws);
    std::fs::remove_dir_all(&ws).expect("clean up");

    let at: Vec<(&str, usize, &str)> = found
        .iter()
        .map(|f| (f.file.as_str(), f.line, f.rule))
        .collect();
    assert_eq!(
        at,
        [
            ("crates/core/src/plan.rs", 3, "sort-reason"),
            ("crates/core/src/plan.rs", 4, "sort-reason"),
            ("crates/core/src/plan.rs", 6, "stale-sort"),
            ("crates/core/src/hotset.rs", 1, "lint-line"),
            ("crates/core/src/hotset.rs", 3, "shared-atomic"),
            ("crates/io/src/ring.rs", 1, "lint-line"),
            ("crates/core/src/telemetry.rs", 2, "ring-entry-scope"),
            ("crates/io/src/ring.rs", 2, "ordering-reason"),
            ("crates/io/src/ring.rs", 3, "ordering-reason"),
            ("crates/io/src/ring.rs", 5, "ordering-reason"),
        ]
    );
}
