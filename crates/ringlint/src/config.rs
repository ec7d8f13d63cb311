//! Rule scoping: which rules apply to which workspace files.
//!
//! Scopes mirror the paper's architecture (see DESIGN.md "Enforced
//! invariants"): the *hot path* is every module a sampler worker executes
//! per batch — neighbor sampling, the worker loop, the epoch driver and the
//! io_uring submission/completion machinery. The *io path* is the subset
//! that sits between a submitted SQE and a reaped CQE, where a blocking
//! syscall would stall the whole pipeline (paper Fig. 3b). The *atomic
//! path* is the modules that speak a shared-memory ordering protocol: the
//! kernel's SQ/CQ rings and ringstat's single-writer cursors.
//!
//! Every module that enters a ring (submits, waits or reaps) is hot-path,
//! so no lock guard can be live across ring entry: `sync-free-hot-path`
//! bans the lock types there outright. A test pins that scope.

use crate::rules::{RULE_ATOMIC, RULE_BLOCKING, RULE_PANIC, RULE_RESOURCE, RULE_SYNC, RULE_UNSAFE};

/// Modules executed per-batch by sampler workers (paper §3.1: the
/// sync-free, panic-free region).
pub const HOT_PATH: &[&str] = &[
    "crates/core/src/worker.rs",
    "crates/core/src/sampling.rs",
    "crates/core/src/engine.rs",
    // The read planner runs per layer inside every worker's fetch; its
    // sort/merge/scatter passes must never panic or synchronize.
    "crates/core/src/plan.rs",
    // The hot set is probed once per sampled entry by every worker at
    // once; its lookup must stay lock-free, atomic-free and panic-free.
    "crates/core/src/hotset.rs",
    "crates/io/src/ring.rs",
    "crates/io/src/engine.rs",
    // Observability primitives workers call per batch/IO group: recording
    // must stay allocation-free, lock-free and panic-free.
    "crates/ringstat/src/hist.rs",
    "crates/ringstat/src/span.rs",
    // The seqlock publish runs once per batch on every worker; aside from
    // its two audited version-counter accesses it must stay sync-free.
    "crates/ringstat/src/snapshot.rs",
    // The flight recorder records an event per pipeline stage on every
    // worker; its store-only cursors must never grow a lock or RMW.
    "crates/ringstat/src/events.rs",
    // ringprof's samplers: `thread_cpu_nanos` rides every batch, and the
    // epoch-boundary `ResourceSample::now` shares the file — so the
    // whole module is held to hot-path discipline, with the
    // resource-discipline rule auditing which reads run where.
    "crates/ringstat/src/resources.rs",
];

/// Modules on the io_uring submission/completion path. Blocking reads here
/// would serialize the async pipeline (paper Fig. 3b). `mmap.rs` and
/// `ondemand.rs` are deliberately absent: they are the synchronous fallback
/// engines and oracle readers.
pub const IO_PATH: &[&str] = &[
    "crates/io/src/ring.rs",
    "crates/io/src/sys.rs",
    "crates/io/src/engine.rs",
    "crates/core/src/worker.rs",
    // Plans are built between a layer's sampling and its SQE submission;
    // a blocking call here stalls the pipeline exactly like worker code.
    "crates/core/src/plan.rs",
];

/// Modules implementing the kernel SQ/CQ shared-memory protocol, where
/// every atomic access must follow the acquire/release discipline.
pub const ATOMIC_PATH: &[&str] = &[
    "crates/io/src/ring.rs",
    "crates/io/src/sys.rs",
    // The snapshot seqlock is a single-writer acquire/release protocol;
    // its two relaxed accesses carry reasoned `ringlint: allow` comments.
    "crates/ringstat/src/snapshot.rs",
    // The event ring's cursors follow the same single-writer discipline
    // (load-Acquire / store-Release only, no RMW, no relaxed accesses).
    "crates/ringstat/src/events.rs",
];

/// Returns true if `rel` (forward-slash, workspace-relative) ends with any
/// of the given module paths.
fn in_scope(rel: &str, scope: &[&str]) -> bool {
    scope.iter().any(|s| rel == *s || rel.ends_with(&format!("/{s}")))
}

/// The rules that apply to a workspace-relative path. `unsafe-audit`
/// applies everywhere; the others only in their scoped module lists.
pub fn rules_for(rel: &str) -> Vec<&'static str> {
    let mut rules = vec![RULE_UNSAFE];
    if in_scope(rel, HOT_PATH) {
        rules.push(RULE_SYNC);
        rules.push(RULE_PANIC);
        rules.push(RULE_RESOURCE);
    }
    if in_scope(rel, IO_PATH) {
        rules.push(RULE_BLOCKING);
    }
    if in_scope(rel, ATOMIC_PATH) {
        rules.push(RULE_ATOMIC);
    }
    rules
}

/// Whether a workspace-relative path should be scanned at all. Lint
/// fixtures are intentionally-bad snippets; `target/` is build output.
pub fn is_scanned(rel: &str) -> bool {
    let skip_components = ["target", "fixtures"];
    !rel.split('/').any(|c| skip_components.contains(&c)) && rel.ends_with(".rs")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hot_path_gets_all_applicable_rules() {
        let rules = rules_for("crates/io/src/ring.rs");
        assert!(rules.contains(&RULE_UNSAFE));
        assert!(rules.contains(&RULE_SYNC));
        assert!(rules.contains(&RULE_PANIC));
        assert!(rules.contains(&RULE_BLOCKING));
        assert!(rules.contains(&RULE_ATOMIC));
    }

    #[test]
    fn fallback_engines_not_in_io_scope() {
        for rel in ["crates/io/src/mmap.rs", "crates/io/src/ondemand.rs"] {
            let rules = rules_for(rel);
            assert!(!rules.contains(&RULE_BLOCKING), "{rel}");
            assert!(!rules.contains(&RULE_SYNC), "{rel}");
        }
    }

    /// Stands in for a lock-across-submit rule: a lock guard cannot be live
    /// across ring entry while every non-test crate source that enters a
    /// ring is hot-path, where the lock types themselves are banned.
    #[test]
    fn every_ring_entry_caller_is_hot_path() {
        const RING_ENTRY: &[&str] = &[
            "submit",
            "submit_and_wait",
            "wait_completion",
            "peek_completion",
            "submit_group",
            "complete_group",
            "io_uring_enter",
        ];
        let here = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
        let root = crate::find_workspace_root(here).expect("workspace root");
        let mut callers = Vec::new();
        for rel in crate::collect_workspace_files(&root).expect("walk") {
            if !(rel.starts_with("crates/") && rel.contains("/src/")) {
                continue;
            }
            let src = std::fs::read_to_string(root.join(&rel)).expect("read");
            let toks = crate::lexer::lex(&src).tokens;
            let skip = crate::rules::test_region_mask(&toks);
            // A call, not a definition: `name(` not preceded by `fn`.
            let calls = toks.iter().enumerate().any(|(i, t)| {
                !skip[i]
                    && RING_ENTRY.contains(&t.text.as_str())
                    && toks.get(i + 1).is_some_and(|n| n.text == "(")
                    && (i == 0 || toks[i - 1].text != "fn")
            });
            if calls {
                callers.push(rel);
            }
        }
        for rel in &callers {
            assert!(in_scope(rel, HOT_PATH), "{rel} enters a ring outside HOT_PATH");
        }
        for rel in ["crates/core/src/worker.rs", "crates/io/src/engine.rs", "crates/io/src/ring.rs"] {
            assert!(callers.iter().any(|c| c == rel), "{rel} not found among {callers:?}");
        }
    }

    #[test]
    fn sampling_is_hot_but_not_io() {
        let rules = rules_for("crates/core/src/sampling.rs");
        assert!(rules.contains(&RULE_PANIC));
        assert!(!rules.contains(&RULE_BLOCKING));
        assert!(!rules.contains(&RULE_ATOMIC));
    }

    #[test]
    fn read_planner_is_hot_and_io_but_not_atomic() {
        let rules = rules_for("crates/core/src/plan.rs");
        assert!(rules.contains(&RULE_SYNC));
        assert!(rules.contains(&RULE_PANIC));
        assert!(rules.contains(&RULE_BLOCKING));
        assert!(!rules.contains(&RULE_ATOMIC));
    }

    #[test]
    fn hot_set_is_hot_but_the_benchmark_lru_is_not() {
        let rules = rules_for("crates/core/src/hotset.rs");
        assert!(rules.contains(&RULE_SYNC));
        assert!(rules.contains(&RULE_PANIC));
        assert!(!rules.contains(&RULE_ATOMIC));
        assert!(!rules_for("crates/core/src/cache.rs").contains(&RULE_PANIC));
    }

    #[test]
    fn ringstat_recorders_are_hot_but_not_io() {
        for rel in ["crates/ringstat/src/hist.rs", "crates/ringstat/src/span.rs"] {
            let rules = rules_for(rel);
            assert!(rules.contains(&RULE_SYNC), "{rel}");
            assert!(rules.contains(&RULE_PANIC), "{rel}");
            assert!(!rules.contains(&RULE_BLOCKING), "{rel}");
        }
        // Export-side modules run at epoch join, not in the hot loop.
        assert!(!rules_for("crates/ringstat/src/json.rs").contains(&RULE_SYNC));
        // The telemetry server runs on its own thread, outside hot scope,
        // and so does the history arithmetic its monitor folds with.
        assert!(!rules_for("crates/ringstat/src/http.rs").contains(&RULE_SYNC));
        let history = rules_for("crates/ringstat/src/history.rs");
        assert!(!history.contains(&RULE_SYNC) && !history.contains(&RULE_ATOMIC));
    }

    #[test]
    fn snapshot_seqlock_is_hot_and_atomic_but_not_io() {
        let rules = rules_for("crates/ringstat/src/snapshot.rs");
        assert!(rules.contains(&RULE_SYNC));
        assert!(rules.contains(&RULE_PANIC));
        assert!(rules.contains(&RULE_ATOMIC));
        assert!(!rules.contains(&RULE_BLOCKING));
    }

    #[test]
    fn event_ring_is_hot_and_atomic_but_not_io() {
        let rules = rules_for("crates/ringstat/src/events.rs");
        assert!(rules.contains(&RULE_SYNC));
        assert!(rules.contains(&RULE_PANIC));
        assert!(rules.contains(&RULE_ATOMIC));
        assert!(!rules.contains(&RULE_BLOCKING));
    }

    #[test]
    fn resources_module_is_hot_with_resource_discipline() {
        let rules = rules_for("crates/ringstat/src/resources.rs");
        assert!(rules.contains(&RULE_SYNC));
        assert!(rules.contains(&RULE_PANIC));
        assert!(rules.contains(&RULE_RESOURCE));
        assert!(!rules.contains(&RULE_BLOCKING));
        assert!(!rules.contains(&RULE_ATOMIC));
        // Cold modules sample freely: the rule is hot-path-scoped.
        assert!(!rules_for("crates/ringstat/src/json.rs").contains(&RULE_RESOURCE));
        assert!(!rules_for("crates/bench/src/lib.rs").contains(&RULE_RESOURCE));
    }

    #[test]
    fn fixtures_and_target_excluded() {
        assert!(!is_scanned("crates/ringlint/tests/fixtures/bad_sync.rs"));
        assert!(!is_scanned("target/debug/build/foo.rs"));
        assert!(is_scanned("crates/core/src/worker.rs"));
        assert!(!is_scanned("README.md"));
    }
}
