//! The hot-path invariants clippy cannot see, checked as text.
//!
//! clippy enforces the paper's structural invariants file by file: each
//! hot-path module opens with one canonical lint line, and `clippy.toml`
//! lists the types and calls that line bans. What no lint expresses is
//! checked here: which files carry the line, that every module entering a
//! ring carries it, that none shares an `Arc<Atomic*>` cell, that every
//! weak atomic ordering states its reason, and that every hot-path sort
//! states what keeps it off the per-edge path. `tests/tests/invariants.rs`
//! applies [`check_workspace`] to this workspace.

use std::fmt;
use std::path::Path;

/// The first line of every hot-path module. `not(test)` leaves the
/// module's `#[cfg(test)]` code free to unwrap, index and lock.
pub const HOT_LINE: &str = "#![cfg_attr(not(test), deny(clippy::disallowed_types, clippy::disallowed_methods, clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable, clippy::todo, clippy::unimplemented, clippy::indexing_slicing, clippy::allow_attributes, clippy::allow_attributes_without_reason))]";

/// Modules executed per batch by sampler workers (paper §3.1: the
/// sync-free, panic-free region), plus the io_uring submission/completion
/// path, where a blocking call would stall the pipeline (paper Fig. 3b).
/// `mmap.rs` and `ondemand.rs` are deliberately absent: they are the
/// synchronous fallback engines and oracle readers.
pub const HOT_PATH: &[&str] = &[
    "crates/core/src/worker.rs",
    "crates/core/src/sampling.rs",
    "crates/core/src/engine.rs",
    // The read planner runs per layer inside every worker's fetch, between
    // a layer's sampling and its SQE submission.
    "crates/core/src/plan.rs",
    // The hot set is probed once per sampled entry by every worker at once;
    // its lookup must stay lock-free, atomic-free and panic-free.
    "crates/core/src/hotset.rs",
    "crates/io/src/ring.rs",
    "crates/io/src/engine.rs",
    // Observability primitives workers call per batch and per I/O group:
    // recording must stay allocation-free, lock-free and panic-free.
    "crates/ringstat/src/hist.rs",
    // The stage account folds every event a worker records.
    "crates/ringstat/src/stage.rs",
    // The seqlock publish runs once per batch on every worker.
    "crates/ringstat/src/snapshot.rs",
    // The flight recorder records an event per pipeline stage on every
    // worker; its store-only cursors must never grow a lock or RMW.
    "crates/ringstat/src/events.rs",
    // ringprof's samplers: `thread_cpu_nanos` rides every batch, and the
    // epoch-boundary `ResourceSample::now` and `proc_io_now` share the file,
    // each with an `#[expect]` naming its boundary.
    "crates/ringstat/src/resources.rs",
];

/// The raw io_uring ABI: on the I/O path but not hot, and its ABI structs
/// carry `#[allow(missing_docs)]`, so it bans blocking calls only.
pub const SYS: &str = "crates/io/src/sys.rs";
/// The first line of [`SYS`].
pub const SYS_LINE: &str = "#![cfg_attr(not(test), deny(clippy::disallowed_methods))]";

/// Modules speaking a shared-memory ordering protocol: the kernel's SQ/CQ
/// rings and ringstat's single-writer cursors.
pub const ATOMIC_PATH: &[&str] = &[
    "crates/io/src/ring.rs",
    "crates/ringstat/src/snapshot.rs",
    "crates/ringstat/src/events.rs",
];

/// Calls that enter a ring: submit, wait or reap.
pub const RING_ENTRY: &[&str] = &[
    "submit",
    "submit_and_wait",
    "wait_completion",
    "peek_completion",
    "submit_group",
    "complete_group",
    "io_uring_enter",
];

/// One broken invariant, printed `file:line: rule: detail`.
#[derive(Debug, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// `lint-line`, `ring-entry-scope`, `shared-atomic`, `ordering-reason`,
    /// `stale-ordering`, `sort-reason` or `stale-sort`.
    pub rule: &'static str,
    /// What is wrong there.
    pub detail: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: {}: {}",
            self.file, self.line, self.rule, self.detail
        )
    }
}

fn finding(file: &str, line: usize, rule: &'static str, detail: impl Into<String>) -> Finding {
    Finding {
        file: file.to_owned(),
        line,
        rule,
        detail: detail.into(),
    }
}

/// The lines of a source file before its `#[cfg(test)] mod tests`, each
/// split at its first `//`: `(line number, code, comment)`.
fn code_lines(src: &str) -> Vec<(usize, &str, &str)> {
    let live = src.split("\n#[cfg(test)]\nmod tests").next().unwrap_or(src);
    live.lines()
        .enumerate()
        .map(|(i, line)| {
            let (code, comment) = line.split_once("//").unwrap_or((line, ""));
            (i + 1, code, comment)
        })
        .collect()
}

/// True if `code` calls `name(..)`: preceded by no identifier character
/// and not a `fn name(` definition.
fn calls(code: &str, name: &str) -> bool {
    let pat = format!("{name}(");
    code.match_indices(&pat).any(|(at, _)| {
        let before = &code[..at];
        !before.ends_with(|c: char| c.is_alphanumeric() || c == '_')
            && !before.trim_end().ends_with("fn")
    })
}

/// `src` must open with `expected`.
pub fn lint_line(file: &str, src: &str, expected: &str) -> Option<Finding> {
    (src.lines().next() != Some(expected)).then(|| {
        finding(
            file,
            1,
            "lint-line",
            format!("first line is not `{expected}`"),
        )
    })
}

/// The first non-test line of `src` that enters a ring.
pub fn ring_entry(src: &str) -> Option<usize> {
    code_lines(src)
        .into_iter()
        .find(|(_, code, _)| RING_ENTRY.iter().any(|name| calls(code, name)))
        .map(|(n, _, _)| n)
}

/// The non-test lines of `src` that call `name(..)`.
pub fn call_sites(src: &str, name: &str) -> Vec<usize> {
    code_lines(src)
        .into_iter()
        .filter(|(_, code, _)| calls(code, name))
        .map(|(n, _, _)| n)
        .collect()
}

/// Every `Arc<Atomic*>` in the non-test part of `src`: a shared mutable
/// cell smuggled past the lock ban, where hot-path state is per worker.
pub fn shared_atomics(file: &str, src: &str) -> Vec<Finding> {
    code_lines(src)
        .into_iter()
        .filter(|(_, code, _)| {
            code.match_indices("Arc<").any(|(at, _)| {
                let arg = code[at + 4..].split(['<', '>', ',']).next().unwrap_or("");
                arg.rsplit("::")
                    .next()
                    .unwrap_or("")
                    .trim()
                    .starts_with("Atomic")
            })
        })
        .map(|(n, _, _)| finding(file, n, "shared-atomic", "shared `Arc<Atomic*>` cell"))
        .collect()
}

/// True if `code` calls a slice sort: `.sort(`, `.sort_unstable_by_key(`
/// and the rest of the `.sort*(` family.
fn sorts(code: &str) -> bool {
    code.match_indices(".sort").any(|(at, _)| {
        let rest = &code[at + 5..];
        let name = rest
            .find(|c: char| !(c.is_alphanumeric() || c == '_'))
            .unwrap_or(rest.len());
        (name == 0 || rest.starts_with('_')) && rest[name..].starts_with('(')
    })
}

/// Every line of the non-test part of `src` that `needs` picks out must
/// carry a non-empty `// {tag}:` reason, on its line or in the comment
/// lines directly above, and no reason may outlive its line. `subject`
/// names what `needs` picks out; the rule pair names a missing or empty
/// reason's findings, then a stale reason's.
fn reasons(
    file: &str,
    src: &str,
    tag: &str,
    subject: &str,
    needs: impl Fn(&str) -> bool,
    (rule, stale_rule): (&'static str, &'static str),
) -> Vec<Finding> {
    let prefix = format!("{tag}:");
    let stale = |(line, reason): (usize, &str)| {
        finding(
            file,
            line,
            stale_rule,
            format!("`// {tag}: {reason}` explains no {subject}"),
        )
    };
    let mut found = Vec::new();
    let mut pending: Option<(usize, &str)> = None;
    for (n, code, comment) in code_lines(src) {
        let reason = comment
            .trim_start()
            .strip_prefix(prefix.as_str())
            .map(str::trim);
        if code.trim().is_empty() {
            if let Some(reason) = reason {
                found.extend(pending.replace((n, reason)).map(stale));
            }
            continue;
        }
        let above = pending.take();
        match (needs(code), reason.map(|r| (n, r)).or(above)) {
            (true, None) => found.push(finding(
                file,
                n,
                rule,
                format!("{subject} without a `// {tag}:` reason"),
            )),
            (true, Some((line, ""))) => {
                found.push(finding(file, line, rule, format!("empty `// {tag}:` reason")));
            }
            (false, Some(reason)) => found.push(stale(reason)),
            (true, Some(_)) | (false, None) => {}
        }
    }
    found.extend(pending.map(stale));
    found
}

/// std panics on `load(Release)` and `store(Acquire)`; what it allows but
/// the acquire/release protocols do not explain is a `Relaxed` or `SeqCst`
/// access. Each needs a non-empty `// ordering:` reason, on its line or in
/// the comment lines directly above, and no reason may outlive its access.
pub fn weak_orderings(file: &str, src: &str) -> Vec<Finding> {
    reasons(
        file,
        src,
        "ordering",
        "`Relaxed`/`SeqCst` access",
        |code| code.contains("Relaxed") || code.contains("SeqCst"),
        ("ordering-reason", "stale-ordering"),
    )
}

/// A comparison sort is `O(n log n)` in what it sorts, and one over a
/// layer's entries cost the planned fetch more per edge than its submits
/// (EXPERIMENTS.md, "Sort nothing the draw already ordered"). Each
/// `.sort*(` call in a hot-path module needs a non-empty `// sort:` reason
/// saying what bounds it or why it is off the per-edge path, on its line
/// or in the comment lines directly above, and no reason may outlive its
/// sort.
pub fn sort_reasons(file: &str, src: &str) -> Vec<Finding> {
    reasons(
        file,
        src,
        "sort",
        "`.sort*(` call",
        sorts,
        ("sort-reason", "stale-sort"),
    )
}

/// Every check over the workspace at `root`: [`HOT_PATH`] and [`SYS`] open
/// with their lint lines, no hot file shares an atomic cell or sorts
/// without a reason, every `crates/*/src` file that enters a ring is hot,
/// and [`ATOMIC_PATH`] reasons its weak orderings. An unreadable listed
/// file is a `lint-line` finding.
pub fn check_workspace(root: &Path) -> Vec<Finding> {
    let read = |rel: &str| {
        std::fs::read_to_string(root.join(rel))
            .map_err(|e| finding(rel, 1, "lint-line", format!("unreadable: {e}")))
    };
    let mut found = Vec::new();
    for (rel, line) in HOT_PATH
        .iter()
        .map(|rel| (*rel, HOT_LINE))
        .chain([(SYS, SYS_LINE)])
    {
        match read(rel) {
            Ok(src) => {
                found.extend(lint_line(rel, &src, line));
                if line == HOT_LINE {
                    found.extend(shared_atomics(rel, &src));
                    found.extend(sort_reasons(rel, &src));
                }
            }
            Err(unreadable) => found.push(unreadable),
        }
    }
    for rel in crate::crate_sources(root) {
        if HOT_PATH.contains(&rel.as_str()) {
            continue;
        }
        if let Some(n) = read(&rel).ok().and_then(|src| ring_entry(&src)) {
            found.push(finding(
                &rel,
                n,
                "ring-entry-scope",
                "enters a ring outside HOT_PATH",
            ));
        }
    }
    for rel in ATOMIC_PATH {
        match read(rel) {
            Ok(src) => found.extend(weak_orderings(rel, &src)),
            Err(unreadable) => found.push(unreadable),
        }
    }
    found
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules(found: &[Finding]) -> Vec<(usize, &str)> {
        found.iter().map(|f| (f.line, f.rule)).collect()
    }

    #[test]
    fn cfg_test_module_skipped() {
        let src = "let a = Arc::new(1);\n\
                   #[cfg(test)]\nmod tests {\n    let c: Arc<AtomicU64>;\n    \
                   x.load(Ordering::Relaxed);\n    ring.submit();\n}\n";
        assert!(shared_atomics("f.rs", src).is_empty());
        assert!(weak_orderings("f.rs", src).is_empty());
        assert_eq!(ring_entry(src), None);
        let live = src.replace("#[cfg(test)]\n", "");
        assert_eq!(
            rules(&shared_atomics("f.rs", &live)),
            [(3, "shared-atomic")]
        );
        assert_eq!(
            rules(&weak_orderings("f.rs", &live)),
            [(4, "ordering-reason")]
        );
        assert_eq!(ring_entry(&live), Some(5));
    }

    #[test]
    fn arc_atomic_flagged_but_plain_arc_ok() {
        let src = "let a: Arc<AtomicU64>;\n\
                   let b: Arc<std::sync::atomic::AtomicBool>;\n\
                   let c: Arc<Vec<AtomicU64>>;\n\
                   let d: Arc<[u8]>;\n\
                   let e: HashMap<u64, Arc<Snapshot>>;\n";
        let found = shared_atomics("f.rs", src);
        assert_eq!(rules(&found), [(1, "shared-atomic"), (2, "shared-atomic")]);
    }

    #[test]
    fn cmp_ordering_not_confused_with_atomics() {
        let src =
            "match a.cmp(&b) {\n    std::cmp::Ordering::Less => x.load(Ordering::Acquire),\n    \
                   _ => y.store(1, Ordering::Release),\n}\n";
        assert!(weak_orderings("f.rs", src).is_empty());
    }

    #[test]
    fn trailing_allow_on_same_line_works() {
        let src = "let h = head.load(Ordering::Relaxed); // ordering: sole writer is this thread\n\
                   let t = tail.load(Ordering::Relaxed);\n";
        assert_eq!(
            rules(&weak_orderings("f.rs", src)),
            [(2, "ordering-reason")]
        );
    }

    #[test]
    fn only_slice_sort_calls_count_as_sorts() {
        for code in ["v.sort();", "v.sort_unstable_by_key(|&i| i);", "x.sort_by(f)"] {
            assert!(sorts(code), "{code}");
        }
        for code in ["let sorted = v;", "v.sorted()", "fn sort(v: &mut [u8])", "sort_by_runs(&mut o, &e, k);"] {
            assert!(!sorts(code), "{code}");
        }
    }

    #[test]
    fn allow_without_reason_is_flagged() {
        let src = "// ordering:\nx.store(1, Ordering::SeqCst);\n\
                   y.store(1, Ordering::Relaxed); // ordering:   \n";
        let found = weak_orderings("f.rs", src);
        assert_eq!(
            rules(&found),
            [(1, "ordering-reason"), (3, "ordering-reason")]
        );
        assert!(
            found.iter().all(|f| f.detail.contains("empty")),
            "{found:?}"
        );
    }
}
