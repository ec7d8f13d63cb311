//! The six invariant rules, run over the token stream of one file.
//!
//! Each detector works on the
//! lexed tokens (never raw text), so patterns inside string literals and
//! comments can't trigger false positives. `#[cfg(test)] mod .. { .. }`
//! regions are excluded from every rule, and any remaining finding can be
//! exempted at the site with `// ringlint: allow(<rule>) — <reason>`; an
//! allow without a reason is itself a violation, and an allow that no
//! longer suppresses anything is reported as `stale-allow` so exemptions
//! cannot rot silently.

use crate::config;
use crate::diag::Violation;
use crate::lexer::{self, Lexed, Tok, TokKind};

/// Every `unsafe` block / fn / impl must carry a `// SAFETY:` justification
/// (or a `# Safety` doc section for unsafe fns).
pub const RULE_UNSAFE: &str = "unsafe-audit";
/// No locks, channels or shared atomic cells in hot-path modules
/// (paper §3.1: sync-free parallelism).
pub const RULE_SYNC: &str = "sync-free-hot-path";
/// No blocking file I/O on the io_uring submission/completion path
/// (paper Fig. 3b: the async pipeline must never stall in a syscall).
pub const RULE_BLOCKING: &str = "no-blocking-io";
/// No unwrap/expect/panic!/unchecked indexing in hot-path modules.
pub const RULE_PANIC: &str = "panic-free-hot-path";
/// Ring-buffer atomics must follow the kernel's acquire/release protocol.
pub const RULE_ATOMIC: &str = "atomic-ordering";
/// Kernel resource counters (`getrusage`, procfs) may only be sampled at
/// epoch boundaries; the per-batch path is limited to the single
/// `CLOCK_THREAD_CPUTIME_ID` read (`ringstat::thread_cpu_nanos`). Every
/// epoch-boundary site carries a reasoned allow naming its boundary.
pub const RULE_RESOURCE: &str = "resource-discipline";
/// Exemption hygiene (reported, never scoped): a `ringlint: allow(..)`
/// comment that no longer suppresses any finding.
pub const RULE_STALE: &str = "stale-allow";

/// All scoped rules, in reporting order.
pub const ALL_RULES: &[&str] = &[
    RULE_UNSAFE,
    RULE_SYNC,
    RULE_BLOCKING,
    RULE_PANIC,
    RULE_ATOMIC,
    RULE_RESOURCE,
];

/// A parsed `// ringlint: allow(<rule>) — <reason>` comment.
#[derive(Debug)]
struct Allow {
    rule: String,
    line: u32,
    reason: String,
    used: bool,
}

/// Result of linting one file: surviving violations plus how many were
/// suppressed by allow comments.
pub struct FileOutcome {
    /// Violations that survived allow filtering (includes missing-reason
    /// diagnostics for the allows themselves).
    pub violations: Vec<Violation>,
    /// Count of violations suppressed by a well-formed allow.
    pub allowed: usize,
}

/// Lints one file's source, applying only the rules scoped to `rel`.
pub fn lint_source(rel: &str, src: &str) -> FileOutcome {
    let lx = lexer::lex(src);
    let a = Analysis::new(rel, &lx);
    let mut raw: Vec<Violation> = Vec::new();
    for rule in config::rules_for(rel) {
        match rule {
            RULE_UNSAFE => unsafe_audit(&a, &mut raw),
            RULE_SYNC => sync_free(&a, &mut raw),
            RULE_BLOCKING => no_blocking_io(&a, &mut raw),
            RULE_PANIC => panic_free(&a, &mut raw),
            RULE_ATOMIC => atomic_ordering(&a, &mut raw),
            RULE_RESOURCE => resource_discipline(&a, &mut raw),
            _ => {}
        }
    }
    a.apply_allows(rel, raw)
}

/// Shared per-file analysis context: tokens, comments, test-region mask,
/// line → first-token map, and the parsed allow comments.
struct Analysis<'a> {
    rel: &'a str,
    lx: &'a Lexed,
    /// Token indices inside `#[cfg(test)] mod { .. }` regions.
    skip: Vec<bool>,
    /// Line ranges covered by those regions (for stale-allow exemption:
    /// rules never fire there, so allows there can't be proven stale).
    test_ranges: Vec<(u32, u32)>,
    /// 1-based line → index of its first token, if any.
    first_tok_on_line: Vec<Option<usize>>,
    allows: std::cell::RefCell<Vec<Allow>>,
}

impl<'a> Analysis<'a> {
    fn new(rel: &'a str, lx: &'a Lexed) -> Self {
        let toks = &lx.tokens;
        let max_line = toks.iter().map(|t| t.line).max().unwrap_or(0) as usize;
        let mut first_tok_on_line = vec![None; max_line + 2];
        for (i, t) in toks.iter().enumerate() {
            let slot = &mut first_tok_on_line[t.line as usize];
            if slot.is_none() {
                *slot = Some(i);
            }
        }
        let skip = test_region_mask(toks);
        let test_ranges = test_line_ranges(toks, &skip);
        let allows = lx
            .comments
            .iter()
            .filter_map(|c| parse_allow(&c.text).map(|(rule, reason)| Allow {
                rule,
                line: c.line,
                reason,
                used: false,
            }))
            .collect();
        Self {
            rel,
            lx,
            skip,
            test_ranges,
            first_tok_on_line,
            allows: std::cell::RefCell::new(allows),
        }
    }

    fn toks(&self) -> &[Tok] {
        &self.lx.tokens
    }

    fn text(&self, i: usize) -> &str {
        self.lx.tokens.get(i).map_or("", |t| t.text.as_str())
    }

    fn violation(&self, out: &mut Vec<Violation>, rule: &'static str, line: u32, msg: String) {
        out.push(Violation { rule, file: self.rel.to_string(), line, message: msg });
    }

    /// Finds an allow for `rule` covering `line`: either a trailing comment
    /// on the same line, or one in the contiguous comment run directly
    /// above the line. Marks it used and reports whether it had a reason.
    fn find_allow(&self, rule: &str, line: u32) -> Option<bool> {
        let mut allows = self.allows.borrow_mut();
        // Same-line trailing comment.
        if let Some(a) = allows.iter_mut().find(|a| a.rule == rule && a.line == line) {
            a.used = true;
            return Some(!a.reason.is_empty());
        }
        // Comment run directly above: walk up through comment-only lines.
        let mut l = line.saturating_sub(1);
        while l >= 1 {
            let comment_here = self.lx.comments_on_line(l).next().is_some();
            let code_here = self.lx.has_code_on(l);
            if code_here || !comment_here {
                break;
            }
            if let Some(a) = allows.iter_mut().find(|a| a.rule == rule && a.line == l) {
                a.used = true;
                return Some(!a.reason.is_empty());
            }
            l -= 1;
        }
        None
    }

    /// Filters raw violations through the allow comments, adding
    /// missing-reason diagnostics for malformed allows.
    fn apply_allows(&self, rel: &str, raw: Vec<Violation>) -> FileOutcome {
        let mut violations = Vec::new();
        let mut allowed = 0usize;
        for v in raw {
            match self.find_allow(v.rule, v.line) {
                Some(true) => allowed += 1,
                Some(false) => violations.push(Violation {
                    rule: v.rule,
                    file: rel.to_string(),
                    line: v.line,
                    message: format!(
                        "`ringlint: allow({})` requires a reason after the rule name",
                        v.rule
                    ),
                }),
                None => violations.push(v),
            }
        }
        // Exemption hygiene: an allow that suppressed nothing is itself a
        // violation, so exemptions can't outlive the finding they excused.
        // Allows inside `#[cfg(test)] mod` regions are exempt — no rule
        // ever fires there, so "unused" proves nothing.
        for a in self.allows.borrow().iter() {
            if a.used
                || self
                    .test_ranges
                    .iter()
                    .any(|&(s, e)| a.line >= s && a.line <= e)
            {
                continue;
            }
            let why = if a.reason.is_empty() {
                String::new()
            } else {
                format!(" (its reason was: {})", a.reason)
            };
            violations.push(Violation {
                rule: RULE_STALE,
                file: rel.to_string(),
                line: a.line,
                message: format!(
                    "stale `ringlint: allow({})`: no {} finding left to suppress here — remove the exemption{}",
                    a.rule, a.rule, why
                ),
            });
        }
        FileOutcome { violations, allowed }
    }
}

/// Parses `ringlint: allow(rule) — reason` out of one comment, returning
/// the rule name and the (possibly empty) reason text. The directive must
/// lead the comment (only `//`/`/*` markers and whitespace before it):
/// prose that merely *mentions* the syntax is not an exemption.
fn parse_allow(comment: &str) -> Option<(String, String)> {
    let lead = comment
        .trim_start_matches(|c: char| c == '/' || c == '*' || c == '!' || c.is_whitespace());
    if !lead.starts_with("ringlint:") {
        return None;
    }
    let rest = lead["ringlint:".len()..].trim_start();
    let rest = rest.strip_prefix("allow(")?;
    let close = rest.find(')')?;
    let rule = rest[..close].trim().to_string();
    let reason = rest[close + 1..]
        .trim_start_matches(|c: char| c.is_whitespace() || c == '—' || c == '-' || c == ':' || c == '–');
    Some((rule, reason.trim().to_string()))
}

/// Line ranges covered by `#[cfg(test)] mod` token regions.
fn test_line_ranges(toks: &[Tok], skip: &[bool]) -> Vec<(u32, u32)> {
    let mut ranges: Vec<(u32, u32)> = Vec::new();
    let mut cur: Option<(u32, u32)> = None;
    for (i, t) in toks.iter().enumerate() {
        if skip.get(i).copied().unwrap_or(false) {
            cur = match cur {
                None => Some((t.line, t.line)),
                Some((s, _)) => Some((s, t.line)),
            };
        } else if let Some(r) = cur.take() {
            ranges.push(r);
        }
    }
    if let Some(r) = cur {
        ranges.push(r);
    }
    ranges
}

/// Marks token indices inside `#[cfg(test)] mod name { .. }` regions.
pub(crate) fn test_region_mask(toks: &[Tok]) -> Vec<bool> {
    let mut skip = vec![false; toks.len()];
    let mut i = 0usize;
    while i < toks.len() {
        if toks[i].text == "#"
            && toks.get(i + 1).is_some_and(|t| t.text == "[")
            && toks.get(i + 2).is_some_and(|t| t.text == "cfg")
            && toks.get(i + 3).is_some_and(|t| t.text == "(")
        {
            // Scan the cfg(...) attribute for the `test` predicate.
            let mut j = i + 4;
            let mut depth = 1usize;
            let mut has_test = false;
            while j < toks.len() && depth > 0 {
                match toks[j].text.as_str() {
                    "(" => depth += 1,
                    ")" => depth -= 1,
                    "test" => has_test = true,
                    _ => {}
                }
                j += 1;
            }
            // Expect the closing `]` of the attribute.
            if has_test && toks.get(j).is_some_and(|t| t.text == "]") {
                j += 1;
                // Skip any further attributes and visibility qualifiers.
                loop {
                    if toks.get(j).is_some_and(|t| t.text == "#")
                        && toks.get(j + 1).is_some_and(|t| t.text == "[")
                    {
                        let mut depth = 0usize;
                        while j < toks.len() {
                            match toks[j].text.as_str() {
                                "[" => depth += 1,
                                "]" => {
                                    depth -= 1;
                                    if depth == 0 {
                                        j += 1;
                                        break;
                                    }
                                }
                                _ => {}
                            }
                            j += 1;
                        }
                    } else if toks.get(j).is_some_and(|t| t.text == "pub") {
                        j += 1;
                        if toks.get(j).is_some_and(|t| t.text == "(") {
                            while j < toks.len() && toks[j].text != ")" {
                                j += 1;
                            }
                            j += 1;
                        }
                    } else {
                        break;
                    }
                }
                // A test module: skip to the matching close brace.
                if toks.get(j).is_some_and(|t| t.text == "mod") {
                    while j < toks.len() && toks[j].text != "{" && toks[j].text != ";" {
                        j += 1;
                    }
                    if toks.get(j).is_some_and(|t| t.text == "{") {
                        let mut depth = 0usize;
                        let start = i;
                        while j < toks.len() {
                            match toks[j].text.as_str() {
                                "{" => depth += 1,
                                "}" => {
                                    depth -= 1;
                                    if depth == 0 {
                                        break;
                                    }
                                }
                                _ => {}
                            }
                            j += 1;
                        }
                        for s in skip.iter_mut().take((j + 1).min(toks.len())).skip(start) {
                            *s = true;
                        }
                        i = j + 1;
                        continue;
                    }
                }
            }
        }
        i += 1;
    }
    skip
}

// ---------------------------------------------------------------------------
// Rule 1: unsafe-audit
// ---------------------------------------------------------------------------

fn unsafe_audit(a: &Analysis<'_>, out: &mut Vec<Violation>) {
    let toks = a.toks();
    for (i, tok) in toks.iter().enumerate() {
        if a.skip[i] || tok.text != "unsafe" || tok.kind != TokKind::Ident {
            continue;
        }
        // `unsafe fn(..)` / `unsafe extern "C" fn(..)` as *types* (function
        // pointers, trait bounds) carry no body and need no justification.
        if a.text(i + 1) == "fn" && a.text(i + 2) == "(" {
            continue;
        }
        if a.text(i + 1) == "extern" && a.text(i + 3) == "fn" && a.text(i + 4) == "(" {
            continue;
        }
        let kind = match a.text(i + 1) {
            "impl" => "impl",
            "fn" => "fn",
            "trait" => "trait",
            "extern" => "extern block",
            _ => "block",
        };
        if !has_safety_comment(a, tok.line) {
            a.violation(
                out,
                RULE_UNSAFE,
                tok.line,
                format!("unsafe {kind} without a preceding `// SAFETY:` justification"),
            );
        }
    }
}

/// True if `line` (or the contiguous comment/attribute run directly above
/// it) carries a `SAFETY:` comment or a `# Safety` doc section.
fn has_safety_comment(a: &Analysis<'_>, line: u32) -> bool {
    let is_safety = |text: &str| text.contains("SAFETY") || text.contains("# Safety");
    if a.lx.comments_on_line(line).any(|c| is_safety(&c.text)) {
        return true;
    }
    let mut l = line.saturating_sub(1);
    let mut scanned = 0;
    while l >= 1 && scanned < 60 {
        if a.lx.comments_on_line(l).any(|c| is_safety(&c.text)) {
            return true;
        }
        let has_comment = a.lx.comments_on_line(l).next().is_some();
        match a.first_tok_on_line.get(l as usize).copied().flatten() {
            // Attribute lines sit between doc comments and the item.
            Some(idx) if a.text(idx) == "#" => {}
            Some(_) => return false,
            None if !has_comment => return false,
            None => {}
        }
        l -= 1;
        scanned += 1;
    }
    false
}

// ---------------------------------------------------------------------------
// Rule 2: sync-free-hot-path
// ---------------------------------------------------------------------------

fn sync_free(a: &Analysis<'_>, out: &mut Vec<Violation>) {
    let toks = a.toks();
    for i in 0..toks.len() {
        if a.skip[i] || toks[i].kind != TokKind::Ident {
            continue;
        }
        match toks[i].text.as_str() {
            prim @ ("Mutex" | "RwLock" | "Condvar" | "Barrier") => {
                a.violation(
                    out,
                    RULE_SYNC,
                    toks[i].line,
                    format!("synchronization primitive `{prim}` in a hot-path module (paper \u{a7}3.1: workers must be sync-free)"),
                );
            }
            "mpsc" => {
                a.violation(
                    out,
                    RULE_SYNC,
                    toks[i].line,
                    "channel (`mpsc`) in a hot-path module (paper \u{a7}3.1: workers must be sync-free)".to_string(),
                );
            }
            "Arc" if a.text(i + 1) == "<" => {
                // `Arc<AtomicX>` / `Arc<sync::atomic::AtomicX>`: shared
                // mutable cells smuggled past the no-lock rule.
                let mut j = i + 2;
                let mut depth = 1usize;
                while j < toks.len() && depth > 0 && j < i + 16 {
                    match toks[j].text.as_str() {
                        "<" => depth += 1,
                        ">" => depth -= 1,
                        t if depth == 1 && t.starts_with("Atomic") => {
                            a.violation(
                                out,
                                RULE_SYNC,
                                toks[i].line,
                                format!("shared `Arc<{t}>` mutation cell in a hot-path module; give each worker private state instead"),
                            );
                            break;
                        }
                        _ => {}
                    }
                    j += 1;
                }
            }
            _ => {}
        }
    }
}

// ---------------------------------------------------------------------------
// Rule 3: no-blocking-io
// ---------------------------------------------------------------------------

const BLOCKING_METHODS: &[&str] = &[
    "read_at",
    "read_exact_at",
    "read_to_end",
    "read_to_string",
    "read_exact",
    "seek",
    "write_all",
    "write_at",
    "sync_all",
    "sync_data",
    "sleep",
];

fn no_blocking_io(a: &Analysis<'_>, out: &mut Vec<Violation>) {
    let toks = a.toks();
    for i in 0..toks.len() {
        if a.skip[i] {
            continue;
        }
        // `.read_at(..)` style blocking calls.
        if toks[i].text == "."
            && toks.get(i + 1).is_some_and(|t| {
                t.kind == TokKind::Ident && BLOCKING_METHODS.contains(&t.text.as_str())
            })
            && a.text(i + 2) == "("
        {
            let name = &toks[i + 1];
            a.violation(
                out,
                RULE_BLOCKING,
                name.line,
                format!("blocking call `.{}()` on the io_uring submission/completion path (Fig. 3b: use SQE submission instead)", name.text),
            );
        }
        // `fs::read(..)` convenience helpers.
        if toks[i].kind == TokKind::Ident
            && toks[i].text == "fs"
            && a.text(i + 1) == "::"
            && toks.get(i + 2).is_some_and(|t| {
                matches!(t.text.as_str(), "read" | "write" | "read_to_string" | "copy")
            })
        {
            a.violation(
                out,
                RULE_BLOCKING,
                toks[i].line,
                format!("blocking `fs::{}` on the io_uring submission/completion path", a.text(i + 2)),
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Rule 4: panic-free-hot-path
// ---------------------------------------------------------------------------

fn panic_free(a: &Analysis<'_>, out: &mut Vec<Violation>) {
    let toks = a.toks();
    for i in 0..toks.len() {
        if a.skip[i] {
            continue;
        }
        let t = &toks[i];
        // `.unwrap()` / `.expect(..)`.
        if t.text == "."
            && toks
                .get(i + 1)
                .is_some_and(|n| n.text == "unwrap" || n.text == "expect")
            && a.text(i + 2) == "("
        {
            let name = &toks[i + 1];
            a.violation(
                out,
                RULE_PANIC,
                name.line,
                format!("`.{}()` in a hot-path module; propagate an error or document infallibility", name.text),
            );
        }
        // panic-family macros.
        if t.kind == TokKind::Ident
            && matches!(
                t.text.as_str(),
                "panic" | "unreachable" | "todo" | "unimplemented"
            )
            && a.text(i + 1) == "!"
        {
            a.violation(
                out,
                RULE_PANIC,
                t.line,
                format!("`{}!` in a hot-path module; propagate an error instead", t.text),
            );
        }
        // Unchecked scalar indexing `expr[idx]`: an index expression whose
        // bracket directly follows a value (identifier or closing bracket)
        // and contains no top-level range (slicing is a separate pattern).
        if t.text == "[" && i > 0 {
            let prev = &toks[i - 1];
            let is_index_base = (prev.kind == TokKind::Ident
                && !is_keyword_before_bracket(&prev.text))
                || prev.text == ")"
                || prev.text == "]";
            if is_index_base && !a.skip[i - 1] {
                let mut j = i + 1;
                let mut depth = 1usize;
                let mut has_range = false;
                while j < toks.len() && depth > 0 {
                    match toks[j].text.as_str() {
                        "[" => depth += 1,
                        "]" => depth -= 1,
                        ".." | "..=" | "..." if depth == 1 => has_range = true,
                        _ => {}
                    }
                    j += 1;
                }
                if !has_range {
                    a.violation(
                        out,
                        RULE_PANIC,
                        t.line,
                        "unchecked indexing `[..]` in a hot-path module; use `.get()` or document the bound".to_string(),
                    );
                }
            }
        }
    }
}

/// Keywords that can directly precede `[` without forming an index
/// expression (e.g. `return [..]`, `in [..]`).
fn is_keyword_before_bracket(text: &str) -> bool {
    matches!(
        text,
        "return" | "in" | "as" | "else" | "match" | "if" | "while" | "break" | "mut" | "const"
    )
}

// ---------------------------------------------------------------------------
// Rule 5: atomic-ordering
// ---------------------------------------------------------------------------

const ATOMIC_OPS: &[&str] = &[
    "load",
    "store",
    "swap",
    "fetch_add",
    "fetch_sub",
    "fetch_or",
    "fetch_and",
    "fetch_xor",
    "compare_exchange",
    "compare_exchange_weak",
];

fn atomic_ordering(a: &Analysis<'_>, out: &mut Vec<Violation>) {
    let toks = a.toks();
    for i in 0..toks.len() {
        if a.skip[i]
            || toks[i].text != "Ordering"
            || a.text(i + 1) != "::"
            || toks.get(i + 2).is_none()
        {
            continue;
        }
        let ord = a.text(i + 2).to_string();
        let line = toks[i].line;
        // Walk backwards inside the current statement for the atomic op
        // this ordering parameterizes. `Ordering` tokens with no atomic op
        // nearby are `cmp::Ordering` and are skipped.
        let mut op: Option<&str> = None;
        let mut j = i;
        let mut steps = 0;
        while j > 0 && steps < 30 {
            j -= 1;
            steps += 1;
            let tj = toks[j].text.as_str();
            if matches!(tj, ";" | "{" | "}") {
                break;
            }
            if ATOMIC_OPS.contains(&tj) && j > 0 && toks[j - 1].text == "." {
                op = Some(ATOMIC_OPS[ATOMIC_OPS.iter().position(|&o| o == tj).unwrap_or(0)]);
                break;
            }
        }
        let Some(op) = op else { continue };
        match op {
            "load" if ord != "Acquire" => a.violation(
                out,
                RULE_ATOMIC,
                line,
                format!("atomic load of a ring field must be `Ordering::Acquire` (found `{ord}`): kernel-published values need acquire semantics"),
            ),
            "store" if ord != "Release" => a.violation(
                out,
                RULE_ATOMIC,
                line,
                format!("atomic store to a ring field must be `Ordering::Release` (found `{ord}`): tail/head publishes must order prior writes"),
            ),
            "load" | "store" => {}
            _ if ord == "Relaxed" || ord == "SeqCst" => a.violation(
                out,
                RULE_ATOMIC,
                line,
                format!("`Ordering::{ord}` on atomic `{op}` of a ring field; the SQ/CQ protocol requires acquire/release discipline"),
            ),
            _ => {}
        }
    }
}

// ---------------------------------------------------------------------------
// Rule 6: resource-discipline
// ---------------------------------------------------------------------------

/// Flags kernel resource-counter reads in hot-path modules: `getrusage`
/// and `/proc/self/io` (via `proc_io_now` or `ResourceSample::now`) are
/// epoch-boundary operations — two syscalls and a procfs parse — and
/// must never ride the per-batch loop, which is limited to the single
/// `CLOCK_THREAD_CPUTIME_ID` read (`thread_cpu_nanos`, not flagged).
/// Legitimate epoch-boundary sites carry a reasoned allow naming the
/// boundary they run on.
fn resource_discipline(a: &Analysis<'_>, out: &mut Vec<Violation>) {
    let toks = a.toks();
    for (i, tok) in toks.iter().enumerate() {
        if a.skip[i] || tok.kind != TokKind::Ident {
            continue;
        }
        // Definitions (`pub fn proc_io_now(..)`) are not call sites.
        if i > 0 && a.text(i - 1) == "fn" {
            continue;
        }
        match tok.text.as_str() {
            name @ ("getrusage" | "proc_io_now") if a.text(i + 1) == "(" => {
                a.violation(
                    out,
                    RULE_RESOURCE,
                    tok.line,
                    format!(
                        "kernel resource read `{name}()` in a hot-path module; per-batch code may only read CLOCK_THREAD_CPUTIME_ID (`thread_cpu_nanos`) — sample rusage/procfs at epoch boundaries and name the boundary in an allow"
                    ),
                );
            }
            "ResourceSample" if a.text(i + 1) == "::" && a.text(i + 2) == "now" => {
                a.violation(
                    out,
                    RULE_RESOURCE,
                    tok.line,
                    "`ResourceSample::now()` (getrusage + procfs) in a hot-path module; per-batch code may only read CLOCK_THREAD_CPUTIME_ID (`thread_cpu_nanos`) — sample at epoch boundaries and name the boundary in an allow".to_string(),
                );
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint_at(rel: &str, src: &str) -> Vec<Violation> {
        lint_source(rel, src).violations
    }

    const HOT: &str = "crates/core/src/worker.rs";
    const RING: &str = "crates/io/src/ring.rs";

    #[test]
    fn unsafe_without_safety_flagged() {
        let v = lint_at("crates/x/src/a.rs", "fn f() { unsafe { g(); } }");
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, RULE_UNSAFE);
    }

    #[test]
    fn unsafe_with_safety_ok() {
        let src = "fn f() {\n    // SAFETY: g has no preconditions here\n    unsafe { g(); }\n}";
        assert!(lint_at("crates/x/src/a.rs", src).is_empty());
    }

    #[test]
    fn unsafe_fn_with_doc_safety_section_ok() {
        let src = "/// Does a thing.\n///\n/// # Safety\n/// Caller must uphold X.\n#[inline]\npub unsafe fn f() {}";
        assert!(lint_at("crates/x/src/a.rs", src).is_empty());
    }

    #[test]
    fn unsafe_fn_pointer_type_ignored() {
        let src = "type F = unsafe fn(i32) -> i32;";
        assert!(lint_at("crates/x/src/a.rs", src).is_empty());
    }

    #[test]
    fn cfg_test_module_skipped() {
        let src = "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { let x: Option<u8> = None; x.unwrap(); unsafe { g(); } }\n}";
        assert!(lint_at(HOT, src).is_empty());
    }

    #[test]
    fn mutex_in_hot_path_flagged_only_in_scope() {
        let src = "use std::sync::Mutex;\n";
        assert_eq!(lint_at(HOT, src).len(), 1);
        assert!(lint_at("crates/graph/src/lib.rs", src).is_empty());
    }

    #[test]
    fn arc_atomic_flagged_but_plain_arc_ok() {
        assert_eq!(lint_at(HOT, "fn f(x: Arc<AtomicU64>) {}").len(), 1);
        assert!(lint_at(HOT, "fn f(g: Arc<CsrGraph>) {}").is_empty());
    }

    #[test]
    fn unwrap_and_indexing_flagged_in_hot_path() {
        let v = lint_at(HOT, "fn f(v: &[u8], i: usize) -> u8 { let x = v.first().unwrap(); v[i] }");
        assert_eq!(v.len(), 2);
        assert!(v.iter().all(|v| v.rule == RULE_PANIC));
    }

    #[test]
    fn slicing_not_flagged_as_indexing() {
        assert!(lint_at(HOT, "fn f(v: &[u8]) -> &[u8] { &v[1..3] }").is_empty());
        assert!(lint_at(HOT, "fn f(v: &[u8]) -> &[u8] { &v[..] }").is_empty());
    }

    #[test]
    fn array_literals_and_attrs_not_indexing() {
        let src = "#[derive(Debug)]\nstruct S;\nfn f() -> [u8; 2] { [1, 2] }";
        assert!(lint_at(HOT, src).is_empty());
    }

    #[test]
    fn blocking_read_flagged_on_io_path() {
        let src = "fn f(file: &File, buf: &mut [u8]) { file.read_at(buf, 0); }";
        let v = lint_at(RING, src);
        assert!(v.iter().any(|v| v.rule == RULE_BLOCKING));
        // mmap.rs is the sanctioned synchronous fallback.
        assert!(lint_at("crates/io/src/mmap.rs", src)
            .iter()
            .all(|v| v.rule != RULE_BLOCKING));
    }

    #[test]
    fn atomic_load_must_be_acquire() {
        let src = "fn f(p: *const AtomicU32) { let _ = unsafe { (*p).load(Ordering::Relaxed) }; }";
        let v = lint_at(RING, src);
        assert!(v.iter().any(|v| v.rule == RULE_ATOMIC));
    }

    #[test]
    fn atomic_store_must_be_release() {
        let good = "// SAFETY: p valid\nfn f(p: *const AtomicU32) { unsafe { (*p).store(1, Ordering::Release) } }";
        assert!(lint_at(RING, good)
            .iter()
            .all(|v| v.rule != RULE_ATOMIC));
        let bad = "// SAFETY: p valid\nfn f(p: *const AtomicU32) { unsafe { (*p).store(1, Ordering::SeqCst) } }";
        assert!(lint_at(RING, bad).iter().any(|v| v.rule == RULE_ATOMIC));
    }

    #[test]
    fn cmp_ordering_not_confused_with_atomics() {
        let src = "fn f(a: u32, b: u32) -> Ordering { a.cmp(&b).then(Ordering::Equal) }";
        assert!(lint_at(RING, src).is_empty());
    }

    #[test]
    fn allow_with_reason_suppresses() {
        let src = "fn f(v: &[u8]) -> u8 {\n    // ringlint: allow(panic-free-hot-path) — index bounded by loop\n    v[0]\n}";
        let o = lint_source(HOT, src);
        assert!(o.violations.is_empty());
        assert_eq!(o.allowed, 1);
    }

    #[test]
    fn allow_without_reason_is_flagged() {
        let src = "fn f(v: &[u8]) -> u8 {\n    // ringlint: allow(panic-free-hot-path)\n    v[0]\n}";
        let o = lint_source(HOT, src);
        assert_eq!(o.violations.len(), 1);
        assert!(o.violations[0].message.contains("requires a reason"));
    }

    #[test]
    fn trailing_allow_on_same_line_works() {
        let src = "fn f(v: &[u8]) -> u8 { v[0] } // ringlint: allow(panic-free-hot-path) — fixture";
        let o = lint_source(HOT, src);
        assert!(o.violations.is_empty());
        assert_eq!(o.allowed, 1);
    }

    #[test]
    fn patterns_inside_strings_ignored() {
        let src = "fn f() -> &'static str { \"Mutex .unwrap() fs::read\" }";
        assert!(lint_at(HOT, src).is_empty());
    }

    #[test]
    fn resource_reads_flagged_in_hot_path_only() {
        for src in [
            "fn f() { let s = ResourceSample::now(); }",
            "fn f() { let (rb, rc) = proc_io_now(); }",
            "fn f(ru: &mut rusage) { unsafe { getrusage(RUSAGE_THREAD, ru) }; }",
        ] {
            let v = lint_at(HOT, src);
            assert!(
                v.iter().any(|v| v.rule == RULE_RESOURCE),
                "{src} not flagged: {v:?}"
            );
            // Cold modules may sample freely (epoch drivers, tests, tools).
            assert!(lint_at("crates/bench/src/lib.rs", src)
                .iter()
                .all(|v| v.rule != RULE_RESOURCE));
        }
    }

    #[test]
    fn thread_cpu_clock_read_is_sanctioned() {
        // The one per-batch read: a single CLOCK_THREAD_CPUTIME_ID
        // clock_gettime, wrapped as thread_cpu_nanos. Never flagged.
        let src = "fn f() -> u64 { thread_cpu_nanos() }";
        assert!(lint_at(HOT, src).is_empty());
    }

    #[test]
    fn resource_definitions_are_not_call_sites() {
        let src = "pub fn proc_io_now() -> (u64, u64) { (0, 0) }";
        assert!(lint_at(HOT, src).is_empty());
    }

    #[test]
    fn resource_allow_with_boundary_reason_suppresses() {
        let src = "fn begin_epoch() {\n    // ringlint: allow(resource-discipline) — epoch boundary: runs once before the batch loop\n    let s = ResourceSample::now();\n}";
        let o = lint_source(HOT, src);
        assert!(o.violations.is_empty(), "{:?}", o.violations);
        assert_eq!(o.allowed, 1);
    }
}
