//! Intra-function dataflow for the io_uring buffer-loan lifecycle.
//!
//! A *loan* opens when a binding's pointer or slice flows into an SQE
//! preparation call (`prepare_read*`) or a raw `io_uring_register` and
//! closes when a reap call (`wait_completion`, `complete_group`,
//! `pump_one`) runs — or when the binding's ownership escapes the function
//! (moved into a struct literal, a call argument, or a field). Between open
//! and close the kernel may read or write through the raw pointer, so the
//! binding must not be dropped, reassigned, truncated, reallocated, or
//! mutably re-borrowed.
//! The Rust borrow checker cannot see this: the pointer crossed a raw
//! syscall boundary.
//!
//! Two loan flavors, with different obligations:
//!
//! * **local** — a `let`-bound buffer. Full lifecycle: mutation, `drop`,
//!   reassignment and `&mut` re-borrow while lent are violations, and so
//!   is reaching the end of the binding's scope with the loan open
//!   (drop-before-reap).
//! * **param** — a function parameter. The caller owns the buffer, so no
//!   scope-end obligation, but mutating or reassigning it while lent is
//!   still flagged.
//!
//! Path sensitivity: `if`/`else` chains and `match` arms are analyzed with
//! cloned state and merged — a loan counts as closed only if every branch
//! closes it. Loop bodies are analyzed linearly once. Expression-position
//! conditionals (`let x = if c { .. } else { .. };`) are flattened and
//! analyzed as straight-line code; closures are analyzed at their
//! definition site as if they ran immediately. See DESIGN.md §11 for the
//! full model and its limits.

use std::collections::{HashMap, HashSet};

use crate::lexer::{Tok, TokKind};
use crate::parse::{self, Delim, Group, Parsed, Tree};
use crate::rules::{RULE_LOAN, RULE_LOCK_SUBMIT, RULE_SWALLOWED};

/// One dataflow finding, before allow filtering.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    pub rule: &'static str,
    pub line: u32,
    pub message: String,
}

/// Calls that lend a buffer to the kernel: any binding whose pointer
/// appears in the argument list opens (or re-opens) a loan.
const OPEN_CALLS: &[&str] = &[
    "prepare_read",
    "prepare_read_fixed",
    "io_uring_register",
];

/// Calls that reap completions: every open loan in scope closes, because
/// the kernel is done with the memory.
const CLOSE_CALLS: &[&str] = &["wait_completion", "complete_group", "pump_one"];

/// Calls that enter the ring: no lock guard may be live across them
/// (a blocked submitter would hold the lock across a syscall).
const SUBMIT_CALLS: &[&str] = &[
    "submit",
    "submit_and_wait",
    "wait_completion",
    "peek_completion",
    "submit_group",
    "complete_group",
    "io_uring_enter",
    "read_group_blocking",
];

/// Fallible ring operations whose `Result` must not be discarded with
/// `let _ =` or `.ok()`.
const RING_FALLIBLE: &[&str] = &[
    "submit",
    "submit_and_wait",
    "wait_completion",
    "submit_group",
    "complete_group",
    "register_file",
    "register_files",
    "prepare_read",
    "prepare_read_fixed",
    "prepare_nop",
    "io_uring_enter",
    "io_uring_setup",
    "io_uring_register",
    "pump_one",
];

/// Methods that move, shrink or reallocate a buffer's storage — fatal
/// while the kernel holds its pointer.
const MUT_METHODS: &[&str] = &[
    "clear",
    "resize",
    "truncate",
    "push",
    "pop",
    "extend",
    "extend_from_slice",
    "reserve",
    "reserve_exact",
    "shrink_to_fit",
    "shrink_to",
    "set_len",
    "drain",
    "insert",
    "remove",
    "append",
    "split_off",
];

/// Methods whose receiver becomes a pointer source: `let p = buf.as_ptr()`
/// taints `p` with source `buf`, so lending `p` lends `buf`.
const PTR_SOURCES: &[&str] = &[
    "as_ptr",
    "as_mut_ptr",
    "iter",
    "iter_mut",
    "as_slice",
    "as_mut_slice",
];

/// Keywords that look like identifiers but never name a binding.
const KEYWORDS: &[&str] = &[
    "let", "mut", "ref", "if", "else", "match", "while", "for", "loop", "in", "fn", "return",
    "break", "continue", "as", "move", "unsafe", "pub", "use", "self", "Self", "super", "crate",
    "where", "impl", "trait", "struct", "enum", "mod", "const", "static", "type", "dyn", "true",
    "false", "box",
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LoanKind {
    Local,
    Param,
}

/// One open (or closed) loan: a set of binding names that all refer to the
/// lent allocation (the buffer itself, base pointers).
#[derive(Debug, Clone)]
struct Loan {
    id: usize,
    kind: LoanKind,
    names: Vec<String>,
    /// Line of the opening event (the prepare call).
    line: u32,
    /// Scope depth of the binding's declaration (drop-before-reap fires
    /// when this scope ends with the loan open). 0 for params.
    scope: usize,
    lent: bool,
    closed: bool,
    reported: bool,
}

/// A lock guard binding: live from its `let g = x.lock()..` until
/// `drop(g)` or scope end.
#[derive(Debug, Clone)]
struct Guard {
    name: String,
    line: u32,
    scope: usize,
    dropped: bool,
    reported: bool,
}

/// Per-path analysis state, cloned at branches and merged after.
#[derive(Debug, Default, Clone)]
struct State {
    loans: Vec<Loan>,
    guards: Vec<Guard>,
    /// Taint: binding -> bindings whose storage its value points into.
    sources: HashMap<String, Vec<String>>,
    /// `let`-bound names -> declaration scope depth.
    decl_scope: HashMap<String, usize>,
    params: HashSet<String>,
}

struct Ctx<'a> {
    toks: &'a [Tok],
    out: Vec<Finding>,
    next_id: usize,
}

/// Runs the loan-lifecycle, lock-across-submit and swallowed-error
/// analyses over every function in a parsed file. `skip` masks tokens
/// inside `#[cfg(test)] mod` regions (same mask the token rules use).
pub fn analyze_file(toks: &[Tok], parsed: &Parsed, skip: &[bool]) -> Vec<Finding> {
    let mut ctx = Ctx {
        toks,
        out: Vec::new(),
        next_id: 0,
    };
    for f in parse::functions(parsed, toks) {
        if skip.get(f.body.open).copied().unwrap_or(false) {
            continue; // test-only code is not the lint's business
        }
        let mut st = State::default();
        collect_params(f.args, toks, &mut st);
        ctx.analyze_block(&f.body.children, &mut st, 1);
        ctx.end_scope(&mut st, 1);
    }
    ctx.out
        .sort_by(|a, b| (a.line, a.rule, &a.message).cmp(&(b.line, b.rule, &b.message)));
    ctx.out.dedup();
    ctx.out
}

/// Registers `name: Type` parameters (and `self`) from the arg list.
fn collect_params(args: &Group, toks: &[Tok], st: &mut State) {
    let mut flat = Vec::new();
    for t in &args.children {
        flatten_tree(t, &mut flat);
    }
    for (k, &ti) in flat.iter().enumerate() {
        let t = &toks[ti];
        if t.kind != TokKind::Ident {
            continue;
        }
        if t.text == "self" {
            st.params.insert("self".to_string());
            continue;
        }
        // A binding name is an ident directly followed by `:` (not `::`).
        if flat
            .get(k + 1)
            .is_some_and(|&n| toks[n].text == ":")
            && !KEYWORDS.contains(&t.text.as_str())
        {
            st.params.insert(t.text.clone());
        }
    }
}

fn flatten_tree(tree: &Tree, out: &mut Vec<usize>) {
    match tree {
        Tree::Leaf(i) => out.push(*i),
        Tree::Group(g) => {
            out.push(g.open);
            for c in &g.children {
                flatten_tree(c, out);
            }
            if let Some(c) = g.close {
                out.push(c);
            }
        }
    }
}

fn leaf_text<'t>(tree: &Tree, toks: &'t [Tok]) -> Option<&'t str> {
    match tree {
        Tree::Leaf(i) => Some(toks[*i].text.as_str()),
        Tree::Group(_) => None,
    }
}

impl<'a> Ctx<'a> {
    fn text_at(&self, seq: &[usize], k: usize) -> &str {
        seq.get(k).map_or("", |&i| self.toks[i].text.as_str())
    }

    fn is_ident(&self, seq: &[usize], k: usize) -> bool {
        seq.get(k)
            .is_some_and(|&i| self.toks[i].kind == TokKind::Ident)
    }

    fn line_at(&self, seq: &[usize], k: usize) -> u32 {
        seq.get(k).map_or(0, |&i| self.toks[i].line)
    }

    fn finding(&mut self, rule: &'static str, line: u32, message: String) {
        self.out.push(Finding {
            rule,
            line,
            message,
        });
    }

    // -- statement splitting ------------------------------------------------

    fn analyze_block(&mut self, trees: &[Tree], st: &mut State, depth: usize) {
        let mut i = 0usize;
        while i < trees.len() {
            if leaf_text(&trees[i], self.toks) == Some(";") {
                i += 1;
                continue;
            }
            i = self.analyze_stmt(trees, i, st, depth);
        }
    }

    /// Analyzes one statement starting at `trees[start]`; returns the index
    /// just past it.
    fn analyze_stmt(
        &mut self,
        trees: &[Tree],
        start: usize,
        st: &mut State,
        depth: usize,
    ) -> usize {
        // Skip leading attributes (`#[..]`) and loop labels (`'a:`).
        let mut j = start;
        while j < trees.len() {
            let is_attr = leaf_text(&trees[j], self.toks) == Some("#")
                && matches!(trees.get(j + 1), Some(Tree::Group(g)) if g.delim == Delim::Bracket);
            if is_attr {
                j += 2;
                continue;
            }
            let is_label = matches!(&trees[j], Tree::Leaf(i) if self.toks[*i].kind == TokKind::Lifetime)
                && trees.get(j + 1).and_then(|t| leaf_text(t, self.toks)) == Some(":");
            if is_label && j + 2 < trees.len() {
                j += 2;
                continue;
            }
            break;
        }
        if j >= trees.len() {
            return trees.len();
        }

        match &trees[j] {
            Tree::Group(g) if g.delim == Delim::Brace => {
                // Bare block statement.
                self.analyze_block(&g.children, st, depth + 1);
                self.end_scope(st, depth + 1);
                j + 1
            }
            Tree::Leaf(ti) => match self.toks[*ti].text.as_str() {
                "if" => self.analyze_if(trees, j, st, depth),
                "match" => self.analyze_match(trees, j, st, depth),
                "for" | "while" | "loop" => self.analyze_loop(trees, j, st, depth),
                "unsafe"
                    if matches!(trees.get(j + 1), Some(Tree::Group(g)) if g.delim == Delim::Brace) =>
                {
                    if let Some(Tree::Group(g)) = trees.get(j + 1) {
                        self.analyze_block(&g.children, st, depth + 1);
                        self.end_scope(st, depth + 1);
                    }
                    j + 2
                }
                // Nested items: the function finder already analyzes nested
                // fn bodies separately; skip the whole item here.
                "fn" | "struct" | "enum" | "impl" | "trait" | "mod" => {
                    let mut k = j + 1;
                    while k < trees.len() {
                        match &trees[k] {
                            Tree::Group(g) if g.delim == Delim::Brace => return k + 1,
                            t if leaf_text(t, self.toks) == Some(";") => return k + 1,
                            _ => k += 1,
                        }
                    }
                    trees.len()
                }
                _ => self.analyze_plain(trees, j, st, depth),
            },
            _ => self.analyze_plain(trees, j, st, depth),
        }
    }

    /// A plain statement: everything up to the next top-level `;` (or end
    /// of block), flattened and scanned linearly.
    fn analyze_plain(
        &mut self,
        trees: &[Tree],
        start: usize,
        st: &mut State,
        depth: usize,
    ) -> usize {
        let mut seq = Vec::new();
        let mut k = start;
        while k < trees.len() {
            if leaf_text(&trees[k], self.toks) == Some(";") {
                k += 1;
                break;
            }
            flatten_tree(&trees[k], &mut seq);
            k += 1;
        }
        self.linear(&seq, st, depth);
        k
    }

    /// `if cond { .. } else if cond { .. } else { .. }` — cond processed in
    /// the parent state, each branch in a clone, merged after.
    fn analyze_if(&mut self, trees: &[Tree], start: usize, st: &mut State, depth: usize) -> usize {
        let mut head: Vec<usize> = Vec::new();
        let mut branches: Vec<&Group> = Vec::new();
        let mut has_final_else = false;
        let mut k = start;
        loop {
            // Scan to the next top-level brace, flattening the condition.
            let mut found: Option<&Group> = None;
            while k < trees.len() {
                match &trees[k] {
                    Tree::Group(g) if g.delim == Delim::Brace => {
                        found = Some(g);
                        k += 1;
                        break;
                    }
                    t => {
                        flatten_tree(t, &mut head);
                        k += 1;
                    }
                }
            }
            match found {
                Some(g) => branches.push(g),
                None => break, // malformed; analyze what we have
            }
            if k < trees.len() && leaf_text(&trees[k], self.toks) == Some("else") {
                if matches!(trees.get(k + 1), Some(Tree::Group(g)) if g.delim == Delim::Brace) {
                    has_final_else = true;
                }
                k += 1;
                continue;
            }
            break;
        }
        // Bindings from `if let ..` conditions are statement-scoped.
        self.linear(&head, st, depth + 1);
        self.run_branches(
            branches
                .iter()
                .map(|g| BranchBody::Block(&g.children))
                .collect(),
            !has_final_else,
            st,
            depth,
        );
        k
    }

    /// `match scrutinee { pat => body, .. }` — each arm is a branch.
    fn analyze_match(
        &mut self,
        trees: &[Tree],
        start: usize,
        st: &mut State,
        depth: usize,
    ) -> usize {
        let mut head: Vec<usize> = Vec::new();
        let mut body: Option<&Group> = None;
        let mut k = start;
        while k < trees.len() {
            match &trees[k] {
                Tree::Group(g) if g.delim == Delim::Brace => {
                    body = Some(g);
                    k += 1;
                    break;
                }
                t => {
                    flatten_tree(t, &mut head);
                    k += 1;
                }
            }
        }
        self.linear(&head, st, depth);
        let Some(body) = body else { return k };
        // Split arms at top-level commas.
        let mut arms: Vec<&[Tree]> = Vec::new();
        let mut arm_start = 0usize;
        for (i, t) in body.children.iter().enumerate() {
            if leaf_text(t, self.toks) == Some(",") {
                if i > arm_start {
                    arms.push(&body.children[arm_start..i]);
                }
                arm_start = i + 1;
            }
        }
        if arm_start < body.children.len() {
            arms.push(&body.children[arm_start..]);
        }
        if !arms.is_empty() {
            self.run_branches(
                arms.into_iter().map(BranchBody::Arm).collect(),
                false, // match is exhaustive: no implicit fall-through path
                st,
                depth,
            );
        }
        k
    }

    /// `for`/`while`/`loop` — the body is analyzed linearly once, in place.
    fn analyze_loop(
        &mut self,
        trees: &[Tree],
        start: usize,
        st: &mut State,
        depth: usize,
    ) -> usize {
        let mut head: Vec<usize> = Vec::new();
        let mut k = start;
        while k < trees.len() {
            match &trees[k] {
                Tree::Group(g) if g.delim == Delim::Brace => {
                    self.linear(&head, st, depth + 1);
                    self.analyze_block(&g.children, st, depth + 1);
                    self.end_scope(st, depth + 1);
                    return k + 1;
                }
                t => {
                    flatten_tree(t, &mut head);
                    k += 1;
                }
            }
        }
        self.linear(&head, st, depth);
        k
    }

    /// Runs each branch body on a clone of `st` and merges the results:
    /// closed only if closed on every path, lent if on any path.
    fn run_branches(
        &mut self,
        bodies: Vec<BranchBody<'_>>,
        implicit_fallthrough: bool,
        st: &mut State,
        depth: usize,
    ) {
        let mut outs: Vec<State> = Vec::new();
        for body in bodies {
            let mut b = st.clone();
            match body {
                BranchBody::Block(children) => {
                    self.analyze_block(children, &mut b, depth + 1);
                }
                BranchBody::Arm(arm) => {
                    // `pat [if guard] => body` — process the pattern/guard
                    // linearly, then the body as a block.
                    let arrow = arm.windows(2).position(|w| {
                        leaf_text(&w[0], self.toks) == Some("=")
                            && leaf_text(&w[1], self.toks) == Some(">")
                    });
                    match arrow {
                        Some(p) => {
                            let mut pat = Vec::new();
                            for t in &arm[..p] {
                                flatten_tree(t, &mut pat);
                            }
                            self.linear(&pat, &mut b, depth + 1);
                            self.analyze_block(&arm[p + 2..], &mut b, depth + 1);
                        }
                        None => {
                            self.analyze_block(arm, &mut b, depth + 1);
                        }
                    }
                }
            }
            self.end_scope(&mut b, depth + 1);
            outs.push(b);
        }
        if implicit_fallthrough {
            outs.push(st.clone());
        }
        merge(st, outs);
        self.end_scope(st, depth + 1); // condition-scoped bindings die here
    }

    // -- linear event scan --------------------------------------------------

    /// The core pass: one statement's tokens, scanned left to right.
    fn linear(&mut self, seq: &[usize], st: &mut State, depth: usize) {
        if seq.is_empty() {
            return;
        }
        self.register_lets(seq, st, depth);
        self.check_swallowed_let(seq, st);

        let mut saw_lock_line: Option<u32> = None;
        let mut i = 0usize;
        while i < seq.len() {
            let t = self.text_at(seq, i).to_string();
            let t = t.as_str();

            // drop(x): closes a guard or reports drop-while-lent.
            if t == "drop"
                && self.text_at(seq, i + 1) == "("
                && self.is_ident(seq, i + 2)
                && self.text_at(seq, i + 3) == ")"
            {
                let name = self.text_at(seq, i + 2).to_string();
                let line = self.line_at(seq, i);
                if let Some(g) = st.guards.iter_mut().find(|g| g.name == name) {
                    g.dropped = true;
                }
                let mut msg: Option<(u32, String)> = None;
                if let Some(l) = st
                    .loans
                    .iter_mut()
                    .find(|l| l.names.iter().any(|n| n == &name))
                {
                    if l.lent && !l.closed && !l.reported {
                        msg = Some((
                            line,
                            format!(
                                "`{name}` is dropped while its buffer is lent to the ring \
                                 (loan opened at line {}); reap the completion first",
                                l.line
                            ),
                        ));
                        l.reported = true;
                    }
                    l.closed = true;
                    l.lent = false;
                }
                if let Some((line, m)) = msg {
                    self.finding(RULE_LOAN, line, m);
                }
                i += 4;
                continue;
            }

            // `.lock(` — a guard temporary or the RHS of a guard binding.
            if t == "." && self.text_at(seq, i + 1) == "lock" && self.text_at(seq, i + 2) == "(" {
                saw_lock_line = Some(self.line_at(seq, i + 1));
            }

            let is_call = self.is_ident(seq, i) && self.text_at(seq, i + 1) == "(";

            if is_call && OPEN_CALLS.contains(&t) {
                let close = self.match_paren(seq, i + 1);
                let name = t.to_string();
                self.open_loans(seq, i, close, &name, st, depth);
            }

            if is_call && CLOSE_CALLS.contains(&t) {
                for l in st.loans.iter_mut() {
                    l.closed = true;
                    l.lent = false;
                }
            }

            if is_call && SUBMIT_CALLS.contains(&t) {
                let line = self.line_at(seq, i);
                let tname = t.to_string();
                let mut msgs = Vec::new();
                for g in st.guards.iter_mut().filter(|g| !g.dropped && !g.reported) {
                    msgs.push(format!(
                        "lock guard `{}` (acquired at line {}) is live across `{}`; \
                         release it before entering the ring",
                        g.name, g.line, tname
                    ));
                    g.reported = true;
                }
                for m in msgs {
                    self.finding(RULE_LOCK_SUBMIT, line, m);
                }
                if let Some(lock_line) = saw_lock_line.take() {
                    self.finding(
                        RULE_LOCK_SUBMIT,
                        line,
                        format!(
                            "lock acquired at line {lock_line} is held across `{tname}` in \
                             the same statement; split the statement so the guard drops first"
                        ),
                    );
                }
            }

            // `ring_op(..).ok()` — swallowed ring error.
            if is_call && RING_FALLIBLE.contains(&t) {
                let close = self.match_paren(seq, i + 1);
                if self.text_at(seq, close + 1) == "."
                    && self.text_at(seq, close + 2) == "ok"
                    && self.text_at(seq, close + 3) == "("
                    && self.text_at(seq, close + 4) == ")"
                {
                    let line = self.line_at(seq, i);
                    self.finding(
                        RULE_SWALLOWED,
                        line,
                        format!("`{t}(..).ok()` discards a ring error; handle or propagate it"),
                    );
                }
            }

            // Binding uses: violations and escapes for loaned names.
            if self.is_ident(seq, i) && !KEYWORDS.contains(&t) {
                let prev = if i > 0 { self.text_at(seq, i - 1) } else { "" };
                if prev != "." && prev != "::" {
                    self.check_binding_use(seq, i, st);
                }
            }

            i += 1;
        }
    }

    /// Handles one occurrence of an ident that may name a loaned binding.
    fn check_binding_use(&mut self, seq: &[usize], i: usize, st: &mut State) {
        let name = self.text_at(seq, i).to_string();
        let line = self.line_at(seq, i);
        let next = self.text_at(seq, i + 1);
        let prev = if i > 0 { self.text_at(seq, i - 1) } else { "" };
        let prev2 = if i > 1 { self.text_at(seq, i - 2) } else { "" };

        let mut msg: Option<String> = None;
        let Some(l) = st
            .loans
            .iter_mut()
            .find(|l| l.names.iter().any(|n| n == &name))
        else {
            return;
        };

        if l.lent && !l.closed {
            // `buf.clear()` / `buf.resize(..)` etc. while lent.
            if next == "."
                && MUT_METHODS.contains(&self.text_at(seq, i + 2))
                && self.text_at(seq, i + 3) == "("
            {
                if !l.reported {
                    l.reported = true;
                    msg = Some(format!(
                        "`{name}.{}()` mutates a buffer lent to the ring (loan opened at \
                         line {}); reap the completion first",
                        self.text_at(seq, i + 2),
                        l.line
                    ));
                }
            // `buf = ..` reassignment while lent (plain `=`, not `==`/`=>`).
            } else if next == "="
                && self.text_at(seq, i + 2) != "="
                && self.text_at(seq, i + 2) != ">"
                && !matches!(prev, "=" | "!" | "<" | ">")
            {
                if !l.reported {
                    l.reported = true;
                    msg = Some(format!(
                        "`{name}` is reassigned while its buffer is lent to the ring \
                         (loan opened at line {}); the old allocation would drop mid-flight",
                        l.line
                    ));
                }
            // `&mut buf` re-borrow while lent.
            } else if prev == "mut" && prev2 == "&" {
                if !l.reported {
                    l.reported = true;
                    msg = Some(format!(
                        "`&mut {name}` re-borrows a buffer lent to the ring (loan opened \
                         at line {}); reap the completion first",
                        l.line
                    ));
                }
            // Bare move into a struct literal, call or assignment RHS:
            // ownership escapes, so someone else keeps the buffer alive.
            } else if matches!(prev, "(" | "," | "{" | "=")
                && matches!(next, "," | ")" | "}" | ";" | "")
            {
                l.closed = true;
                l.lent = false;
            }
        }
        if let Some(m) = msg {
            self.finding(RULE_LOAN, line, m);
        }
    }

    /// Index of the `)` matching the `(` at `seq[open]` (flat depth count);
    /// `seq.len()` if unmatched.
    fn match_paren(&self, seq: &[usize], open: usize) -> usize {
        let mut depth = 0usize;
        let mut k = open;
        while k < seq.len() {
            match self.text_at(seq, k) {
                "(" => depth += 1,
                ")" => {
                    depth = depth.saturating_sub(1);
                    if depth == 0 {
                        return k;
                    }
                }
                _ => {}
            }
            k += 1;
        }
        seq.len()
    }

    /// Opens loans for every buffer whose pointer appears in the argument
    /// list of an OPEN_CALL at `seq[call]` (args span `call+2 .. close`).
    fn open_loans(
        &mut self,
        seq: &[usize],
        call: usize,
        close: usize,
        call_name: &str,
        st: &mut State,
        _depth: usize,
    ) {
        let line = self.line_at(seq, call);
        let mut candidates: Vec<String> = Vec::new();
        for p in call + 2..close {
            if !self.is_ident(seq, p) {
                continue;
            }
            let t = self.text_at(seq, p);
            if KEYWORDS.contains(&t) {
                continue;
            }
            let prev = self.text_at(seq, p - 1);
            if prev == "." || prev == "::" {
                continue; // field or method name, not a binding
            }
            let is_ptr_of = self.text_at(seq, p + 1) == "."
                && matches!(self.text_at(seq, p + 2), "as_ptr" | "as_mut_ptr")
                && self.text_at(seq, p + 3) == "(";
            let is_ref_arg = (prev == "&" || (prev == "mut" && self.text_at(seq, p.wrapping_sub(2)) == "&"))
                && call_name == "io_uring_register";
            if is_ptr_of || is_ref_arg {
                candidates.push(t.to_string());
            }
        }
        for c in candidates {
            for root in resolve_roots(st, &c) {
                self.lend(&root, line, st);
            }
        }
    }

    /// Marks `root` as lent, opening a loan if none is active.
    fn lend(&mut self, root: &str, line: u32, st: &mut State) {
        // Existing owned loan on this binding?
        if let Some(l) = st
            .loans
            .iter_mut()
            .find(|l| l.names.iter().any(|n| n == root))
        {
            l.lent = true;
            if l.closed {
                // Re-lent after a reap: fresh lifecycle from here.
                l.closed = false;
                l.line = line;
                l.reported = false;
            }
            return;
        }
        let (kind, scope) = if let Some(&s) = st.decl_scope.get(root) {
            (LoanKind::Local, s)
        } else if st.params.contains(root) {
            (LoanKind::Param, 0)
        } else {
            return; // a field or free expression — not trackable
        };
        let id = self.next_id;
        self.next_id += 1;
        st.loans.push(Loan {
            id,
            kind,
            names: vec![root.to_string()],
            line,
            scope,
            lent: true,
            closed: false,
            reported: false,
        });
    }

    /// Registers `let` bindings in the statement: declaration scopes,
    /// pointer-taint sources and lock guards.
    fn register_lets(&mut self, seq: &[usize], st: &mut State, depth: usize) {
        let mut k = 0usize;
        while k < seq.len() {
            if self.text_at(seq, k) != "let" || !self.is_ident(seq, k) {
                k += 1;
                continue;
            }
            // The `=` that ends the pattern (skipping `==`, `=>`, `<=`, ..).
            let mut eq: Option<usize> = None;
            for e in k + 1..seq.len() {
                if self.text_at(seq, e) == "=" {
                    let n = self.text_at(seq, e + 1);
                    let p = self.text_at(seq, e - 1);
                    if n != "=" && n != ">" && !matches!(p, "=" | "!" | "<" | ">") {
                        eq = Some(e);
                        break;
                    }
                }
            }
            let Some(eq) = eq else {
                k += 1;
                continue;
            };
            // Bound names: idents in the pattern, before any top-level `:`
            // type ascription, excluding keywords, `_` and variant/struct
            // names (capitalized).
            let mut names: Vec<String> = Vec::new();
            let mut group_depth = 0i32;
            let mut in_type = false;
            for p in k + 1..eq {
                let t = self.text_at(seq, p);
                match t {
                    "(" | "[" | "{" => group_depth += 1,
                    ")" | "]" | "}" => group_depth -= 1,
                    ":" if group_depth == 0 => in_type = true,
                    _ => {}
                }
                if in_type || !self.is_ident(seq, p) {
                    continue;
                }
                if KEYWORDS.contains(&t)
                    || t == "_"
                    || t.chars().next().is_some_and(|c| c.is_uppercase())
                {
                    continue;
                }
                names.push(t.to_string());
            }
            let line = self.line_at(seq, k);
            for n in &names {
                st.decl_scope.insert(n.clone(), depth);
                // A fresh binding shadows any taint the old one carried.
                st.sources.remove(n);
            }
            // RHS inspection.
            let mut rhs_sources: Vec<String> = Vec::new();
            let mut opens_guard = false;
            for p in eq + 1..seq.len() {
                let t = self.text_at(seq, p);
                if t == "."
                    && self.text_at(seq, p + 1) == "lock"
                    && self.text_at(seq, p + 2) == "("
                {
                    opens_guard = true;
                }
                if self.is_ident(seq, p) && !KEYWORDS.contains(&t) {
                    let prev = self.text_at(seq, p.wrapping_sub(1));
                    if prev != "."
                        && prev != "::"
                        && self.text_at(seq, p + 1) == "."
                        && PTR_SOURCES.contains(&self.text_at(seq, p + 2))
                        && self.text_at(seq, p + 3) == "("
                    {
                        rhs_sources.push(t.to_string());
                    }
                }
            }
            if !names.is_empty() && !rhs_sources.is_empty() {
                for n in &names {
                    st.sources
                        .entry(n.clone())
                        .or_default()
                        .extend(rhs_sources.iter().cloned());
                }
            }
            if opens_guard {
                if let Some(n) = names.first() {
                    st.guards.push(Guard {
                        name: n.clone(),
                        line,
                        scope: depth,
                        dropped: false,
                        reported: false,
                    });
                }
            }
            k = eq + 1;
        }
    }

    /// `let _ = <ring-fallible call>` — the error is silently dropped.
    /// Scans every `let _ =` in the flat sequence (block expressions
    /// flatten nested statements into their parent), bounded by the next
    /// `;` so only the initializer of that particular binding is searched.
    fn check_swallowed_let(&mut self, seq: &[usize], _st: &State) {
        let mut k = 0usize;
        while k + 2 < seq.len() {
            if !(self.text_at(seq, k) == "let"
                && self.is_ident(seq, k)
                && self.text_at(seq, k + 1) == "_"
                && self.text_at(seq, k + 2) == "=")
            {
                k += 1;
                continue;
            }
            let mut p = k + 3;
            while p < seq.len() && self.text_at(seq, p) != ";" {
                let t = self.text_at(seq, p);
                if self.is_ident(seq, p)
                    && RING_FALLIBLE.contains(&t)
                    && self.text_at(seq, p + 1) == "("
                {
                    let line = self.line_at(seq, p);
                    self.finding(
                        RULE_SWALLOWED,
                        line,
                        format!(
                            "`let _ = ..{t}(..)` discards a ring error; handle or propagate it"
                        ),
                    );
                    break;
                }
                p += 1;
            }
            k = p;
        }
    }

    /// Closes out a scope: drop-before-reap for local loans declared here,
    /// then purges bindings, loans and guards whose scope ended.
    fn end_scope(&mut self, st: &mut State, depth: usize) {
        let mut msgs = Vec::new();
        for l in st.loans.iter_mut() {
            if l.scope >= depth
                && l.kind == LoanKind::Local
                && l.lent
                && !l.closed
                && !l.reported
            {
                let name = l.names.first().cloned().unwrap_or_default();
                msgs.push((
                    l.line,
                    format!(
                        "buffer `{name}` is lent to the ring but goes out of scope before \
                         its completion is reaped; wait or drain on every path first"
                    ),
                ));
                l.reported = true;
            }
        }
        for (line, m) in msgs {
            self.finding(RULE_LOAN, line, m);
        }
        st.loans.retain(|l| l.scope < depth);
        st.guards.retain(|g| g.scope < depth);
        st.decl_scope.retain(|_, &mut s| s < depth);
    }
}

enum BranchBody<'t> {
    Block(&'t [Tree]),
    Arm(&'t [Tree]),
}

/// Resolves a binding through the taint map to the buffers its value
/// points into (itself, if untainted).
fn resolve_roots(st: &State, name: &str) -> Vec<String> {
    let mut roots = Vec::new();
    let mut queue = vec![name.to_string()];
    let mut seen = HashSet::new();
    while let Some(n) = queue.pop() {
        if !seen.insert(n.clone()) {
            continue;
        }
        match st.sources.get(&n) {
            Some(srcs) if !srcs.is_empty() => queue.extend(srcs.iter().cloned()),
            _ => roots.push(n),
        }
    }
    roots
}

/// Merges branch states back into the parent: a loan is closed only if
/// every path closed it; lent/reported if any path says so.
fn merge(parent: &mut State, branches: Vec<State>) {
    if branches.is_empty() {
        return;
    }
    let mut out: Vec<Loan> = Vec::new();
    for l in &parent.loans {
        let mut m = l.clone();
        let mut closed_all = true;
        let mut lent_any = false;
        let mut reported_any = m.reported;
        for b in &branches {
            match b.loans.iter().find(|x| x.id == l.id) {
                Some(bl) => {
                    closed_all &= bl.closed;
                    lent_any |= bl.lent;
                    reported_any |= bl.reported;
                    for n in &bl.names {
                        if !m.names.contains(n) {
                            m.names.push(n.clone());
                        }
                    }
                }
                // Purged inside the branch (scope ended there): the branch
                // saw the loan in its pre-branch state.
                None => {
                    closed_all &= l.closed;
                    lent_any |= l.lent;
                }
            }
        }
        m.closed = closed_all;
        m.lent = lent_any;
        m.reported = reported_any;
        out.push(m);
    }
    // Loans opened inside a branch on outer-scoped bindings survive it.
    for b in &branches {
        for bl in &b.loans {
            if !out.iter().any(|x| x.id == bl.id) {
                out.push(bl.clone());
            }
        }
    }
    parent.loans = out;

    let mut guards: Vec<Guard> = Vec::new();
    for g in &parent.guards {
        let mut m = g.clone();
        let mut dropped_all = true;
        let mut reported_any = m.reported;
        for b in &branches {
            match b
                .guards
                .iter()
                .find(|x| x.name == g.name && x.line == g.line)
            {
                Some(bg) => {
                    dropped_all &= bg.dropped;
                    reported_any |= bg.reported;
                }
                None => dropped_all &= g.dropped,
            }
        }
        m.dropped = dropped_all;
        m.reported = reported_any;
        guards.push(m);
    }
    for b in &branches {
        for bg in &b.guards {
            if !guards
                .iter()
                .any(|x| x.name == bg.name && x.line == bg.line)
            {
                guards.push(bg.clone());
            }
        }
    }
    parent.guards = guards;

    for b in branches {
        for (k, v) in b.decl_scope {
            parent.decl_scope.entry(k).or_insert(v);
        }
        for (k, v) in b.sources {
            let e = parent.sources.entry(k).or_default();
            for s in v {
                if !e.contains(&s) {
                    e.push(s);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn run(src: &str) -> Vec<Finding> {
        let lx = lex(src);
        let parsed = parse::parse(&lx.tokens);
        let skip = vec![false; lx.tokens.len()];
        analyze_file(&lx.tokens, &parsed, &skip)
    }

    fn rules_of(fs: &[Finding]) -> Vec<&'static str> {
        fs.iter().map(|f| f.rule).collect()
    }

    #[test]
    fn drop_before_reap_on_local_scratch() {
        let src = "fn f(ring: &mut Ring, fd: i32) -> Result<(), E> {\n\
                   let mut buf = vec![0u8; 4096];\n\
                   unsafe { ring.prepare_read(fd, buf.as_mut_ptr(), 4096, 0, 1)? };\n\
                   ring.submit()?;\n\
                   Ok(())\n\
                   }";
        let fs = run(src);
        assert_eq!(rules_of(&fs), [RULE_LOAN], "{fs:#?}");
        assert_eq!(fs[0].line, 3); // reported at the prepare call
        assert!(fs[0].message.contains("out of scope"));
    }

    #[test]
    fn reap_on_every_path_is_clean() {
        let src = "fn f(ring: &mut Ring, fd: i32) -> Result<(), E> {\n\
                   let mut buf = vec![0u8; 4096];\n\
                   unsafe { ring.prepare_read(fd, buf.as_mut_ptr(), 4096, 0, 1)? };\n\
                   ring.submit()?;\n\
                   ring.wait_completion()?;\n\
                   Ok(())\n\
                   }";
        assert!(run(src).is_empty(), "{:#?}", run(src));
    }

    #[test]
    fn reap_on_one_branch_only_still_flags() {
        let src = "fn f(ring: &mut Ring, fd: i32, eager: bool) -> Result<(), E> {\n\
                   let mut buf = vec![0u8; 64];\n\
                   unsafe { ring.prepare_read(fd, buf.as_mut_ptr(), 64, 0, 1)? };\n\
                   ring.submit()?;\n\
                   if eager {\n\
                   ring.wait_completion()?;\n\
                   }\n\
                   Ok(())\n\
                   }";
        let fs = run(src);
        assert_eq!(rules_of(&fs), [RULE_LOAN], "{fs:#?}");
    }

    #[test]
    fn reap_on_both_branches_is_clean() {
        let src = "fn f(ring: &mut Ring, fd: i32, eager: bool) -> Result<(), E> {\n\
                   let mut buf = vec![0u8; 64];\n\
                   unsafe { ring.prepare_read(fd, buf.as_mut_ptr(), 64, 0, 1)? };\n\
                   ring.submit()?;\n\
                   if eager {\n\
                   ring.wait_completion()?;\n\
                   } else {\n\
                   ring.pump_one()?;\n\
                   }\n\
                   Ok(())\n\
                   }";
        assert!(run(src).is_empty(), "{:#?}", run(src));
    }

    #[test]
    fn mutation_while_lent_flags() {
        let src = "fn f(ring: &mut Ring, fd: i32) -> Result<(), E> {\n\
                   let mut buf = vec![0u8; 64];\n\
                   unsafe { ring.prepare_read(fd, buf.as_mut_ptr(), 64, 0, 1)? };\n\
                   buf.clear();\n\
                   ring.wait_completion()?;\n\
                   Ok(())\n\
                   }";
        let fs = run(src);
        assert_eq!(rules_of(&fs), [RULE_LOAN], "{fs:#?}");
        assert_eq!(fs[0].line, 4);
        assert!(fs[0].message.contains("clear"));
    }

    #[test]
    fn param_buffer_never_scope_flagged_but_mutation_is() {
        let clean = "fn f(ring: &mut Ring, fd: i32, buf: &mut Vec<u8>) -> Result<(), E> {\n\
                     unsafe { ring.prepare_read(fd, buf.as_mut_ptr(), 64, 0, 1)? };\n\
                     ring.submit()\n\
                     }";
        assert!(run(clean).is_empty(), "{:#?}", run(clean));
        let bad = "fn f(ring: &mut Ring, fd: i32, buf: &mut Vec<u8>) -> Result<(), E> {\n\
                   unsafe { ring.prepare_read(fd, buf.as_mut_ptr(), 64, 0, 1)? };\n\
                   buf.truncate(0);\n\
                   ring.wait_completion()\n\
                   }";
        let fs = run(bad);
        assert_eq!(rules_of(&fs), [RULE_LOAN], "{fs:#?}");
    }

    #[test]
    fn escape_into_struct_literal_closes_loan() {
        let src = "fn f(&mut self, fd: i32, mut buf: Vec<u8>) -> Result<(), E> {\n\
                   unsafe { self.ring.prepare_read(fd, buf.as_mut_ptr(), 64, 0, 1)? };\n\
                   self.slots.insert(7, Slot { buf, remaining: 1 });\n\
                   Ok(())\n\
                   }";
        assert!(run(src).is_empty(), "{:#?}", run(src));
    }

    #[test]
    fn taint_through_iovec_vector_tracks_root() {
        let src = "fn f(&mut self) -> Result<(), E> {\n\
                   let mut bufs = make_bufs();\n\
                   let iovecs = bufs.iter_mut().map(|b| iovec(b)).collect();\n\
                   unsafe { sys::io_uring_register(self.fd, OP, &iovecs, 2)? };\n\
                   Ok(())\n\
                   }";
        let fs = run(src);
        // `bufs` goes out of scope still registered: drop-before-reap.
        assert_eq!(rules_of(&fs), [RULE_LOAN], "{fs:#?}");
        assert!(fs[0].message.contains("bufs"), "{fs:#?}");
    }

    #[test]
    fn taint_escape_into_pool_field_is_clean() {
        let src = "fn f(&mut self) -> Result<(), E> {\n\
                   let mut bufs = make_bufs();\n\
                   let iovecs = bufs.iter_mut().map(|b| iovec(b)).collect();\n\
                   unsafe { sys::io_uring_register(self.fd, OP, &iovecs, 2)? };\n\
                   self.registered = Some(Registered { bufs, each_len: 64 });\n\
                   Ok(())\n\
                   }";
        assert!(run(src).is_empty(), "{:#?}", run(src));
    }

    #[test]
    fn lock_guard_across_submit_flags() {
        let src = "fn f(ring: &mut Ring, m: &Mutex<u32>) -> Result<(), E> {\n\
                   let held = m.lock().unwrap();\n\
                   ring.submit_and_wait(1)?;\n\
                   drop(held);\n\
                   Ok(())\n\
                   }";
        let fs = run(src);
        assert_eq!(rules_of(&fs), [RULE_LOCK_SUBMIT], "{fs:#?}");
        assert_eq!(fs[0].line, 3);
    }

    #[test]
    fn guard_dropped_before_submit_is_clean() {
        let src = "fn f(ring: &mut Ring, m: &Mutex<u32>) -> Result<(), E> {\n\
                   let held = m.lock().unwrap();\n\
                   drop(held);\n\
                   ring.submit_and_wait(1)?;\n\
                   Ok(())\n\
                   }";
        assert!(run(src).is_empty(), "{:#?}", run(src));
    }

    #[test]
    fn guard_scoped_block_before_submit_is_clean() {
        let src = "fn f(ring: &mut Ring, m: &Mutex<u32>) -> Result<(), E> {\n\
                   {\n\
                   let held = m.lock().unwrap();\n\
                   *held += 1;\n\
                   }\n\
                   ring.submit_and_wait(1)?;\n\
                   Ok(())\n\
                   }";
        assert!(run(src).is_empty(), "{:#?}", run(src));
    }

    #[test]
    fn same_statement_lock_and_submit_flags() {
        let src = "fn f(ring: &mut Ring, m: &Mutex<u32>) -> Result<(), E> {\n\
                   submit_locked(m.lock().unwrap(), ring.submit()?);\n\
                   Ok(())\n\
                   }";
        let fs = run(src);
        assert_eq!(rules_of(&fs), [RULE_LOCK_SUBMIT], "{fs:#?}");
    }

    #[test]
    fn swallowed_let_underscore_flags() {
        let src = "fn f(ring: &mut Ring) {\n\
                   let _ = ring.submit();\n\
                   }";
        let fs = run(src);
        assert_eq!(rules_of(&fs), [RULE_SWALLOWED], "{fs:#?}");
        assert_eq!(fs[0].line, 2);
    }

    #[test]
    fn swallowed_let_nested_in_expression_match_flags() {
        // The discard sits inside a match arm of an expression-position
        // match, so the *statement* starts with `let reader`, not `let _`.
        let src = "fn f(engine: Kind, r: &mut Ring) {\n\
                   let reader: Box<dyn GroupReader> = match engine {\n\
                   Kind::Uring => {\n\
                   let _ = r.register_file();\n\
                   Box::new(make(r))\n\
                   }\n\
                   Kind::Mmap => Box::new(other()),\n\
                   };\n\
                   use_reader(reader);\n\
                   }";
        let fs = run(src);
        assert_eq!(rules_of(&fs), [RULE_SWALLOWED], "{fs:#?}");
        assert_eq!(fs[0].line, 4);
    }

    #[test]
    fn swallowed_ok_flags() {
        let src = "fn f(ring: &mut Ring) {\n\
                   ring.wait_completion().ok();\n\
                   }";
        let fs = run(src);
        assert_eq!(rules_of(&fs), [RULE_SWALLOWED], "{fs:#?}");
    }

    #[test]
    fn handled_results_are_clean() {
        let src = "fn f(ring: &mut Ring) -> Result<(), E> {\n\
                   if ring.submit().is_err() { recover(); }\n\
                   let n = ring.wait_completion()?;\n\
                   let _ = n;\n\
                   Ok(())\n\
                   }";
        assert!(run(src).is_empty(), "{:#?}", run(src));
    }

    #[test]
    fn match_arms_merge_like_branches() {
        let src = "fn f(ring: &mut Ring, fd: i32, mode: Mode) -> Result<(), E> {\n\
                   let mut buf = vec![0u8; 64];\n\
                   unsafe { ring.prepare_read(fd, buf.as_mut_ptr(), 64, 0, 1)? };\n\
                   match mode {\n\
                   Mode::Eager => { ring.wait_completion()?; },\n\
                   Mode::Lazy => { flag(); },\n\
                   }\n\
                   Ok(())\n\
                   }";
        let fs = run(src);
        assert_eq!(rules_of(&fs), [RULE_LOAN], "{fs:#?}");
        let all_armed = "fn f(ring: &mut Ring, fd: i32, mode: Mode) -> Result<(), E> {\n\
                   let mut buf = vec![0u8; 64];\n\
                   unsafe { ring.prepare_read(fd, buf.as_mut_ptr(), 64, 0, 1)? };\n\
                   match mode {\n\
                   Mode::Eager => { ring.wait_completion()?; },\n\
                   Mode::Lazy => { ring.pump_one()?; },\n\
                   }\n\
                   Ok(())\n\
                   }";
        assert!(run(all_armed).is_empty(), "{:#?}", run(all_armed));
    }

    #[test]
    fn reap_inside_loop_counts() {
        let src = "fn f(ring: &mut Ring, fd: i32, n: usize) -> Result<(), E> {\n\
                   let mut buf = vec![0u8; 64];\n\
                   unsafe { ring.prepare_read(fd, buf.as_mut_ptr(), 64, 0, 1)? };\n\
                   while ring.in_flight() > 0 {\n\
                   ring.pump_one()?;\n\
                   }\n\
                   Ok(())\n\
                   }";
        assert!(run(src).is_empty(), "{:#?}", run(src));
    }

    #[test]
    fn cfg_test_functions_are_skipped() {
        let src = "#[cfg(test)]\nmod tests {\n\
                   fn f(ring: &mut Ring) { let _ = ring.submit(); }\n\
                   }";
        let lx = lex(src);
        let parsed = parse::parse(&lx.tokens);
        // Mask everything, as rules.rs does for cfg(test) mods.
        let skip = vec![true; lx.tokens.len()];
        assert!(analyze_file(&lx.tokens, &parsed, &skip).is_empty());
    }

    #[test]
    fn prepare_wrappers_do_not_self_flag() {
        // The Ring's own prepare_* methods take raw pointer params and hand
        // them to push_sqe; no loan obligations inside the wrapper itself.
        let src = "pub unsafe fn prepare_read(&mut self, fd: i32, buf: *mut u8, len: u32) -> Result<(), E> {\n\
                   self.push_sqe(op_read(fd, buf as u64, len))\n\
                   }";
        assert!(run(src).is_empty(), "{:#?}", run(src));
    }
}
