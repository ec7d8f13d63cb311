//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span is recorded when the call returns, with the id of the span that
//! caused it; nothing is written until the run ends. Self time of a span is
//! its duration minus the part of it that its children cover.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use ringstat::Json;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u32,
    /// 0 for a root span.
    pub parent: u32,
    pub name: &'static str,
    /// Batch (or request) the span belongs to; spans of one batch share it.
    pub batch: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Work done inside the span (edges, entries, reads ... by `name`).
    pub count: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Tracer {
    origin: Instant,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            next_id: AtomicU32::new(1),
            spans: Mutex::new(Vec::with_capacity(1 << 16)),
        }
    }

    /// Reserves an id, so that children can name their parent before the
    /// parent's own span is recorded.
    pub fn id(&self) -> u32 {
        // Relaxed: the counter publishes no other data.
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Nanoseconds from the tracer's origin to `t`.
    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    pub fn push(&self, span: Span) {
        self.spans.lock().expect("no span writer panics").push(span);
    }

    /// Times `f` as a leaf span and returns its result; `count` is computed
    /// from the result.
    pub fn leaf<T>(
        &self,
        parent: u32,
        name: &'static str,
        batch: u32,
        f: impl FnOnce() -> T,
        count: impl FnOnce(&T) -> u64,
    ) -> T {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.push(Span {
            id: self.id(),
            parent,
            name,
            batch,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            count: count(&out),
        });
        out
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("no span writer panics").clone()
    }
}

/// Totals of one span name.
#[derive(Debug, Clone, Copy, Default)]
pub struct NameTotal {
    pub spans: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    pub count: u64,
}

/// Per-name totals with self time = duration minus the union of the child
/// spans' intervals (children of a parallel epoch overlap one another).
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, NameTotal> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    let mut out: BTreeMap<&'static str, NameTotal> = BTreeMap::new();
    for s in spans {
        let covered = children.get_mut(&s.id).map_or(0, |iv| {
            iv.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start_ns);
            for &(a, b) in iv.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            covered
        });
        let t = out.entry(s.name).or_default();
        t.spans += 1;
        t.total_ns += s.dur_ns();
        t.self_ns += s.dur_ns().saturating_sub(covered);
        t.count += s.count;
    }
    out
}

/// The trace file: every span, then the per-name totals derived from them.
pub fn to_json(workload: &str, seed: u64, spans: &[Span]) -> Json {
    let rows = spans
        .iter()
        .map(|s| {
            Json::object()
                .with("id", Json::U64(u64::from(s.id)))
                .with("parent", Json::U64(u64::from(s.parent)))
                .with("name", Json::str(s.name))
                .with("batch", Json::U64(u64::from(s.batch)))
                .with("start_ns", Json::U64(s.start_ns))
                .with("end_ns", Json::U64(s.end_ns))
                .with("count", Json::U64(s.count))
        })
        .collect();
    let mut by_name = Json::object();
    for (name, t) in totals(spans) {
        by_name.push(
            name,
            Json::object()
                .with("spans", Json::U64(t.spans))
                .with("total_ns", Json::U64(t.total_ns))
                .with("self_ns", Json::U64(t.self_ns))
                .with("count", Json::U64(t.count)),
        );
    }
    Json::object()
        .with("workload", Json::str(workload))
        .with("seed", Json::U64(seed))
        .with("by_name", by_name)
        .with("spans", Json::Array(rows))
}
