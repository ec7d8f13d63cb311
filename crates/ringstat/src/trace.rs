//! Chrome trace-event (`trace.json`) export, viewable in Perfetto or
//! `chrome://tracing`.
//!
//! The timeline is a fold over the flight-recorder events
//! ([`ChromeTrace::from_events`]): every event that carries a duration
//! becomes one complete event (`"ph": "X"`) with microsecond timestamps
//! relative to the epoch start, on one labeled lane per worker, so the
//! Perfetto timeline shows each batch with its sample / plan / submit /
//! wait / reap / scatter stages nested beneath it.

use crate::events::{EventKind, TraceEvent};
use crate::json::Json;

/// Accumulates spans and serializes the Chrome trace-event JSON object.
#[derive(Debug, Default)]
pub struct ChromeTrace {
    events: Vec<Json>,
}

impl ChromeTrace {
    /// An empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one complete event on thread `tid` (timestamps in µs).
    fn add_span(&mut self, tid: u64, name: &str, ts_us: f64, dur_us: f64) {
        self.events.push(
            Json::object()
                .with("name", Json::str(name))
                .with("ph", Json::str("X"))
                .with("pid", Json::U64(1))
                .with("tid", Json::U64(tid))
                .with("ts", Json::F64(ts_us))
                .with("dur", Json::F64(dur_us)),
        );
    }

    /// Labels the process lane in Perfetto (a `"ph": "M"` metadata
    /// event). Call once per trace.
    fn set_process_name(&mut self, name: &str) {
        self.metadata("process_name", 0, name, false);
    }

    /// Labels thread lane `tid` in Perfetto (a `"ph": "M"` metadata
    /// event), e.g. `worker 3`, instead of a bare tid number.
    fn set_thread_name(&mut self, tid: u64, name: &str) {
        self.metadata("thread_name", tid, name, true);
    }

    fn metadata(&mut self, kind: &str, tid: u64, name: &str, with_tid: bool) {
        let mut ev = Json::object()
            .with("name", Json::str(kind))
            .with("ph", Json::str("M"))
            .with("pid", Json::U64(1));
        if with_tid {
            ev.push("tid", Json::U64(tid));
        }
        self.events
            .push(ev.with("args", Json::object().with("name", Json::str(name))));
    }

    /// The one Chrome exporter: a `ringsampler` process with one lane per
    /// `(label, events)` pair, in order. Stage events are recorded when
    /// their stage *ends*, so a span starts at `ts - dur`; instantaneous
    /// events (cache hit/miss, fallbacks) are skipped.
    pub fn from_events<'a, L: AsRef<str>>(
        lanes: impl IntoIterator<Item = (L, &'a [TraceEvent])>,
    ) -> Self {
        let mut t = Self::new();
        t.set_process_name("ringsampler");
        for (tid, (label, events)) in (0u64..).zip(lanes) {
            t.set_thread_name(tid, label.as_ref());
            for ev in events {
                t.add_event(tid, ev);
            }
        }
        t
    }

    fn add_event(&mut self, tid: u64, ev: &TraceEvent) {
        let us = |ns: u64| ns as f64 / 1_000.0;
        let (name, dur) = match ev.kind {
            EventKind::BatchEnd => ("batch", ev.b),
            EventKind::SampleDone => ("sample", ev.c),
            EventKind::PlanBuilt => ("plan", ev.d),
            EventKind::GroupSubmit => ("submit", ev.d),
            EventKind::ScatterDone => ("scatter", ev.b),
            EventKind::GroupComplete => {
                // Blocked wait, then the reap that ended at `ts`.
                let start = us(ev.ts_ns.saturating_sub(ev.c + ev.d));
                self.add_span(tid, "wait", start, us(ev.c));
                self.add_span(tid, "reap", start + us(ev.c), us(ev.d));
                return;
            }
            _ => return,
        };
        self.add_span(tid, name, us(ev.ts_ns.saturating_sub(dur)), us(dur));
    }

    /// Number of events accumulated so far.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True if no events were added.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The trace as a [`Json`] value (`{"traceEvents": [...]}`).
    pub fn to_json_value(self) -> Json {
        Json::object()
            .with("traceEvents", Json::Array(self.events))
            .with("displayTimeUnit", Json::str("ms"))
    }

    /// Serializes to the `trace.json` document.
    pub fn to_json(self) -> String {
        self.to_json_value().to_string_pretty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_has_complete_events() {
        let mut t = ChromeTrace::new();
        t.add_span(3, "batch", 10.0, 2.5);
        assert_eq!(t.len(), 1);
        let out = t.to_json();
        assert!(out.contains("\"traceEvents\""));
        assert!(out.contains("\"ph\": \"X\""));
        assert!(out.contains("\"tid\": 3"));
        assert!(out.contains("\"ts\": 10.0"));
        assert!(out.contains("\"dur\": 2.500000"));
    }

    fn ev(ts_ns: u64, kind: EventKind, a: u64, b: u64, c: u64, d: u64) -> TraceEvent {
        TraceEvent {
            ts_ns,
            kind,
            a,
            b,
            c,
            d,
        }
    }

    #[test]
    fn spans_convert_ns_to_us() {
        // A plan stage that ended at 6.5 µs after running 1.5 µs.
        let events = [ev(6_500, EventKind::PlanBuilt, 4, 2, 0, 1_500)];
        let out = ChromeTrace::from_events([("w", &events[..])]).to_json();
        assert!(out.contains("\"name\": \"plan\""), "{out}");
        assert!(out.contains("\"ts\": 5.0"), "{out}");
        assert!(out.contains("\"dur\": 1.5"), "{out}");
    }

    #[test]
    fn event_fold_labels_lanes_and_skips_instants() {
        let w0 = [
            ev(0, EventKind::BatchStart, 0, 128, 0, 0),
            ev(40_000, EventKind::CacheHit, 9, 0, 0, 0),
            ev(50_000, EventKind::SampleDone, 10, 640, 45_000, 0),
            ev(120_000, EventKind::GroupSubmit, 1, 32, 32, 9_000),
            ev(200_000, EventKind::GroupComplete, 1, 71_000, 60_000, 11_000),
            ev(230_000, EventKind::ScatterDone, 640, 25_000, 0, 0),
            ev(250_000, EventKind::BatchEnd, 0, 250_000, 2, 0),
        ];
        let w1 = [ev(10_000, EventKind::BatchEnd, 0, 10_000, 1, 0)];
        let t = ChromeTrace::from_events([("a/worker-0", &w0[..]), ("a/worker-1", &w1[..])]);
        // 3 metadata events + 6 spans on lane 0 (wait and reap from one
        // completion) + 1 on lane 1; the start and the cache hit add none.
        assert_eq!(t.len(), 10);
        let out = t.to_json();
        assert!(out.contains("\"a/worker-1\""), "{out}");
        for name in ["batch", "sample", "submit", "wait", "reap", "scatter"] {
            assert!(out.contains(&format!("\"name\": \"{name}\"")), "{name}: {out}");
        }
        // wait covers 129–189 µs, reap 189–200 µs.
        assert!(out.contains("\"ts\": 129.0"), "{out}");
        assert!(out.contains("\"ts\": 189.0"), "{out}");
    }

    #[test]
    fn metadata_events_label_lanes() {
        let mut t = ChromeTrace::new();
        t.set_process_name("ringsampler");
        t.set_thread_name(2, "worker 2");
        t.add_span(2, "batch", 0.0, 1.0);
        let out = t.to_json();
        assert!(out.contains("\"name\": \"process_name\""), "{out}");
        assert!(out.contains("\"name\": \"thread_name\""), "{out}");
        assert!(out.contains("\"ph\": \"M\""), "{out}");
        assert!(out.contains("\"name\": \"worker 2\""), "{out}");
        assert!(out.contains("\"name\": \"ringsampler\""), "{out}");
    }

    #[test]
    fn empty_trace_is_valid() {
        let t = ChromeTrace::new();
        assert!(t.is_empty());
        assert_eq!(
            t.to_json(),
            "{\n  \"traceEvents\": [],\n  \"displayTimeUnit\": \"ms\"\n}\n"
        );
    }
}
