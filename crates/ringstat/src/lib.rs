//! # ringstat
//!
//! Sync-free, per-thread observability primitives for RingSampler.
//!
//! The paper's headline claims are *distributional* I/O claims — the
//! CPU/I/O overlap of Fig. 3b, the requests-per-syscall batching win of
//! Fig. 6, the tail behavior of random 4-byte reads. Flat counters cannot
//! show any of that, so this crate provides the measurement layer every
//! perf change is judged against:
//!
//! * [`LatencyHistogram`] — a `Copy`-able, fixed-size, log2-bucketed
//!   histogram. `record()` is allocation-free and syscall-free, so it can
//!   sit directly on the sampling hot path. Quantiles (p50/p95/p99) are
//!   extracted from the buckets; `merge` is lossless (bucket-wise adds).
//! * [`Stage`] / [`StageAccount`] — where an epoch spent its time: the six
//!   stages (sample, plan, submit, wait, reap, scatter), which word of which
//!   flight-recorder event carries each, and the account a worker folds
//!   its events into — the stage sums plus the batch, group and CQ-wait
//!   histograms, exported as the report's `stage_nanos` and the live
//!   `/metrics` stage counters, with the dominant stage the report and
//!   `/progress` name as the reason a run was slow.
//! * [`SampleMetrics`] — what a worker counts (batches, edges, reads,
//!   bytes, groups, syscalls, hot-set and planner counters), and the one
//!   list of their wire keys the reports are built from.
//! * [`Json`], [`PromWriter`], [`ChromeTrace`] — dependency-free exporters:
//!   JSON for the epoch report and every endpoint, Prometheus text for the
//!   live `/metrics`, and the Chrome `trace.json` (Perfetto-viewable)
//!   timeline `ringtrace` folds from the flight recorder's events.
//! * [`SnapshotCell`] / [`WorkerSnapshot`] — the `ringscope` live-telemetry
//!   publish side: a single-writer seqlock slot each worker overwrites
//!   after every batch with its own record (its [`SampleMetrics`] and
//!   [`StageAccount`], whole), readable by an observer thread without ever
//!   blocking the writer.
//! * [`EventRing`] / [`TraceEvent`] — the `ringtrace` flight recorder: a
//!   fixed-capacity, allocation-free, single-writer ring of seqlock
//!   slots recording per-batch / per-I/O-group lifecycle events; when
//!   full it overwrites its oldest event and counts it, instead of
//!   blocking.
//! * [`HistoryPoint`] — one timestamped [`WorkerSnapshot`] (the telemetry
//!   thread keeps each worker's series itself), and the windowed rates
//!   `/progress` reads off a series.
//! * [`ResourceSample`] — the `ringprof` kernel-truth layer: per-thread CPU
//!   clock and rusage counters plus process-wide `/proc/self/io` bytes.
//!   It splits no time; the stage account is the one record of where time
//!   went.
//! * [`HttpServer`] — a bounded, dependency-free HTTP listener for the
//!   embedded ringscope endpoints (`/metrics`, `/progress`, `/healthz`,
//!   `/trace`).
//! * [`human_bytes`] / [`human_count`] — display helpers for run reports.
//!
//! ## The synchronization-free invariant
//!
//! Every recorder in this crate is **thread-private by design**: a worker
//! owns its stage account, records into it with plain `&mut`
//! writes, and only at epoch join does the driver `merge` the per-thread
//! values. There are no locks and no channels anywhere in this crate,
//! and the only atomics are the word-sized version-counter accesses of
//! the [`snapshot`] seqlock and the store-only cursors of the [`events`]
//! flight recorder — wait-free publishes with no RMW, no CAS loop, and
//! no blocking, which are the sanctioned ways a worker's state becomes
//! externally visible mid-epoch. The hot-path clippy line that opens
//! [`hist`], [`stage`], [`snapshot`], [`events`] and [`resources`] bans
//! locks and channels there to keep it that way, and every `Relaxed`
//! access in the two atomic modules carries an `// ordering:` reason that
//! `tests/tests/invariants.rs` checks.

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod counters;
pub mod events;
pub mod fmt;
pub mod hist;
pub mod history;
pub mod http;
pub mod json;
pub mod prometheus;
pub mod resources;
pub mod snapshot;
pub mod stage;
pub mod trace;

pub use counters::SampleMetrics;
pub use events::{EventKind, EventRing, TraceEvent};
pub use fmt::{human_bytes, human_count, human_nanos};
pub use hist::{LatencyHistogram, NUM_BUCKETS};
pub use history::{HistoryPoint, WindowRates};
pub use http::{HttpServer, Request, Response};
pub use json::Json;
pub use prometheus::PromWriter;
pub use resources::{parse_proc_io, proc_io_now, thread_cpu_nanos, ResourceSample};
pub use snapshot::{SnapshotCell, WorkerSnapshot};
pub use stage::{Stage, StageAccount};
pub use trace::ChromeTrace;
