//! # ringsampler
//!
//! A reproduction of **RingSampler** (HotStorage '25): CPU-based GraphSAGE
//! neighborhood sampling on larger-than-memory graphs using io_uring.
//!
//! The system keeps only two `O(|V|)` structures in memory — the offset
//! index and the epoch's target index — while all neighbor data stays on
//! disk. Sampling draws fanout *offsets* from the offset index and fetches
//! exactly those 4-byte entries through per-thread io_uring instances,
//! overlapping I/O preparation with completion polling.
//!
//! ## Quick start
//!
//! ```rust
//! # use std::error::Error;
//! # fn main() -> Result<(), Box<dyn Error>> {
//! use ringsampler::{RingSampler, SamplerConfig};
//! use ringsampler_graph::gen::GeneratorSpec;
//! use ringsampler_graph::preprocess::{build_dataset, PreprocessOptions};
//!
//! // 1. Store a graph on disk (edge file + offset index).
//! let spec = GeneratorSpec::Rmat { scale: 9, edges: 4_096 };
//! let base = std::env::temp_dir().join("ringsampler-doc-quickstart");
//! let graph = build_dataset(spec.num_nodes(), spec.stream(1), &base,
//!                           &PreprocessOptions::default())?;
//!
//! // 2. Configure: 2-layer GraphSAGE, fanout [3, 2] like the paper's Fig. 1.
//! let sampler = RingSampler::new(graph, SamplerConfig::new()
//!     .fanouts(&[3, 2])
//!     .batch_size(128)
//!     .threads(2))?;
//!
//! // 3. Sample an epoch.
//! let targets = ringsampler::engine::epoch_targets(512, 0, 42);
//! let report = sampler.sample_epoch(&targets)?;
//! assert!(report.metrics.sampled_edges > 0);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]
#![cfg_attr(not(test), deny(clippy::let_underscore_must_use, clippy::unused_result_ok))]

pub mod block;
pub mod cache;
pub mod config;
pub mod engine;
pub mod error;
mod hotset;
pub mod memory;
pub mod metrics;
pub mod ondemand;
pub mod plan;
pub mod sampling;
pub mod telemetry;
pub mod worker;

pub use block::{BatchSample, LayerSample};
pub use config::{CachePolicy, PipelineMode, SamplerConfig};
pub use engine::{epoch_targets, RingSampler};
pub use error::{Result, SamplerError};
pub use memory::{parse_budget, MemoryBudget, MemoryCharge};
pub use metrics::{EpochReport, ResourceReport, SampleMetrics, WorkerResources, WorkerStats};
pub use ondemand::{run_on_demand, OnDemandReport};
pub use plan::{PlanStats, ReadPlanMode, ReadPlanner};
pub use telemetry::{SnapshotRegistry, TelemetryConfig, TelemetryHandle};
pub use worker::SamplerWorker;
