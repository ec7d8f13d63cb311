//! # ringsampler-baselines
//!
//! The comparison systems of the RingSampler evaluation (paper §4.1):
//!
//! | Paper legend | Type | Here |
//! |---|---|---|
//! | DGL-CPU | in-memory CPU | [`InMemorySampler`] (real) |
//! | DGL-GPU / gSampler-GPU | GPU-resident | [`GpuSimSampler`] (simulated device, real sampling) |
//! | DGL-UVA / gSampler-UVA | host graph + UVA | [`GpuSimSampler`] (simulated device, real sampling) |
//! | SmartSSD | in-situ FPGA | [`SmartSsdSampler`] (simulated device, real sampling) |
//! | Marius | out-of-core partitions | [`MariusLikeSampler`] (real) |
//!
//! Every system implements [`NeighborSampler`] so the benchmark harness
//! can sweep them uniformly; hardware we don't have (A100, SmartSSD) is
//! substituted by documented cost models while the sampling computation
//! itself always runs for real and yields valid samples.

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cpu_shared;
pub mod gpu_sim;
pub mod in_memory;
pub mod marius_like;
pub mod smartssd_sim;
pub mod traits;

pub use gpu_sim::{DeviceModel, GpuFlavor, GpuMode, GpuSimSampler};
pub use in_memory::InMemorySampler;
pub use marius_like::{MariusLikeSampler, PREPROCESS_BYTES_PER_EDGE};
pub use smartssd_sim::{SmartSsdModel, SmartSsdSampler};
pub use traits::{NeighborSampler, RingSamplerSystem, SystemReport};
