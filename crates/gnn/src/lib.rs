//! # ringsampler-gnn
//!
//! Minimal GraphSAGE training substrate for the RingSampler reproduction:
//! dense tensor math, SAGE mean-aggregator layers with exact backprop over
//! sampled blocks, feature stores (in-memory / procedural / on-disk), a
//! prefetching [`DataLoader`] that overlaps sampling with aggregation
//! (paper §5), and a training loop with a synthetic node-classification
//! task.
//!
//! ## Example: one training step
//!
//! ```rust
//! # use std::error::Error;
//! # fn main() -> Result<(), Box<dyn Error>> {
//! use ringsampler::{RingSampler, SamplerConfig};
//! use ringsampler_gnn::features::SyntheticFeatures;
//! use ringsampler_gnn::model::SageModel;
//! use ringsampler_gnn::train::train_epoch;
//! use ringsampler_graph::gen::GeneratorSpec;
//! use ringsampler_graph::preprocess::{build_dataset, PreprocessOptions};
//!
//! let spec = GeneratorSpec::Uniform { nodes: 256, edges: 2_048 };
//! let base = std::env::temp_dir().join("ringsampler-gnn-doc");
//! let graph = build_dataset(256, spec.stream(3), &base, &PreprocessOptions::default())?;
//! let sampler = RingSampler::new(graph, SamplerConfig::new()
//!     .fanouts(&[3, 2]).batch_size(64).threads(1))?;
//!
//! let feats = SyntheticFeatures::new(8, 4, 0.2, 1);
//! let mut model = SageModel::new(8, &[16], 4, 2, 7);
//! let targets: Vec<u32> = (0..256).collect();
//! let stats = train_epoch(&sampler, &mut model, &feats, |v| feats.label(v), &targets, 0.1)?;
//! assert_eq!(stats.batches, 4);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod dataloader;
pub mod features;
pub mod model;
pub mod optim;
pub mod tensor;
pub mod train;

pub use dataloader::DataLoader;
pub use features::{FeatureStore, InMemoryFeatures, OnDiskFeatures, SyntheticFeatures};
pub use model::{ForwardCache, SageLayer, SageLayerGrads, SageModel};
pub use optim::{Adam, Optimizer, Sgd};
pub use tensor::{softmax_cross_entropy, Matrix};
pub use train::{evaluate, train_epoch, EpochStats};
