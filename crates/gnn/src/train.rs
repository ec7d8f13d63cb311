//! End-to-end GraphSAGE training loop over RingSampler mini-batches.
//!
//! Demonstrates the paper's §5 integration: sampling runs asynchronously
//! (the [`DataLoader`] prefetches through a
//! dedicated worker and its io_uring) while the "GPU" — here the dense
//! aggregation substrate — consumes finished batches.

use std::time::{Duration, Instant};

use ringsampler::{EpochReport, Result, RingSampler, SamplerError};
use ringsampler_graph::NodeId;

use crate::dataloader::DataLoader;
use crate::features::FeatureStore;
use crate::model::SageModel;
use crate::tensor::softmax_cross_entropy;

/// Per-epoch training statistics.
#[derive(Debug, Clone, Default)]
pub struct EpochStats {
    /// Mean cross-entropy over batches.
    pub loss: f32,
    /// Seed-level classification accuracy.
    pub accuracy: f32,
    /// Mini-batches consumed.
    pub batches: usize,
    /// Time the trainer spent blocked waiting for batches (sampling not
    /// hidden by prefetch).
    pub sample_wait: Duration,
    /// Time in forward/backward/update.
    pub compute: Duration,
    /// Full sampling-side observability report (counters, latency
    /// histograms, phase times) from the prefetch worker. `None` only if
    /// the producer thread died.
    pub sampling: Option<EpochReport>,
}

impl std::fmt::Display for EpochStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "loss {:.4}, acc {:.1}%, {} batches, wait {:.3}s, compute {:.3}s",
            self.loss,
            self.accuracy * 100.0,
            self.batches,
            self.sample_wait.as_secs_f64(),
            self.compute.as_secs_f64()
        )
    }
}

/// Trains `model` for one epoch over `targets`.
///
/// `label_of` provides ground-truth labels for seed nodes (e.g.
/// [`SyntheticFeatures::label`](crate::features::SyntheticFeatures::label)).
///
/// # Errors
/// Propagates sampling errors from the data loader, and feature-read
/// errors as [`SamplerError::Io`].
pub fn train_epoch<F, L>(
    sampler: &RingSampler,
    model: &mut SageModel,
    features: &F,
    label_of: L,
    targets: &[NodeId],
    lr: f32,
) -> Result<EpochStats>
where
    F: FeatureStore + ?Sized,
    L: Fn(NodeId) -> usize,
{
    let epoch_start = Instant::now();
    let mut loader = DataLoader::new(sampler, targets.to_vec(), 4)?;
    let mut stats = EpochStats::default();
    let mut correct = 0usize;
    let mut total = 0usize;
    let mut loss_sum = 0.0f64;

    let mut wait_start = Instant::now();
    for item in loader.by_ref() {
        let (_, batch) = item?;
        stats.sample_wait += wait_start.elapsed();

        let compute_start = Instant::now();
        let labels: Vec<usize> = batch.seeds().iter().map(|&v| label_of(v)).collect();
        let (logits, cache) =
            model.forward(&batch, features).map_err(|e| SamplerError::Io(e.into()))?;
        let (loss, dlogits) = softmax_cross_entropy(&logits, &labels);
        let grads = model.backward(&cache, &dlogits);
        model.sgd_step(&grads, lr);

        for (r, &label) in labels.iter().enumerate() {
            let row = logits.row(r);
            let argmax = row
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
                .map(|(i, _)| i)
                .unwrap_or(0);
            if argmax == label {
                correct += 1;
            }
            total += 1;
        }
        loss_sum += loss as f64;
        stats.batches += 1;
        stats.compute += compute_start.elapsed();
        wait_start = Instant::now();
    }
    stats.sampling = loader
        .finish()
        .map(|w| w.into_epoch_report(epoch_start.elapsed()));
    stats.loss = if stats.batches == 0 {
        0.0
    } else {
        (loss_sum / stats.batches as f64) as f32
    };
    stats.accuracy = if total == 0 {
        0.0
    } else {
        correct as f32 / total as f32
    };
    Ok(stats)
}

/// Evaluates `model` over `targets` without updating parameters.
///
/// # Errors
/// Propagates sampling errors, and feature-read errors as
/// [`SamplerError::Io`].
pub fn evaluate<F, L>(
    sampler: &RingSampler,
    model: &SageModel,
    features: &F,
    label_of: L,
    targets: &[NodeId],
) -> Result<EpochStats>
where
    F: FeatureStore + ?Sized,
    L: Fn(NodeId) -> usize,
{
    let epoch_start = Instant::now();
    let mut loader = DataLoader::new(sampler, targets.to_vec(), 4)?;
    let mut stats = EpochStats::default();
    let mut correct = 0usize;
    let mut total = 0usize;
    let mut loss_sum = 0.0f64;
    for item in loader.by_ref() {
        let (_, batch) = item?;
        let labels: Vec<usize> = batch.seeds().iter().map(|&v| label_of(v)).collect();
        let (logits, _) =
            model.forward(&batch, features).map_err(|e| SamplerError::Io(e.into()))?;
        let (loss, _) = softmax_cross_entropy(&logits, &labels);
        loss_sum += loss as f64;
        for (r, &label) in labels.iter().enumerate() {
            let row = logits.row(r);
            let argmax = row
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
                .map(|(i, _)| i)
                .unwrap_or(0);
            if argmax == label {
                correct += 1;
            }
            total += 1;
        }
        stats.batches += 1;
    }
    stats.sampling = loader
        .finish()
        .map(|w| w.into_epoch_report(epoch_start.elapsed()));
    stats.loss = if stats.batches == 0 {
        0.0
    } else {
        (loss_sum / stats.batches as f64) as f32
    };
    stats.accuracy = if total == 0 {
        0.0
    } else {
        correct as f32 / total as f32
    };
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::{OnDiskFeatures, SyntheticFeatures};
    use crate::tensor::Matrix;
    use ringsampler::SamplerConfig;
    use ringsampler_graph::edgefile::write_csr;
    use ringsampler_graph::CsrGraph;

    fn setup(tag: &str) -> (RingSampler, SyntheticFeatures) {
        let base =
            std::env::temp_dir().join(format!("rs-gnn-train-{}-{tag}", std::process::id()));
        // Homophilous graph: nodes connect mostly within their class
        // (v % 4), so neighbor aggregation helps classification.
        let classes = 4u32;
        let n = 200u32;
        let mut edges = Vec::new();
        for v in 0..n {
            for j in 1..=5u32 {
                let same_class = v + classes * j;
                edges.push((v, same_class % n));
            }
        }
        let csr = CsrGraph::from_edges(n as usize, edges).unwrap();
        let g = write_csr(&csr, &base).unwrap();
        let sampler = RingSampler::new(
            g,
            SamplerConfig::new()
                .fanouts(&[4, 3])
                .batch_size(32)
                .threads(1)
                .ring_entries(32)
                .seed(5),
        )
        .unwrap();
        let feats = SyntheticFeatures::new(8, classes as usize, 0.3, 9);
        (sampler, feats)
    }

    #[test]
    fn training_reduces_loss_and_beats_chance() {
        let (sampler, feats) = setup("learn");
        let mut model = SageModel::new(8, &[16], 4, 2, 3);
        let targets: Vec<NodeId> = (0..200).collect();
        let first = train_epoch(&sampler, &mut model, &feats, |v| feats.label(v), &targets, 0.3)
            .unwrap();
        let mut last = first.clone();
        for _ in 0..4 {
            last = train_epoch(&sampler, &mut model, &feats, |v| feats.label(v), &targets, 0.3)
                .unwrap();
        }
        assert!(last.loss < first.loss, "loss: {} -> {}", first.loss, last.loss);
        assert!(
            last.accuracy > 0.5,
            "accuracy {} should beat 25% chance decisively",
            last.accuracy
        );
        assert!(last.to_string().contains("loss"));
        let report = last.sampling.expect("sampling report from prefetch worker");
        assert_eq!(report.metrics.batches as usize, last.batches);
        assert!(report.metrics.sampled_edges > 0);
        assert!(!report.to_json().is_empty());
    }

    #[test]
    fn a_short_feature_read_is_a_file_error() {
        let (sampler, _) = setup("short");
        // 100 rows on disk for a 200-node graph: most batches reach past
        // the end of the file.
        let path = std::env::temp_dir()
            .join(format!("rs-gnn-train-{}-short.feat", std::process::id()));
        OnDiskFeatures::write_matrix(&path, &Matrix::zeros(100, 8)).unwrap();
        let feats = OnDiskFeatures::open(&path, 8).unwrap();
        let mut model = SageModel::new(8, &[8], 4, 2, 3);
        let targets: Vec<NodeId> = (0..200).collect();
        let train = train_epoch(&sampler, &mut model, &feats, |v| v as usize % 4, &targets, 0.1);
        let eval = evaluate(&sampler, &model, &feats, |v| v as usize % 4, &targets);
        std::fs::remove_file(path).ok();
        for err in [train.unwrap_err(), eval.unwrap_err()] {
            assert!(matches!(err, SamplerError::Io(_)), "{err}");
            assert!(err.to_string().contains("file I/O error"), "{err}");
        }
    }

    #[test]
    fn evaluate_does_not_mutate_model() {
        let (sampler, feats) = setup("eval");
        let model = SageModel::new(8, &[8], 4, 2, 3);
        let snapshot = model.clone();
        let targets: Vec<NodeId> = (0..64).collect();
        let stats =
            evaluate(&sampler, &model, &feats, |v| feats.label(v), &targets).unwrap();
        assert_eq!(stats.batches, 2);
        let report = stats.sampling.expect("sampling report from prefetch worker");
        assert_eq!(report.metrics.batches, 2);
        assert_eq!(report.account.batch_latency.count(), 2);
        assert!(report.wall > Duration::ZERO);
        assert_eq!(model.layers().len(), snapshot.layers().len());
        for (a, b) in model.layers().iter().zip(snapshot.layers()) {
            assert_eq!(a.w_self, b.w_self);
        }
    }
}
