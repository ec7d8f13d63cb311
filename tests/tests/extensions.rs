//! Integration tests for the extension features: layer-wise sampling
//! feeding the GNN substrate, optimizers, and checkpoint round-trips
//! through a real training flow.

use ringsampler::{LayerwisePlan, RingSampler, SamplerConfig};
use ringsampler_gnn::features::SyntheticFeatures;
use ringsampler_gnn::model::SageModel;
use ringsampler_gnn::optim::{Adam, Optimizer, Sgd};
use ringsampler_gnn::tensor::softmax_cross_entropy;
use ringsampler_gnn::{evaluate, load_model, save_model};
use ringsampler_graph::gen::GeneratorSpec;
use ringsampler_graph::preprocess::{build_dataset, PreprocessOptions};
use ringsampler_graph::NodeId;

fn sampler(tag: &str, fanouts: &[usize]) -> RingSampler {
    let base = std::env::temp_dir().join(format!("rs-it-ext-{}-{tag}", std::process::id()));
    let spec = GeneratorSpec::PowerLaw {
        nodes: 1_000,
        edges: 15_000,
        exponent: 0.7,
    };
    let g = build_dataset(1_000, spec.stream(3), &base, &PreprocessOptions::default()).unwrap();
    RingSampler::new(
        g,
        SamplerConfig::new()
            .fanouts(fanouts)
            .batch_size(128)
            .threads(1)
            .ring_entries(64)
            .seed(21),
    )
    .unwrap()
}

#[test]
fn layerwise_batches_feed_the_gnn() {
    let s = sampler("lwgnn", &[6, 4]);
    let mut w = s.worker().unwrap();
    let plan = LayerwisePlan::new(&[64, 32]);
    let feats = SyntheticFeatures::new(8, 4, 0.3, 5);
    let mut model = SageModel::new(8, &[12], 4, 2, 9);

    let seeds: Vec<NodeId> = (0..128).collect();
    let mut losses = Vec::new();
    for step in 0..10 {
        let batch = w.sample_batch_layerwise(&seeds, &plan, step).unwrap();
        let labels: Vec<usize> = batch.seeds().iter().map(|&v| feats.label(v)).collect();
        let (logits, cache) = model.forward(&batch, &feats).unwrap();
        assert!(logits.as_slice().iter().all(|v| v.is_finite()));
        let (loss, dl) = softmax_cross_entropy(&logits, &labels);
        let grads = model.backward(&cache, &dl);
        model.sgd_step(&grads, 0.3);
        losses.push(loss);
    }
    assert!(
        losses.last().unwrap() < &losses[0],
        "layer-wise training should reduce loss: {losses:?}"
    );
}

#[test]
fn layerwise_bounds_io_versus_nodewise() {
    // The point of layer-wise sampling: bounded layer width ⇒ bounded
    // reads for deep models.
    let s = sampler("lwio", &[10, 10, 10]);
    let seeds: Vec<NodeId> = (0..128).collect();

    let mut w1 = s.worker().unwrap();
    w1.sample_batch(&seeds, 0).unwrap();
    let nodewise_reads = w1.metrics().io_requests;

    let mut w2 = s.worker().unwrap();
    let plan = LayerwisePlan::new(&[64, 64, 64]);
    w2.sample_batch_layerwise(&seeds, &plan, 0).unwrap();
    let layerwise_reads = w2.metrics().io_requests;

    assert!(
        layerwise_reads * 2 < nodewise_reads,
        "layer-wise should read far less at depth 3: {layerwise_reads} vs {nodewise_reads}"
    );
}

#[test]
fn checkpoint_roundtrip_through_training() {
    let s = sampler("ckpt", &[5, 3]);
    let feats = SyntheticFeatures::new(8, 4, 0.3, 7);
    let mut model = SageModel::new(8, &[10], 4, 2, 3);
    let targets: Vec<NodeId> = (0..500).collect();

    // Train a little, checkpoint, evaluate.
    ringsampler_gnn::train_epoch(&s, &mut model, &feats, |v| feats.label(v), &targets, 0.2)
        .unwrap();
    let path = std::env::temp_dir().join(format!("rs-it-ckpt-{}", std::process::id()));
    save_model(&model, &path).unwrap();
    let before = evaluate(&s, &model, &feats, |v| feats.label(v), &targets).unwrap();

    // Restore into a freshly initialized model: identical evaluation.
    let mut restored = SageModel::new(8, &[10], 4, 2, 12345);
    load_model(&mut restored, &path).unwrap();
    let after = evaluate(&s, &restored, &feats, |v| feats.label(v), &targets).unwrap();
    assert!((before.loss - after.loss).abs() < 1e-6);
    assert!((before.accuracy - after.accuracy).abs() < 1e-6);
    std::fs::remove_file(path).ok();
}

#[test]
fn optimizers_drive_real_training() {
    let s = sampler("optim", &[5, 3]);
    let feats = SyntheticFeatures::new(8, 4, 0.3, 11);
    let targets: Vec<NodeId> = (0..400).collect();

    let run = |opt: &mut dyn Optimizer| -> f32 {
        let mut model = SageModel::new(8, &[10], 4, 2, 6);
        let mut w = s.worker().unwrap();
        let mut last = 0.0;
        for step in 0..12 {
            let batch = w
                .sample_batch(&targets[..128], step)
                .unwrap();
            let labels: Vec<usize> =
                batch.seeds().iter().map(|&v| feats.label(v)).collect();
            let (logits, cache) = model.forward(&batch, &feats).unwrap();
            let (loss, dl) = softmax_cross_entropy(&logits, &labels);
            let grads = model.backward(&cache, &dl);
            opt.step(&mut model, &grads);
            last = loss;
        }
        last
    };
    let chance = (4.0f32).ln(); // -ln(1/4)
    assert!(run(&mut Sgd::new(0.3)) < chance);
    assert!(run(&mut Sgd::with_momentum(0.1, 0.9)) < chance);
    assert!(run(&mut Adam::new(0.05)) < chance);
}

#[test]
fn validator_passes_generated_datasets() {
    let s = sampler("fsck", &[3]);
    let report = ringsampler_graph::validate_graph(s.graph()).unwrap();
    assert!(report.is_ok(), "{report}");
    assert_eq!(report.entries_scanned, s.graph().num_edges());
}
