//! Integration tests for the extension features: optimizers driving a
//! real training flow, and the dataset validator.

use ringsampler::{RingSampler, SamplerConfig};
use ringsampler_gnn::features::SyntheticFeatures;
use ringsampler_gnn::model::SageModel;
use ringsampler_gnn::optim::{Adam, Optimizer, Sgd};
use ringsampler_gnn::tensor::softmax_cross_entropy;
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
