//! Cross-system integration: every sampling system completes the same
//! epoch on the same stored graph, produces consistent work counts, and
//! respects the shared memory budget.

use ringsampler::{epoch_targets, MemoryBudget, RingSampler, SamplerConfig, SamplerError};
use ringsampler_baselines::{
    DeviceModel, GpuFlavor, GpuMode, GpuSimSampler, InMemorySampler, MariusLikeSampler,
    NeighborSampler, RingSamplerSystem, SmartSsdModel, SmartSsdSampler,
};
use ringsampler_graph::gen::GeneratorSpec;
use ringsampler_graph::preprocess::{build_dataset, PreprocessOptions};
use ringsampler_graph::{NodeId, OnDiskGraph};

fn graph(tag: &str) -> OnDiskGraph {
    let base = std::env::temp_dir().join(format!("rs-it-cross-{}-{tag}", std::process::id()));
    let spec = GeneratorSpec::PowerLaw {
        nodes: 2_000,
        edges: 30_000,
        exponent: 0.7,
    };
    build_dataset(
        spec.num_nodes(),
        spec.stream(99),
        &base,
        &PreprocessOptions::default(),
    )
    .unwrap()
}

const FANOUTS: [usize; 2] = [4, 3];
const BATCH: usize = 128;

fn all_systems(g: &OnDiskGraph) -> Vec<Box<dyn NeighborSampler>> {
    let budget = MemoryBudget::unlimited();
    let small_ssd = SmartSsdModel {
        host_floor_bytes: 1 << 20,
        ..Default::default()
    };
    vec![
        Box::new(RingSamplerSystem::new(
            RingSampler::new(
                g.clone(),
                SamplerConfig::new()
                    .fanouts(&FANOUTS)
                    .batch_size(BATCH)
                    .threads(2)
                    .seed(1),
            )
            .unwrap(),
        )),
        Box::new(InMemorySampler::new(g, &FANOUTS, BATCH, 2, &budget, 1).unwrap()),
        Box::new(
            GpuSimSampler::new(
                g,
                GpuMode::DeviceResident,
                GpuFlavor::Dgl,
                DeviceModel::a100(GpuFlavor::Dgl),
                &FANOUTS,
                BATCH,
                2,
                &budget,
                1,
            )
            .unwrap(),
        ),
        Box::new(
            GpuSimSampler::new(
                g,
                GpuMode::Uva,
                GpuFlavor::GSampler,
                DeviceModel::a100(GpuFlavor::GSampler),
                &FANOUTS,
                BATCH,
                2,
                &budget,
                1,
            )
            .unwrap(),
        ),
        Box::new(SmartSsdSampler::new(g, small_ssd, &FANOUTS, BATCH, &budget, 1).unwrap()),
        Box::new(MariusLikeSampler::new(g, 8, &FANOUTS, BATCH, &budget, false, 1).unwrap()),
    ]
}

#[test]
fn every_system_completes_the_same_epoch() {
    let g = graph("epoch");
    let targets = epoch_targets(g.num_nodes(), 0, 5);
    let expected_batches = targets.len().div_ceil(BATCH) as u64;
    for mut sys in all_systems(&g) {
        let r = sys
            .sample_epoch(&targets)
            .unwrap_or_else(|e| panic!("{} failed: {e}", sys.name()));
        assert_eq!(
            r.measured.metrics.batches,
            expected_batches,
            "{} batch count",
            sys.name()
        );
        assert!(
            r.measured.metrics.sampled_edges > 0,
            "{} sampled nothing",
            sys.name()
        );
        assert!(r.reported_seconds() > 0.0, "{} reported zero time", sys.name());
    }
}

#[test]
fn work_counts_are_comparable_across_systems() {
    // All systems sample the same fanouts over the same targets, so the
    // sampled-edge counts must agree within the noise of independent RNGs
    // (exact counts differ only through layer-2 frontier sizes).
    let g = graph("counts");
    let targets: Vec<NodeId> = (0..1_000).collect();
    let mut counts = Vec::new();
    for mut sys in all_systems(&g) {
        let r = sys.sample_epoch(&targets).unwrap();
        counts.push((sys.name(), r.measured.metrics.sampled_edges));
    }
    let min = counts.iter().map(|c| c.1).min().unwrap();
    let max = counts.iter().map(|c| c.1).max().unwrap();
    assert!(
        (max as f64) / (min as f64) < 1.2,
        "sampled-edge counts diverge: {counts:?}"
    );
}

#[test]
fn shared_budget_oom_ranking() {
    // Under a budget that comfortably holds RingSampler's metadata but not
    // an in-memory graph, RingSampler runs while DGL-CPU and UVA OOM —
    // the core Fig. 4/5 ranking.
    let g = graph("budget");
    let targets: Vec<NodeId> = (0..500).collect();
    let budget_bytes = g.metadata_bytes() + (20 << 20);
    {
        let budget = MemoryBudget::limited(budget_bytes);
        let rs = RingSampler::new(
            g.clone(),
            SamplerConfig::new()
                .fanouts(&FANOUTS)
                .batch_size(BATCH)
                .threads(1)
                .budget(budget),
        )
        .unwrap();
        rs.sample_epoch(&targets).unwrap();
    }
    {
        // In-memory graph needs 8x the compact size; make the budget tight.
        let compact = g.metadata_bytes() + g.num_edges() * 4;
        let budget = MemoryBudget::limited(compact * 4);
        match InMemorySampler::new(&g, &FANOUTS, BATCH, 1, &budget, 0) {
            Err(SamplerError::OutOfMemory { .. }) => {}
            other => panic!("DGL-CPU should OOM, got {:?}", other.map(|_| ())),
        }
        match GpuSimSampler::new(
            &g,
            GpuMode::Uva,
            GpuFlavor::Dgl,
            DeviceModel::a100(GpuFlavor::Dgl),
            &FANOUTS,
            BATCH,
            1,
            &budget,
            0,
        ) {
            Err(SamplerError::OutOfMemory { .. }) => {}
            other => panic!("UVA should OOM, got {:?}", other.map(|_| ())),
        }
    }
}
