//! Regenerates **Figure 8** (Appendix A.2): RingSampler epoch time as the
//! thread count doubles, with unlimited memory and under a tight budget.
//!
//! Expected shape: near-linear scaling up to the core count when memory
//! is unconstrained. Under the tight budget, per-thread workspaces eat
//! the memory that would otherwise serve as neighbor cache, so the best
//! thread count sits *below* the maximum (the paper's 32- vs 64-thread
//! crossover at 4 GB).
//!
//! The constrained budget reproduces the paper's semantics — "the minimum
//! required for RingSampler to run with `max` threads": we size it as the
//! measured need of the maximum thread count plus one page-cache unit,
//! and at lower thread counts the slack becomes the sampler's hot set
//! ([`CachePolicy::Page`]: one profiled page region shared by every
//! thread), exactly the mechanism §A.2 describes.

use ringsampler::{CachePolicy, MemoryBudget, RingSampler, SamplerConfig};
use ringsampler_bench::{HarnessConfig, StatsSink, DEFAULT_FANOUTS};
use ringsampler_graph::{DatasetId, DatasetSpec};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let h = HarnessConfig::from_env();
    let mut sink = StatsSink::from_args();
    let spec = DatasetSpec::scaled(DatasetId::OgbnPapers, h.scale);
    let graph = h.dataset(&spec)?;

    let max_threads = h.threads.max(2);
    let mut thread_counts = vec![];
    let mut t = 1;
    while t < max_threads {
        thread_counts.push(t);
        t *= 2;
    }
    thread_counts.push(max_threads);

    println!(
        "Figure 8 at 1/{} scale (ogbn-papers), threads {:?}, {} targets/epoch\n",
        h.scale, thread_counts, h.targets_per_epoch
    );

    let batch = 256usize;
    let ring_entries = 128u32;

    // Two in-flight I/O groups of `ring_entries` pages per worker.
    fn page_buffer_bytes(threads: usize) -> u64 {
        threads as u64 * 2 * 128 * 4096
    }

    // Measure the actual memory need at max threads to define the "4 GB"
    // analog: minimum for max threads + slack for caching at lower counts.
    let probe_budget = MemoryBudget::unlimited();
    let probe = RingSampler::new(
        graph.clone(),
        SamplerConfig::new()
            .fanouts(&DEFAULT_FANOUTS)
            .batch_size(batch)
            .threads(max_threads)
            .budget(probe_budget.clone())
            .seed(5),
    )?;
    probe.sample_epoch(&h.epoch_targets(&graph, 0))?;
    let need_max = probe_budget.high_water();
    drop(probe);
    // Headroom: page-cache mode reads whole 4 KiB pages, so its in-flight
    // group buffers are ~PAGE/ENTRY times larger than the probe's; budget
    // the page buffers explicitly below and add 50% slop here.
    let constrained_total = need_max + need_max / 2 + page_buffer_bytes(max_threads);
    eprintln!(
        "constrained budget = {} bytes (measured need at {} threads + 50% + page buffers)",
        constrained_total, max_threads
    );

    let header = format!(
        "{:<10} {:>16} {:>18} {:>12}",
        "threads", "unlimited (s)", "constrained (s)", "cache hit%"
    );
    let mut rows = Vec::new();
    for &threads in &thread_counts {
        // Unlimited memory, no cache: pure scaling.
        let unlimited = {
            let s = RingSampler::new(
                graph.clone(),
                SamplerConfig::new()
                    .fanouts(&DEFAULT_FANOUTS)
                    .batch_size(batch)
                    .threads(threads)
                    .ring_entries(ring_entries)
                    .telemetry_opt(h.telemetry())
                    .seed(5),
            )?;
            let mut total = 0.0;
            for e in 0..h.epochs {
                let r = s.sample_epoch(&h.epoch_targets(&graph, e as u64))?;
                sink.note(&format!("unlimited/t{threads}/epoch{e}"), &r);
                total += r.seconds();
            }
            total / h.epochs as f64
        };

        // Constrained: whatever the workspaces don't use becomes the hot
        // set, one region for all threads.
        let per_thread_ws = (need_max.saturating_sub(graph.metadata_bytes()))
            / max_threads as u64;
        let ws_need = graph.metadata_bytes()
            + per_thread_ws * threads as u64
            + page_buffer_bytes(threads);
        let slack = constrained_total.saturating_sub(ws_need + ws_need / 4);
        let cache = slack * 3 / 4;
        let budget = MemoryBudget::limited(constrained_total);
        let mut cfg = SamplerConfig::new()
            .fanouts(&DEFAULT_FANOUTS)
            .batch_size(batch)
            .threads(threads)
            .ring_entries(ring_entries)
            .budget(budget)
            .telemetry_opt(h.telemetry())
            .seed(5);
        if cache > 64 * 1024 {
            cfg = cfg.cache(CachePolicy::Page {
                budget_bytes: cache,
            });
        }
        let (constrained, hit) = match RingSampler::new(graph.clone(), cfg) {
            Ok(s) => {
                let mut total = 0.0;
                let mut hits = 0u64;
                let mut misses = 0u64;
                let mut failed = false;
                for e in 0..h.epochs {
                    match s.sample_epoch(&h.epoch_targets(&graph, e as u64)) {
                        Ok(r) => {
                            sink.note(&format!("constrained/t{threads}/epoch{e}"), &r);
                            total += r.seconds();
                            hits += r.metrics.cache_hits;
                            misses += r.metrics.cache_misses;
                        }
                        Err(ringsampler::SamplerError::OutOfMemory { .. }) => {
                            failed = true;
                            break;
                        }
                        Err(e) => return Err(e.into()),
                    }
                }
                if failed {
                    ("OOM".to_string(), 0.0)
                } else {
                    (
                        format!("{:.3}", total / h.epochs as f64),
                        if hits + misses == 0 {
                            0.0
                        } else {
                            hits as f64 / (hits + misses) as f64 * 100.0
                        },
                    )
                }
            }
            Err(ringsampler::SamplerError::OutOfMemory { .. }) => ("OOM".to_string(), 0.0),
            Err(e) => return Err(e.into()),
        };

        eprintln!("  {threads} threads: unlimited={unlimited:.3}s constrained={constrained}");
        rows.push(format!(
            "{:<10} {:>16.3} {:>18} {:>11.1}%",
            threads, unlimited, constrained, hit
        ));
    }
    ringsampler_bench::emit_table("fig8_threads", &header, &rows)?;
    sink.finish()?;
    h.serve_linger();
    Ok(())
}
