//! Prefetching data loader (paper §5, "End-to-end implementation"):
//! a background thread drives a [`SamplerWorker`](ringsampler::SamplerWorker)
//! and yields sampled mini-batches through a bounded channel, so sampling
//! (CPU + io_uring) overlaps with model computation — the decoupling the
//! paper proposes for integrating RingSampler into DGL's DataLoader.
//!
//! When the sampler was built with telemetry
//! ([`SamplerConfig::telemetry`](ringsampler::SamplerConfig::telemetry)),
//! the prefetch worker automatically publishes `ringscope` snapshots: it
//! shows up as one more worker row under `GET /metrics` / `GET /progress`
//! and is covered by the stall watchdog like any epoch worker.

use std::sync::mpsc::{sync_channel, Receiver};
use std::thread::JoinHandle;
use std::time::Instant;

use ringsampler::{BatchSample, Result, RingSampler, WorkerStats};
use ringsampler_graph::NodeId;

/// An iterator of sampled mini-batches, prefetched asynchronously.
#[derive(Debug)]
pub struct DataLoader {
    /// `None` only during drop (the receiver is released before joining
    /// the producer so a blocked `send` unblocks with an error).
    rx: Option<Receiver<Result<(usize, BatchSample)>>>,
    producer: Option<JoinHandle<WorkerStats>>,
    batches: usize,
}

impl DataLoader {
    /// Starts prefetching mini-batches over `targets` with up to
    /// `prefetch` sampled batches buffered ahead of the consumer.
    ///
    /// # Errors
    /// Fails if the sampler worker cannot be created (ring setup, memory
    /// budget).
    pub fn new(sampler: &RingSampler, targets: Vec<NodeId>, prefetch: usize) -> Result<Self> {
        let mut worker = sampler.worker()?;
        worker.set_trace_origin(Instant::now());
        let batch_size = sampler.config().batch_size;
        let batches = targets.len().div_ceil(batch_size.max(1));
        let (tx, rx) = sync_channel(prefetch.max(1));
        let producer = std::thread::spawn(move || {
            for (i, chunk) in targets.chunks(batch_size).enumerate() {
                let item = worker.sample_batch(chunk, i as u64).map(|s| (i, s));
                let failed = item.is_err();
                if tx.send(item).is_err() || failed {
                    // Consumer dropped, or sampling failed: still hand the
                    // stats back so the epoch report covers partial runs.
                    return worker.take_stats();
                }
            }
            worker.take_stats()
        });
        Ok(Self {
            rx: Some(rx),
            producer: Some(producer),
            batches,
        })
    }

    /// Total number of batches this loader will yield.
    pub fn num_batches(&self) -> usize {
        self.batches
    }

    /// Consumes the loader and returns the producer worker's accumulated
    /// stats (counters, latency histograms, trace events). Drains any pending
    /// batches first so a blocked producer can exit. Returns `None` only
    /// if the producer thread panicked.
    pub fn finish(mut self) -> Option<WorkerStats> {
        // Same ordering contract as Drop: release the receiver so a
        // blocked send() unblocks, then join.
        drop(self.rx.take());
        self.producer.take().and_then(|h| h.join().ok())
    }
}

impl Iterator for DataLoader {
    type Item = Result<(usize, BatchSample)>;

    fn next(&mut self) -> Option<Self::Item> {
        self.rx.as_ref()?.recv().ok()
    }
}

impl Drop for DataLoader {
    fn drop(&mut self) {
        // Release the receiver FIRST: a producer blocked in a full
        // channel's send() unblocks with SendError and exits; only then is
        // joining safe. Destructors must not fail: producer panics are
        // ignored.
        drop(self.rx.take());
        if let Some(h) = self.producer.take() {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ringsampler::SamplerConfig;
    use ringsampler_graph::edgefile::write_csr;
    use ringsampler_graph::CsrGraph;

    fn sampler(tag: &str) -> RingSampler {
        let base = std::env::temp_dir().join(format!("rs-gnn-dl-{}-{tag}", std::process::id()));
        let mut edges = Vec::new();
        for v in 0..100u32 {
            for j in 0..(v % 6) {
                edges.push((v, (v + j + 1) % 100));
            }
        }
        let csr = CsrGraph::from_edges(100, edges).unwrap();
        let g = write_csr(&csr, &base).unwrap();
        RingSampler::new(
            g,
            SamplerConfig::new()
                .fanouts(&[3, 2])
                .batch_size(16)
                .threads(1)
                .ring_entries(16),
        )
        .unwrap()
    }

    #[test]
    fn yields_every_batch_in_order() {
        let s = sampler("order");
        let targets: Vec<NodeId> = (0..100).collect();
        let dl = DataLoader::new(&s, targets, 2).unwrap();
        assert_eq!(dl.num_batches(), 7);
        let mut seen = Vec::new();
        for item in dl {
            let (i, batch) = item.unwrap();
            seen.push(i);
            assert!(!batch.seeds().is_empty());
        }
        assert_eq!(seen, (0..7).collect::<Vec<_>>());
    }

    #[test]
    fn early_drop_does_not_hang() {
        let s = sampler("drop");
        let targets: Vec<NodeId> = (0..100).collect();
        let mut dl = DataLoader::new(&s, targets, 1).unwrap();
        let _ = dl.next();
        drop(dl); // must join cleanly even with batches pending
    }

    #[test]
    fn finish_returns_producer_stats() {
        let s = sampler("finish");
        let targets: Vec<NodeId> = (0..100).collect();
        let mut dl = DataLoader::new(&s, targets, 2).unwrap();
        let mut n = 0u64;
        for item in dl.by_ref() {
            item.unwrap();
            n += 1;
        }
        assert_eq!(n, 7);
        let stats = dl.finish().expect("producer stats");
        assert_eq!(stats.metrics.batches, 7);
        let account = stats.account;
        assert_eq!(account.batch_latency.count(), 7);
        assert_eq!(account.total(), account.batch_latency.sum());
        // The producer opened its epoch profile: its resources row carries
        // its stage sums, which fit inside its epoch wall.
        let res = stats.resources.expect("producer resources");
        assert_eq!(res.account.total(), account.total());
        assert!(account.total() <= res.wall_nanos);
    }

    #[test]
    fn finish_after_partial_consumption_does_not_hang() {
        let s = sampler("finish-early");
        let targets: Vec<NodeId> = (0..100).collect();
        let mut dl = DataLoader::new(&s, targets, 1).unwrap();
        let _ = dl.next();
        // The producer may be blocked in send(); finish() must still
        // unblock and join it, returning whatever it sampled so far.
        let stats = dl.finish().expect("producer stats");
        assert!(stats.metrics.batches >= 1);
    }

    #[test]
    fn batches_match_direct_worker() {
        let s = sampler("match");
        let targets: Vec<NodeId> = (0..48).collect();
        let dl = DataLoader::new(&s, targets.clone(), 2).unwrap();
        let mut w = s.worker().unwrap();
        for item in dl {
            let (i, got) = item.unwrap();
            let expect = w
                .sample_batch(&targets[i * 16..(i + 1) * 16], i as u64)
                .unwrap();
            assert_eq!(got, expect);
        }
    }
}
