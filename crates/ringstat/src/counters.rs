//! What a worker counts: the flat counters accumulated while sampling,
//! merged across threads at epoch join and published whole in every live
//! snapshot.

/// Counters accumulated while sampling (mergeable across threads).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SampleMetrics {
    /// Mini-batches processed.
    pub batches: u64,
    /// Layer-sampling passes executed.
    pub layers: u64,
    /// Target nodes processed (summed over layers).
    pub targets: u64,
    /// Neighbor entries sampled (= edges in the output blocks).
    pub sampled_edges: u64,
    /// Individual disk read requests issued.
    pub io_requests: u64,
    /// Bytes read from disk.
    pub io_bytes: u64,
    /// I/O groups submitted.
    pub io_groups: u64,
    /// Syscalls issued by the I/O engine.
    pub syscalls: u64,
    /// Sampled entries served from the hot set (0 when caching is off).
    pub cache_hits: u64,
    /// Sampled entries the hot set does not hold (read from the file).
    pub cache_misses: u64,
    /// Read requests issued after read planning (0 with `read_plan = Off`).
    pub reads_planned: u64,
    /// Read requests the planner eliminated via dedup/coalescing, relative
    /// to the naive one-read-per-entry plan.
    pub reads_saved: u64,
    /// Payload bytes the planner avoided transferring (saturating: a gap
    /// merge that reads more than it saves contributes 0).
    pub bytes_saved: u64,
}

impl SampleMetrics {
    /// Every counter as `(wire key, Prometheus help, value)`, in report
    /// order. This list alone is the epoch report's `counters` block and
    /// its `ringsampler_{key}_total` families; a counter without help gets
    /// no family.
    pub fn counters(&self) -> [(&'static str, Option<&'static str>, u64); 13] {
        [
            ("batches", Some("Mini-batches sampled"), self.batches),
            ("layers", None, self.layers),
            ("targets", None, self.targets),
            ("sampled_edges", Some("Neighbor entries sampled"), self.sampled_edges),
            ("io_requests", Some("Individual disk read requests"), self.io_requests),
            ("io_bytes", Some("Bytes read from disk"), self.io_bytes),
            ("io_groups", Some("I/O groups submitted"), self.io_groups),
            ("syscalls", Some("Syscalls issued by the I/O engine"), self.syscalls),
            ("cache_hits", Some("Sampled entries served from the hot set"), self.cache_hits),
            ("cache_misses", Some("Sampled entries the hot set does not hold"), self.cache_misses),
            ("reads_planned", Some("Read requests issued after read planning"), self.reads_planned),
            ("reads_saved", Some("Read requests eliminated by dedup/coalescing"), self.reads_saved),
            ("bytes_saved", Some("Payload bytes the read planner avoided transferring"), self.bytes_saved),
        ]
    }

    /// Merges `other` into `self`.
    pub fn merge(&mut self, other: &SampleMetrics) {
        self.batches += other.batches;
        self.layers += other.layers;
        self.targets += other.targets;
        self.sampled_edges += other.sampled_edges;
        self.io_requests += other.io_requests;
        self.io_bytes += other.io_bytes;
        self.io_groups += other.io_groups;
        self.syscalls += other.syscalls;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.reads_planned += other.reads_planned;
        self.reads_saved += other.reads_saved;
        self.bytes_saved += other.bytes_saved;
    }

    /// Mean read requests per syscall — the io_uring batching win.
    pub fn requests_per_syscall(&self) -> f64 {
        if self.syscalls == 0 {
            0.0
        } else {
            self.io_requests as f64 / self.syscalls as f64
        }
    }

    /// Mean I/O-engine syscalls per mini-batch.
    pub fn syscalls_per_batch(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.syscalls as f64 / self.batches as f64
        }
    }

    /// Mean naive reads folded into each planned read (≥ 1.0 once any
    /// planning ran; 0.0 when `read_plan = Off`). The read-plan optimizer's
    /// headline ratio: naive requests ÷ planned requests.
    pub fn coalesce_ratio(&self) -> f64 {
        if self.reads_planned == 0 {
            0.0
        } else {
            (self.reads_planned + self.reads_saved) as f64 / self.reads_planned as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_list_every_field_once() {
        // Distinct values per field: a field listed twice, or missing from
        // the list, puts a value out of sequence.
        let m = SampleMetrics {
            batches: 1,
            layers: 2,
            targets: 3,
            sampled_edges: 4,
            io_requests: 5,
            io_bytes: 6,
            io_groups: 7,
            syscalls: 8,
            cache_hits: 9,
            cache_misses: 10,
            reads_planned: 11,
            reads_saved: 12,
            bytes_saved: 13,
        };
        let values: Vec<u64> = m.counters().iter().map(|&(_, _, v)| v).collect();
        assert_eq!(values, (1..=13).collect::<Vec<u64>>());
        let mut doubled = m;
        doubled.merge(&m);
        for ((_, _, v), (_, _, w)) in m.counters().iter().zip(doubled.counters()) {
            assert_eq!(2 * v, w, "merge adds every counter");
        }
        let bare: Vec<&str> = m.counters().iter().filter(|c| c.1.is_none()).map(|c| c.0).collect();
        assert_eq!(bare, ["layers", "targets"]);
    }
}
