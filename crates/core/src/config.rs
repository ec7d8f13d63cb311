//! Sampler configuration (paper §4.1 defaults).

use ringsampler_io::EngineKind;

use crate::error::{Result, SamplerError};
use crate::memory::MemoryBudget;
use crate::plan::ReadPlanMode;
use crate::telemetry::TelemetryConfig;

/// Neighbor caching policy layered over the edge file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CachePolicy {
    /// No caching: every sampled entry is a 4-byte disk read (the paper's
    /// core design).
    #[default]
    None,
    /// A static, profiled hot set of edge-file pages (see [`crate::cache`]):
    /// `RingSampler::new` samples one batch of salted targets, scores each
    /// page by the draws expected to land on it, and reads the top
    /// `budget_bytes / 4096` pages once into one read-only region that
    /// every worker shares. Entries on those pages are served from memory;
    /// the rest are read as whole pages. The budget explains Fig. 8's 32-
    /// vs 64-thread crossover under a 4 GB limit.
    Page {
        /// Size of the hot set in bytes, for the whole sampler (not per
        /// worker), charged once against the memory budget.
        budget_bytes: u64,
    },
}

/// Full sampler configuration.
///
/// Defaults mirror the paper's §4.1 setup: 3 layers with fanout
/// `[20, 15, 10]`, mini-batch size 1024, 64 threads (clamped to available
/// parallelism), ring size 512, completion polling.
#[derive(Debug, Clone)]
pub struct SamplerConfig {
    /// Per-layer fanouts, outermost first.
    pub fanouts: Vec<usize>,
    /// Target nodes per mini-batch.
    pub batch_size: usize,
    /// Worker thread count.
    pub num_threads: usize,
    /// io_uring ring size / I/O group queue depth.
    pub ring_entries: u32,
    /// Force an I/O engine (`None` = best available).
    pub engine: Option<EngineKind>,
    /// Neighbor caching policy.
    pub cache: CachePolicy,
    /// Memory budget all allocations are charged against.
    pub budget: MemoryBudget,
    /// RNG seed; sampling is deterministic per (seed, batch index),
    /// independent of thread count and ring size. Every layer draws its
    /// targets in node order (duplicate seeds adjacently), so a batch's
    /// (seed, neighbour) pairs do not depend on the order of its seeds.
    pub seed: u64,
    /// Sample neighbors **with replacement** (DGL `replace=True`
    /// semantics): always draw exactly `fanout` neighbors when the node
    /// has any, duplicates allowed. Default: without replacement
    /// ("up to fanout", the paper's Fig. 1 semantics).
    pub with_replacement: bool,
    /// Capacity of each worker's `ringtrace` lifecycle event ring
    /// (per-thread; fixed-size, recording drops instead of blocking when
    /// full — see `ringstat::EventRing`). 0 disables event recording.
    pub trace_capacity: usize,
    /// Read-plan optimization for the per-layer entry fetch (see
    /// [`crate::plan`]). `Off` (default) issues the paper-faithful one
    /// read per sampled entry, bit-identical to pre-planner behavior.
    pub read_plan: ReadPlanMode,
    /// Live telemetry (`ringscope`): when set, every worker publishes a
    /// per-batch snapshot through a seqlock slot and an embedded HTTP
    /// server exposes `/metrics`, `/progress`, `/healthz` and `/trace`
    /// plus a stall watchdog.
    /// `None` (default) adds zero work to the hot path.
    pub telemetry: Option<TelemetryConfig>,
}

impl Default for SamplerConfig {
    fn default() -> Self {
        Self {
            fanouts: vec![20, 15, 10],
            batch_size: 1024,
            num_threads: default_threads(),
            ring_entries: 512,
            engine: None,
            cache: CachePolicy::None,
            budget: MemoryBudget::unlimited(),
            seed: 0x5EED,
            with_replacement: false,
            trace_capacity: 8192,
            read_plan: ReadPlanMode::Off,
            telemetry: None,
        }
    }
}

/// The paper runs with 64 threads; we clamp to this machine's parallelism.
fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get().min(64))
        .unwrap_or(8)
}

impl SamplerConfig {
    /// Starts from the paper's defaults.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets per-layer fanouts (outermost first), e.g. `[20, 15, 10]`.
    pub fn fanouts(mut self, fanouts: &[usize]) -> Self {
        self.fanouts = fanouts.to_vec();
        self
    }

    /// Sets the mini-batch size.
    pub fn batch_size(mut self, n: usize) -> Self {
        self.batch_size = n;
        self
    }

    /// Sets the worker thread count.
    pub fn threads(mut self, n: usize) -> Self {
        self.num_threads = n;
        self
    }

    /// Sets the ring size (queue depth per I/O group).
    pub fn ring_entries(mut self, n: u32) -> Self {
        self.ring_entries = n;
        self
    }

    /// Forces a specific I/O engine.
    pub fn engine(mut self, kind: EngineKind) -> Self {
        self.engine = Some(kind);
        self
    }

    /// Selects the cache policy.
    pub fn cache(mut self, policy: CachePolicy) -> Self {
        self.cache = policy;
        self
    }

    /// Attaches a memory budget.
    pub fn budget(mut self, budget: MemoryBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Sets the RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Switches to sampling with replacement (DGL `replace=True`).
    pub fn with_replacement(mut self, enable: bool) -> Self {
        self.with_replacement = enable;
        self
    }

    // No-ops: the span log is gone and `ringprof` is always on. Kept only
    // because the frozen `benchmark/src/layers.rs` calls
    // `.span_capacity(0).profile_resources(false)`; they leave with it.
    #[doc(hidden)]
    pub fn span_capacity(self, _: usize) -> Self {
        self
    }

    #[doc(hidden)]
    pub fn profile_resources(self, _: bool) -> Self {
        self
    }

    /// Sets the per-worker lifecycle event-ring capacity (0 disables
    /// `ringtrace` event recording).
    pub fn trace_capacity(mut self, n: usize) -> Self {
        self.trace_capacity = n;
        self
    }

    /// Selects the read-plan optimization (default [`ReadPlanMode::Off`]).
    pub fn read_plan(mut self, mode: ReadPlanMode) -> Self {
        self.read_plan = mode;
        self
    }

    /// Enables live telemetry (`ringscope`): snapshot publishing, the
    /// embedded `/metrics` · `/progress` · `/healthz` server, and the
    /// stall watchdog.
    pub fn telemetry(mut self, cfg: TelemetryConfig) -> Self {
        self.telemetry = Some(cfg);
        self
    }

    /// Sets or clears telemetry from an `Option` (handy for CLI plumbing
    /// where `--serve` may be absent).
    pub fn telemetry_opt(mut self, cfg: Option<TelemetryConfig>) -> Self {
        self.telemetry = cfg;
        self
    }

    /// Number of GNN layers (= hops) this configuration samples.
    pub fn num_layers(&self) -> usize {
        self.fanouts.len()
    }

    /// Validates invariants.
    ///
    /// # Errors
    /// [`SamplerError::InvalidConfig`] listing the violated constraint.
    pub fn validate(&self) -> Result<()> {
        if self.fanouts.is_empty() {
            return Err(SamplerError::InvalidConfig("fanouts must be non-empty".into()));
        }
        if self.fanouts.contains(&0) {
            return Err(SamplerError::InvalidConfig("fanout of 0 is meaningless".into()));
        }
        if self.batch_size == 0 {
            return Err(SamplerError::InvalidConfig("batch_size must be positive".into()));
        }
        if self.num_threads == 0 {
            return Err(SamplerError::InvalidConfig("need at least one thread".into()));
        }
        if self.ring_entries == 0 {
            return Err(SamplerError::InvalidConfig("ring_entries must be positive".into()));
        }
        if let CachePolicy::Page { budget_bytes } = self.cache {
            if budget_bytes == 0 {
                return Err(SamplerError::InvalidConfig(
                    "page cache budget must be positive".into(),
                ));
            }
        }
        if let ReadPlanMode::Coalesce { gap } = self.read_plan {
            if gap > 1 << 20 {
                return Err(SamplerError::InvalidConfig(
                    "coalesce gap above 1 MiB defeats the point of scattered reads".into(),
                ));
            }
        }
        if let Some(t) = &self.telemetry {
            t.validate()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = SamplerConfig::default();
        assert_eq!(c.fanouts, vec![20, 15, 10]);
        assert_eq!(c.batch_size, 1024);
        assert_eq!(c.ring_entries, 512);
        assert_eq!(c.cache, CachePolicy::None);
        assert_eq!(c.trace_capacity, 8192);
        assert!(c.validate().is_ok());
        assert_eq!(SamplerConfig::new().trace_capacity(0).trace_capacity, 0);
    }

    #[test]
    fn builder_chain() {
        let c = SamplerConfig::new()
            .fanouts(&[5, 5])
            .batch_size(64)
            .threads(2)
            .ring_entries(32)
            .seed(7);
        assert_eq!(c.num_layers(), 2);
        assert_eq!(c.batch_size, 64);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn validation_catches_bad_configs() {
        assert!(SamplerConfig::new().fanouts(&[]).validate().is_err());
        assert!(SamplerConfig::new().fanouts(&[5, 0]).validate().is_err());
        assert!(SamplerConfig::new().batch_size(0).validate().is_err());
        assert!(SamplerConfig::new().threads(0).validate().is_err());
        assert!(SamplerConfig::new().ring_entries(0).validate().is_err());
        assert!(SamplerConfig::new()
            .cache(CachePolicy::Page { budget_bytes: 0 })
            .validate()
            .is_err());
        assert!(SamplerConfig::new()
            .read_plan(ReadPlanMode::Coalesce { gap: 2 << 20 })
            .validate()
            .is_err());
        assert!(SamplerConfig::new()
            .telemetry(TelemetryConfig::new(""))
            .validate()
            .is_err());
        assert!(SamplerConfig::new()
            .telemetry(
                TelemetryConfig::new("127.0.0.1:0")
                    .poll_interval(std::time::Duration::ZERO)
            )
            .validate()
            .is_err());
    }

    #[test]
    fn telemetry_defaults_off_and_builds() {
        assert!(SamplerConfig::default().telemetry.is_none());
        let c = SamplerConfig::new().telemetry(TelemetryConfig::new("127.0.0.1:0"));
        assert!(c.telemetry.is_some());
        assert!(c.validate().is_ok());
        let c = c.telemetry_opt(None);
        assert!(c.telemetry.is_none());
    }

    #[test]
    fn read_plan_defaults_off_and_builds() {
        let c = SamplerConfig::default();
        assert!(c.read_plan.is_off());
        let c = SamplerConfig::new().read_plan(ReadPlanMode::coalesce());
        assert!(!c.read_plan.is_off());
        assert!(c.validate().is_ok());
    }

    #[test]
    fn default_thread_count_positive() {
        assert!(SamplerConfig::default().num_threads >= 1);
        assert!(SamplerConfig::default().num_threads <= 64);
    }
}
