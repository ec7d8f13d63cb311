#![cfg_attr(not(test), deny(clippy::disallowed_types, clippy::disallowed_methods, clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable, clippy::todo, clippy::unimplemented, clippy::indexing_slicing, clippy::allow_attributes, clippy::allow_attributes_without_reason))]
//! Read-plan optimizer for the per-layer entry fetch.
//!
//! The paper's core I/O pattern (Fig. 2 steps 4–6) issues one 4-byte read
//! per sampled neighbor. With-replacement sampling of a hub node repeats
//! the *same* entry index many times, and a node's fanout samples often
//! land within bytes of each other inside one neighbor range — i.e. on the
//! same 4 KiB SSD page. The [`ReadPlanner`] turns a layer's raw entry list
//! into a minimal request list:
//!
//! 1. **Sort** a scratch index permutation (never the entries themselves —
//!    `src_pos` alignment in the caller must survive planning).
//! 2. **Coalesce** in one greedy pass: an exact repeat is served by the
//!    read that already covers it, and runs whose byte extents fall within
//!    a configurable gap threshold (default: one 4 KiB page; `0` merges
//!    only repeats and exact neighbours, so no junk byte is read) become
//!    single larger [`ReadSlice`]s, bounded by [`MAX_COALESCED_BYTES`].
//! 3. Expose the sorted order ([`ReadPlanner::perm`]): slices are sorted
//!    and disjoint, so the entries one slice serves are a contiguous run of
//!    `perm`, and the worker decodes each completed slice straight into the
//!    output slots of its run — no payload is ever concatenated. The
//!    **scatter map** (every original position's byte offset inside the
//!    concatenation of all slices) is kept for callers that do materialise
//!    the payload (the benchmark's layer walk, the planner's own oracle).
//!
//! All scratch is reused across calls; the planner's footprint is
//! `O(layer width)` — 4 bytes per entry plus the slice list, 12 with the
//! scatter map — and with the worker's byte-capped group buffers that is
//! *all* a planned fetch holds, so the paper's `O(|V| + threads)` memory
//! bound holds in every plan mode.

use ringsampler_io::ReadSlice;

/// Hard cap on a single coalesced slice. Bounds the transient payload a
/// greedy merge can produce on densely-sampled hubs and keeps every planned
/// slice small enough for a registered fixed buffer.
pub const MAX_COALESCED_BYTES: u64 = 64 * 1024;

/// Default coalescing gap: entries within one 4 KiB page-worth of bytes of
/// the previous slice's end are merged (the SSD fetches that page anyway).
pub const DEFAULT_COALESCE_GAP: u32 = 4096;

/// Read-planning policy, selected via `SamplerConfig::read_plan`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReadPlanMode {
    /// Paper-faithful naive plan: one read per sampled entry, in sampling
    /// order. The figure-reproduction binaries run this (default).
    #[default]
    Off,
    /// Sort, read each unique entry once, and merge reads whose byte
    /// extents fall within `gap` bytes of the previous slice's end into
    /// one larger read.
    Coalesce {
        /// Maximum byte gap bridged by a merge. `0` merges only repeats
        /// and exactly adjacent extents: every byte read is a sampled one.
        gap: u32,
    },
}

impl ReadPlanMode {
    /// The default coalescing mode (gap = one 4 KiB page).
    pub fn coalesce() -> Self {
        ReadPlanMode::Coalesce {
            gap: DEFAULT_COALESCE_GAP,
        }
    }

    /// Whether planning is disabled (the naive one-read-per-entry path).
    pub fn is_off(&self) -> bool {
        matches!(self, ReadPlanMode::Off)
    }
}

impl std::str::FromStr for ReadPlanMode {
    type Err = String;

    /// Parses `off`, `coalesce`, or `coalesce:<gap-bytes>`
    /// (case-insensitive) — the format the CLI flags and `RS_READ_PLAN`
    /// environment variable use.
    fn from_str(s: &str) -> std::result::Result<Self, String> {
        let lower = s.trim().to_ascii_lowercase();
        match lower.as_str() {
            "off" | "naive" | "none" => Ok(ReadPlanMode::Off),
            "coalesce" => Ok(ReadPlanMode::coalesce()),
            other => match other.strip_prefix("coalesce:") {
                Some(gap) => gap
                    .parse::<u32>()
                    .map(|gap| ReadPlanMode::Coalesce { gap })
                    .map_err(|e| format!("bad coalesce gap {gap:?}: {e}")),
                None => Err(format!(
                    "unknown read plan {s:?} (expected off|coalesce|coalesce:<bytes>)"
                )),
            },
        }
    }
}

/// Savings achieved by one planning pass, relative to the naive plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PlanStats {
    /// Requests the naive plan would issue (= input entries).
    pub naive_reads: u64,
    /// Requests in the optimized plan.
    pub planned_reads: u64,
    /// Bytes the naive plan would read.
    pub naive_bytes: u64,
    /// Bytes the optimized plan reads (may exceed `naive_bytes` when a
    /// gap merge reads junk between entries — the SQE saving usually wins).
    pub planned_bytes: u64,
}

impl PlanStats {
    /// Requests eliminated relative to the naive plan (never negative:
    /// planning only ever merges requests).
    pub fn reads_saved(&self) -> u64 {
        self.naive_reads.saturating_sub(self.planned_reads)
    }

    /// Bytes of payload no longer transferred (saturates at 0 when gap
    /// merges read more than they save).
    pub fn bytes_saved(&self) -> u64 {
        self.naive_bytes.saturating_sub(self.planned_bytes)
    }

    /// Mean naive requests folded into each planned request (≥ 1.0 when
    /// any planning ran; 0.0 for an empty plan).
    pub fn coalesce_ratio(&self) -> f64 {
        if self.planned_reads == 0 {
            0.0
        } else {
            self.naive_reads as f64 / self.planned_reads as f64
        }
    }

    /// Accumulates another pass's stats into this one.
    pub fn merge(&mut self, other: &PlanStats) {
        self.naive_reads += other.naive_reads;
        self.planned_reads += other.planned_reads;
        self.naive_bytes += other.naive_bytes;
        self.planned_bytes += other.planned_bytes;
    }
}

/// Reusable read-plan builder. One per worker; all scratch survives across
/// layers and epochs so steady-state planning allocates nothing.
#[derive(Debug, Default)]
pub struct ReadPlanner {
    /// Input positions sorted by entry value (empty after an `Off` plan).
    perm: Vec<u32>,
    /// The planned request list, sorted by offset, non-overlapping.
    slices: Vec<ReadSlice>,
    /// Per original input position: byte offset of that entry inside the
    /// concatenation of all planned slices' payloads.
    scatter: Vec<u64>,
}

impl ReadPlanner {
    /// Creates an empty planner.
    pub fn new() -> Self {
        Self::default()
    }

    /// The planned request list from the last [`ReadPlanner::plan`] call:
    /// sorted by offset and non-overlapping (after dedup).
    pub fn slices(&self) -> &[ReadSlice] {
        &self.slices
    }

    /// The input positions of the last [`ReadPlanner::plan`] call, sorted by
    /// entry value: the entries slice `k` serves are the run of `perm` that
    /// follows slice `k - 1`'s. Empty after an `Off` (identity) plan, whose
    /// slice `k` serves exactly position `k`.
    pub fn perm(&self) -> &[u32] {
        &self.perm
    }

    /// The scatter map from the last [`ReadPlanner::plan`] call: entry `i`
    /// of the original input lives at payload byte `scatter()[i]`.
    pub fn scatter(&self) -> &[u64] {
        &self.scatter
    }

    /// Bytes of scratch currently held (for workspace accounting).
    pub fn scratch_bytes(&self) -> usize {
        self.perm.capacity() * std::mem::size_of::<u32>()
            + self.slices.capacity() * std::mem::size_of::<ReadSlice>()
            + self.scatter.capacity() * std::mem::size_of::<u64>()
    }

    /// Builds a read plan for `entries`, where entry `e` occupies the byte
    /// extent `[base + e·stride, base + e·stride + stride)` of the file —
    /// the layout of both the edge-file entry array (`stride` = 4) and the
    /// page-cache miss list (`stride` = page size).
    ///
    /// After the call, [`ReadPlanner::slices`] holds the request list,
    /// [`ReadPlanner::perm`] the sorted order and [`ReadPlanner::scatter`]
    /// maps every original position into the concatenated payload. Input
    /// order is never modified.
    pub fn plan(
        &mut self,
        entries: &[u64],
        base: u64,
        stride: u32,
        mode: ReadPlanMode,
    ) -> PlanStats {
        self.build(entries, base, stride, mode, true)
    }

    /// [`ReadPlanner::plan`] without the scatter map (left empty): for a
    /// caller that decodes slice by slice through [`ReadPlanner::perm`] and
    /// never concatenates the payload, the map is 8 bytes of scratch and
    /// one random store per entry for nothing.
    pub fn plan_slices(
        &mut self,
        entries: &[u64],
        base: u64,
        stride: u32,
        mode: ReadPlanMode,
    ) -> PlanStats {
        self.build(entries, base, stride, mode, false)
    }

    fn build(
        &mut self,
        entries: &[u64],
        base: u64,
        stride: u32,
        mode: ReadPlanMode,
        want_scatter: bool,
    ) -> PlanStats {
        let n = entries.len();
        let stride64 = u64::from(stride);
        let mut stats = PlanStats {
            naive_reads: n as u64,
            planned_reads: 0,
            naive_bytes: n as u64 * stride64,
            planned_bytes: 0,
        };
        self.slices.clear();
        self.scatter.clear();
        self.perm.clear();

        // Positions must fit the u32 scratch permutation; a layer this wide
        // (> 4 Gi entries) cannot occur under any supported batch/fanout
        // config, but degrade to the naive plan rather than truncate.
        let gap = match mode {
            ReadPlanMode::Coalesce { gap } if n > 0 && n <= u32::MAX as usize => u64::from(gap),
            _ => {
                self.slices.reserve(n);
                self.slices.extend(
                    entries
                        .iter()
                        .map(|&e| ReadSlice::new(base + e * stride64, stride)),
                );
                if want_scatter {
                    self.scatter.extend((0..n as u64).map(|i| i * stride64));
                }
                stats.planned_reads = n as u64;
                stats.planned_bytes = n as u64 * stride64;
                return stats;
            }
        };

        // With no scatter map to fill, the `get_mut` stores below find no slot.
        if want_scatter {
            self.scatter.resize(n, 0);
        }
        self.perm.extend(0..n as u32);
        // Stable ordering is irrelevant (equal entries scatter to the same
        // payload byte); unstable sort avoids the merge-sort scratch buffer.
        self.perm
            .sort_unstable_by_key(|&i| entries.get(i as usize).copied().unwrap_or(u64::MAX));

        // Greedy left-to-right merge over the sorted view. `cur` tracks the
        // open slice as (start byte, end byte, payload base).
        let mut payload = 0u64;
        let mut cur: Option<(u64, u64, u64)> = None;
        for &pi in &self.perm {
            let e = entries.get(pi as usize).copied().unwrap_or(0);
            let b = base + e * stride64;
            let merged = match cur {
                // Bridge up to `gap` bytes past the open slice's end, as
                // long as the merged extent respects the cap. An entry
                // already inside the extent (duplicate) never grows it and
                // always merges.
                Some((start, end, pbase))
                    if b <= end.saturating_add(gap)
                        && (b + stride64 <= end
                            || b + stride64 - start <= MAX_COALESCED_BYTES) =>
                {
                    Some(pbase)
                }
                _ => None,
            };
            match (merged, &mut cur) {
                (Some(pbase), Some((start, end, _))) => {
                    if b + stride64 > *end {
                        *end = b + stride64;
                    }
                    if let Some(s) = self.scatter.get_mut(pi as usize) {
                        *s = pbase + (b - *start);
                    }
                }
                _ => {
                    // Close the open slice and start a new one at `b`.
                    if let Some((start, end, _)) = cur.take() {
                        self.slices.push(ReadSlice::new(start, (end - start) as u32));
                        payload += end - start;
                    }
                    cur = Some((b, b + stride64, payload));
                    if let Some(s) = self.scatter.get_mut(pi as usize) {
                        *s = payload;
                    }
                }
            }
        }
        if let Some((start, end, _)) = cur.take() {
            self.slices.push(ReadSlice::new(start, (end - start) as u32));
            payload += end - start;
        }

        stats.planned_reads = self.slices.len() as u64;
        stats.planned_bytes = payload;
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Brute-force oracle: simulate the planned reads against a synthetic
    /// file where byte `i` holds `(i % 251) as u8`, then check that the
    /// scatter map recovers exactly the naive per-entry bytes.
    fn check_scatter(planner: &ReadPlanner, entries: &[u64], base: u64, stride: u32) {
        let file_byte = |b: u64| (b % 251) as u8;
        let mut payload = Vec::new();
        for s in planner.slices() {
            for i in 0..s.len as u64 {
                payload.push(file_byte(s.offset + i));
            }
        }
        assert_eq!(planner.scatter().len(), entries.len());
        for (i, &e) in entries.iter().enumerate() {
            let po = planner.scatter()[i] as usize;
            let want: Vec<u8> = (0..stride as u64)
                .map(|k| file_byte(base + e * stride as u64 + k))
                .collect();
            assert_eq!(
                &payload[po..po + stride as usize],
                &want[..],
                "entry {i} (value {e}) scattered wrong"
            );
        }
    }

    fn assert_invariants(planner: &ReadPlanner, n: usize) {
        let slices = planner.slices();
        assert!(slices.len() as u64 <= n as u64, "plan exceeds naive count");
        for w in slices.windows(2) {
            assert!(w[0].offset < w[1].offset, "slices not sorted");
            assert!(
                w[0].offset + w[0].len as u64 <= w[1].offset,
                "slices overlap"
            );
        }
    }

    #[test]
    fn off_mode_is_identity() {
        let entries = [5u64, 1, 5, 9];
        let mut p = ReadPlanner::new();
        let stats = p.plan(&entries, 16, 4, ReadPlanMode::Off);
        assert_eq!(p.slices().len(), 4);
        assert_eq!(p.slices()[0], ReadSlice::new(16 + 20, 4));
        assert_eq!(p.scatter(), &[0, 4, 8, 12]);
        assert_eq!(stats.naive_reads, 4);
        assert_eq!(stats.planned_reads, 4);
        assert_eq!(stats.reads_saved(), 0);
        check_scatter(&p, &entries, 16, 4);
    }

    #[test]
    fn coalesce_zero_gap_merges_adjacent() {
        let entries = [3u64, 4, 10, 11, 12, 40];
        let mut p = ReadPlanner::new();
        let stats = p.plan(&entries, 8, 4, ReadPlanMode::Coalesce { gap: 0 });
        // {3,4} → one 8-byte slice, {10,11,12} → one 12-byte, {40} alone.
        assert_eq!(p.slices().len(), 3);
        assert_eq!(p.slices()[0], ReadSlice::new(8 + 12, 8));
        assert_eq!(p.slices()[1], ReadSlice::new(8 + 40, 12));
        assert_eq!(stats.planned_bytes, 24);
        assert_eq!(stats.naive_bytes, 24);
        assert_invariants(&p, entries.len());
        check_scatter(&p, &entries, 8, 4);
    }

    #[test]
    fn coalesce_bridges_gaps_and_reads_junk() {
        // Entries 0 and 10 are 40 bytes apart: a 64-byte gap bridges them.
        let entries = [0u64, 10];
        let mut p = ReadPlanner::new();
        let stats = p.plan(&entries, 0, 4, ReadPlanMode::Coalesce { gap: 64 });
        assert_eq!(p.slices().len(), 1);
        assert_eq!(p.slices()[0], ReadSlice::new(0, 44));
        assert_eq!(stats.planned_bytes, 44);
        assert_eq!(stats.naive_bytes, 8);
        assert_eq!(stats.bytes_saved(), 0, "gap reads saturate, never wrap");
        assert_eq!(stats.reads_saved(), 1);
        check_scatter(&p, &entries, 0, 4);
    }

    #[test]
    fn coalesce_respects_max_slice_cap() {
        // A contiguous run long enough to exceed the cap must split.
        let n = 2 * MAX_COALESCED_BYTES / 4;
        let entries: Vec<u64> = (0..n).collect();
        let mut p = ReadPlanner::new();
        p.plan(&entries, 0, 4, ReadPlanMode::coalesce());
        assert!(p.slices().len() >= 2);
        for s in p.slices() {
            assert!(s.len as u64 <= MAX_COALESCED_BYTES);
        }
        assert_invariants(&p, entries.len());
        check_scatter(&p, &entries, 0, 4);
    }

    #[test]
    fn duplicates_inside_extent_never_grow_it() {
        let entries = [5u64, 6, 5, 6, 5];
        let mut p = ReadPlanner::new();
        let stats = p.plan(&entries, 0, 4, ReadPlanMode::Coalesce { gap: 0 });
        assert_eq!(p.slices().len(), 1);
        assert_eq!(p.slices()[0], ReadSlice::new(20, 8));
        assert_eq!(stats.reads_saved(), 4);
        check_scatter(&p, &entries, 0, 4);
    }

    #[test]
    fn skewed_duplicates_shrink_plan_dramatically() {
        // Hub pattern: 90% of samples hit entry 1000.
        let mut entries = vec![1000u64; 90];
        entries.extend((0..10u64).map(|i| i * 5000));
        let mut p = ReadPlanner::new();
        let stats = p.plan(&entries, 8, 4, ReadPlanMode::Coalesce { gap: 0 });
        assert_eq!(stats.naive_reads, 100);
        assert_eq!(stats.planned_reads, 11);
        assert!(stats.coalesce_ratio() > 9.0);
        assert_invariants(&p, entries.len());
        check_scatter(&p, &entries, 8, 4);
    }

    #[test]
    fn perm_runs_partition_entries_by_slice() {
        // The worker's contract: walking the slices in order, the entries
        // each one serves are the next run of `perm` inside its extent, and
        // the runs use `perm` up. `plan_slices` builds the same plan minus
        // the scatter map.
        let entries = [900u64, 3, 17_000, 4, 3, 40_000, 16_999, 5, 900];
        for mode in [ReadPlanMode::Coalesce { gap: 0 }, ReadPlanMode::coalesce()] {
            let mut full = ReadPlanner::new();
            let want = full.plan(&entries, 8, 4, mode);
            let mut p = ReadPlanner::new();
            assert_eq!(p.plan_slices(&entries, 8, 4, mode), want);
            assert_eq!(p.slices(), full.slices());
            assert_eq!(p.perm(), full.perm());
            assert!(p.scatter().is_empty());
            let mut order = p
                .perm()
                .iter()
                .map(|&i| (i, 8 + entries[i as usize] * 4))
                .peekable();
            for s in p.slices() {
                let extent = s.offset..s.offset + s.len as u64;
                let mut served = 0;
                while order
                    .next_if(|(_, b)| extent.contains(b) && b + 4 <= extent.end)
                    .is_some()
                {
                    served += 1;
                }
                assert!(served > 0, "{mode:?}: slice {s:?} serves no entry");
            }
            assert_eq!(order.next(), None, "{mode:?}: entries left unserved");
        }
    }

    #[test]
    fn empty_input_yields_empty_plan() {
        let mut p = ReadPlanner::new();
        let stats = p.plan(&[], 0, 4, ReadPlanMode::coalesce());
        assert!(p.slices().is_empty());
        assert!(p.scatter().is_empty());
        assert_eq!(stats.planned_reads, 0);
        assert_eq!(stats.coalesce_ratio(), 0.0);
    }

    #[test]
    fn scratch_is_reused_across_plans() {
        let mut p = ReadPlanner::new();
        p.plan(&[1, 2, 3, 4, 5], 0, 4, ReadPlanMode::coalesce());
        let cap = p.scratch_bytes();
        p.plan(&[9, 9], 0, 4, ReadPlanMode::Coalesce { gap: 0 });
        assert!(p.scratch_bytes() >= cap.min(1), "scratch retained");
        assert_eq!(p.slices().len(), 1);
        check_scatter(&p, &[9, 9], 0, 4);
    }

    #[test]
    fn mode_parsing_roundtrip() {
        assert_eq!("off".parse::<ReadPlanMode>().unwrap(), ReadPlanMode::Off);
        assert!("dedup".parse::<ReadPlanMode>().is_err(), "removed: coalesce:0 reads the same bytes");
        assert_eq!(
            "coalesce".parse::<ReadPlanMode>().unwrap(),
            ReadPlanMode::Coalesce { gap: DEFAULT_COALESCE_GAP }
        );
        assert_eq!(
            "coalesce:128".parse::<ReadPlanMode>().unwrap(),
            ReadPlanMode::Coalesce { gap: 128 }
        );
        assert!("coalesce:x".parse::<ReadPlanMode>().is_err());
        assert!("bogus".parse::<ReadPlanMode>().is_err());
        assert!(ReadPlanMode::default().is_off());
    }

    #[test]
    fn page_stride_plan_for_cached_path() {
        // Pages 3,4,5 adjacent; 9 isolated. Stride = 4096 (page size).
        let pages = [3u64, 4, 5, 9];
        let mut p = ReadPlanner::new();
        let stats = p.plan(&pages, 0, 4096, ReadPlanMode::Coalesce { gap: 0 });
        assert_eq!(p.slices().len(), 2);
        assert_eq!(p.slices()[0], ReadSlice::new(3 * 4096, 3 * 4096));
        assert_eq!(p.slices()[1], ReadSlice::new(9 * 4096, 4096));
        assert_eq!(stats.reads_saved(), 2);
    }
}
