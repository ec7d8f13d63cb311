#![cfg_attr(not(test), deny(clippy::disallowed_types, clippy::disallowed_methods, clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable, clippy::todo, clippy::unimplemented, clippy::indexing_slicing, clippy::allow_attributes, clippy::allow_attributes_without_reason))]
//! Read-plan optimizer for the per-layer entry fetch.
//!
//! The paper's core I/O pattern (Fig. 2 steps 4–6) issues one 4-byte read
//! per sampled neighbor. With-replacement sampling of a hub node repeats
//! the *same* entry index many times, and a node's fanout samples often
//! land within bytes of each other inside one neighbor range — i.e. on the
//! same 4 KiB SSD page. The planner turns a layer's raw entries into a
//! minimal request list:
//!
//! 1. **Order** the entries into *slice order* — the entries of each
//!    planned slice together, slices ascending — without losing any
//!    entry's output position. A node-wise layer arrives as one run of
//!    draws per target, and targets' offset ranges are disjoint and ascend
//!    with node id, so over a sorted frontier only a run that straddles a
//!    slice boundary needs sorting: the [`RunWalk`] takes every other run
//!    whole, in draw order, from its least and greatest entry. Runs that
//!    do not ascend, and [`ReadPlanner::plan`], take one comparison sort.
//! 2. **Coalesce** in one greedy pass: an exact repeat is served by the
//!    read that already covers it, and runs whose byte extents fall within
//!    a configurable gap threshold (default: one 4 KiB page; `0` merges
//!    only repeats and exact neighbours, so no junk byte is read) become
//!    single larger [`ReadSlice`]s, bounded by [`MAX_COALESCED_BYTES`].
//! 3. **Hand out** the plan a group at a time. The walk is fed a layer a
//!    few runs at a time, as the worker draws it; it queues the slices it
//!    closes, each with the number of entries it serves, and gives each
//!    entry its byte in the slices' concatenated payload, so the worker
//!    decodes a completed group straight into the output and never holds
//!    the layer's entries or slices at once. [`ReadPlanner`] plans a whole
//!    input for callers that want every slice up front — the benchmark's
//!    layer walk, with its **scatter map** (every input's payload byte),
//!    and the planner's own oracle.
//!
//! All scratch is reused across calls. A walk holds a drawn chunk's runs
//! and the slices not yet handed out, so with the worker's byte-capped
//! group buffers what a planned fetch holds is bounded by its groups, not
//! by the layer, and the paper's `O(|V| + threads)` memory bound holds in
//! every plan mode.

use std::collections::VecDeque;

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

/// The least and greatest of `keys`; `(u64::MAX, 0)` when there are none.
fn key_range(keys: impl Iterator<Item = u64>) -> (u64, u64) {
    // A plain loop: a `fold` over the pair measured twice as slow.
    let (mut lo, mut hi) = (u64::MAX, 0);
    for k in keys {
        lo = lo.min(k);
        hi = hi.max(k);
    }
    (lo, hi)
}

/// Whether each non-empty run of `pairs` (cut as [`RunWalk::runs`] cuts
/// them) starts at or above the key the run before it ended on.
fn runs_ascend(pairs: &[(u64, u32)], run_ends: &[u32], key: impl Fn(u64) -> u64) -> bool {
    let (mut lo, mut floor) = (0, 0);
    for end in run_ends.iter().map(|&e| e as usize).chain([pairs.len()]) {
        let hi = end.clamp(lo, pairs.len());
        let (least, most) = key_range(pairs.get(lo..hi).unwrap_or_default().iter().map(|p| key(p.0)));
        lo = hi;
        if least > most {
            continue;
        }
        if least < floor {
            return false;
        }
        floor = most;
    }
    true
}

/// The greedy left-to-right merge: entries arrive as byte offsets in
/// ascending order (repeats allowed), and each joins the open slice or
/// closes it and opens the next.
#[derive(Debug, Clone, Copy)]
struct Merge {
    stride: u64,
    gap: u64,
    /// Byte ceiling of one slice.
    cap: u64,
    /// The open slice as (start byte, end byte, payload byte of its start).
    open: Option<(u64, u64, u64)>,
    /// Payload bytes of the closed slices.
    payload: u64,
    /// Slices closed so far.
    closed: u64,
    /// Distinct bytes taken so far, and the last of them.
    keys: u64,
    last: Option<u64>,
}

impl Merge {
    fn new(stride: u64, gap: u64, cap: u64) -> Self {
        Merge { stride, gap, cap, open: None, payload: 0, closed: 0, keys: 0, last: None }
    }

    /// The open slice's start, if an entry at byte `b` joins it: `b` lies
    /// within `gap` past its end and the grown slice keeps to the cap. An
    /// entry already inside the extent (a repeat) never grows it and always
    /// joins.
    fn joins(&self, b: u64) -> Option<u64> {
        let (start, end, _) = self.open?;
        let fits = b + self.stride <= end || b + self.stride - start <= self.cap;
        (b <= end.saturating_add(self.gap) && fits).then_some(start)
    }

    /// Whether entries from byte `lo` to byte `hi` all land in the slice
    /// `lo` joins or opens: each starts within `gap` of the end of `lo`'s
    /// extent and none reaches past the cap, so taking `lo` and `hi` alone
    /// builds the slice the sorted merge does.
    fn takes_whole(&self, lo: u64, hi: u64) -> bool {
        let start = self.joins(lo).unwrap_or(lo);
        hi - lo <= self.gap + self.stride && hi + self.stride - start <= self.cap
    }

    /// Takes the entry at byte `b`, at or above every entry taken so far,
    /// and returns its byte in the concatenated payload.
    fn take(&mut self, b: u64, slices: &mut impl Extend<ReadSlice>) -> u64 {
        if self.last != Some(b) {
            self.keys += 1;
            self.last = Some(b);
        }
        if let (Some(start), Some((_, end, pbase))) = (self.joins(b), &mut self.open) {
            *end = (*end).max(b + self.stride);
            return *pbase + (b - start);
        }
        self.close(slices);
        self.open = Some((b, b + self.stride, self.payload));
        self.payload
    }

    /// Closes the open slice, if any, onto `slices`; returns the payload
    /// bytes of every slice closed so far.
    fn close(&mut self, slices: &mut impl Extend<ReadSlice>) -> u64 {
        if let Some((start, end, _)) = self.open.take() {
            slices.extend([ReadSlice::new(start, (end - start) as u32)]);
            self.payload += end - start;
            self.closed += 1;
        }
        self.payload
    }
}

/// The planner's run walk, incremental: a layer is fed to it a few runs at
/// a time, as it is drawn, and the slices it closes wait in it to be taken
/// a group at a time ([`RunWalk::group`]), so neither the entries nor the
/// slices of the whole layer are held at once. It builds the slices and
/// stats [`ReadPlanner::plan`] builds.
///
/// Entries travel as (byte, tag) pairs and a `key` maps each byte to the
/// byte the merge takes: the entry's own, or the start of its page when
/// the requests are whole pages. A run whose keys land whole in one slice —
/// the open one, or the one it opens — joins it in draw order; only a run
/// that straddles a slice boundary (a hub whose draws spread wider than
/// the gap, or a run that crosses the cap) is sorted. Either way the run is
/// left in slice order, each pair's byte replaced by its entry's byte in
/// the concatenated payload of the slices: the pairs a slice serves follow
/// the previous slice's, and the walk counts them. Under `Off` every entry
/// is its own slice, in the order given, repeats included.
#[derive(Debug, Default)]
pub struct RunWalk {
    /// `None` under `Off`.
    merge: Option<Merge>,
    stride: u32,
    /// The greatest key of the runs taken so far.
    floor: u64,
    /// Pairs taken so far, and how many of them the closed slices serve.
    entries: u64,
    served: u64,
    /// Closed slices not yet taken, ascending, each with the pairs it serves.
    slices: VecDeque<(ReadSlice, u32)>,
    /// The layer has no more entries: every slice is closed.
    closed: bool,
}

/// A walk's running totals: see [`RunWalk::counts`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WalkCounts {
    /// Pairs taken.
    pub entries: u64,
    /// Distinct keys taken (every pair's under `Off`).
    pub keys: u64,
    /// Slices closed.
    pub slices: u64,
    /// Payload bytes of the closed slices.
    pub bytes: u64,
}

impl RunWalk {
    /// Starts a fresh walk over entries of `stride` bytes, merged as `mode`
    /// says into slices of at most `cap` bytes. Keeps the slice queue's
    /// capacity.
    pub fn start(&mut self, stride: u32, mode: ReadPlanMode, cap: u64) {
        self.merge = match mode {
            ReadPlanMode::Off => None,
            ReadPlanMode::Coalesce { gap } => {
                Some(Merge::new(u64::from(stride), u64::from(gap), cap))
            }
        };
        self.stride = stride;
        self.floor = 0;
        self.entries = 0;
        self.served = 0;
        self.slices.clear();
        self.closed = false;
    }

    /// Takes `pairs`, cut into runs by `run_ends` — run `k` holds the pairs
    /// at or above `run_ends[k - 1]` and below `run_ends[k]`, and the pairs
    /// past the last end form one final run, so `&[]` is one run — leaving
    /// each run in slice order with its bytes replaced by payload bytes.
    ///
    /// Runs must ascend: each starts at or above the key the one before it
    /// ended on, which a frontier in node order guarantees. If they do not
    /// and the walk has taken nothing yet — the layer is planned whole — it
    /// takes all of `pairs` in one comparison sort instead. Otherwise it
    /// returns `false`, having taken runs up to the one that broke the order.
    pub fn runs(
        &mut self,
        pairs: &mut [(u64, u32)],
        run_ends: &[u32],
        key: impl Fn(u64) -> u64,
    ) -> bool {
        let Some(mut merge) = self.merge else {
            let first = self.entries;
            self.each(pairs.iter().map(|p| p.0));
            for (p, i) in pairs.iter_mut().zip(first..) {
                p.0 = i * u64::from(self.stride);
            }
            return true;
        };
        if merge.open.is_none() && merge.closed == 0 && !runs_ascend(pairs, run_ends, &key) {
            // sort: the fallback, for a layer planned whole whose runs do not
            // ascend (the first layer's caller-ordered seeds); a layer drawn
            // in frontier order never reaches it.
            pairs.sort_unstable_by_key(|p| key(p.0));
            self.take_each(&mut merge, pairs, &key);
            self.floor = merge.last.unwrap_or(0);
            self.merge = Some(merge);
            return true;
        }
        let mut lo = 0;
        let mut held = true;
        for end in run_ends.iter().map(|&e| e as usize).chain([pairs.len()]) {
            let hi = end.clamp(lo, pairs.len());
            let Some(run) = pairs.get_mut(lo..hi) else {
                break;
            };
            lo = hi;
            if run.is_empty() {
                continue;
            }
            let (least, most) = key_range(run.iter().map(|p| key(p.0)));
            if least < self.floor {
                held = false;
                break;
            }
            self.floor = most;
            if merge.takes_whole(least, most) {
                self.take(&mut merge, least);
                self.take(&mut merge, most);
                if let Some((start, _, at)) = merge.open {
                    run.iter_mut().for_each(|p| p.0 = at + (p.0 - start));
                }
                self.entries += run.len() as u64;
            } else {
                // sort: one target's draws, at most its fanout, and only when
                // they straddle a slice boundary.
                run.sort_unstable_by_key(|p| key(p.0));
                self.take_each(&mut merge, run, &key);
            }
        }
        self.merge = Some(merge);
        held
    }

    /// Takes `run`, sorted by key, one pair at a time.
    fn take_each(&mut self, merge: &mut Merge, run: &mut [(u64, u32)], key: impl Fn(u64) -> u64) {
        for p in run.iter_mut() {
            let k = key(p.0);
            p.0 = self.take(merge, k) + (p.0 - k);
            self.entries += 1;
        }
    }

    /// Takes `key` into `merge`; a slice it closes serves the pairs taken
    /// since the one before it closed. Returns the key's payload byte.
    fn take(&mut self, merge: &mut Merge, key: u64) -> u64 {
        let closed = merge.closed;
        let at = merge.take(key, &mut Served(&mut self.slices));
        if merge.closed > closed {
            self.close_served();
        }
        at
    }

    /// Marks the pairs taken since the last slice closed as served by the
    /// slice that just closed.
    fn close_served(&mut self) {
        if let Some(last) = self.slices.back_mut() {
            last.1 = (self.entries - self.served) as u32;
        }
        self.served = self.entries;
    }

    /// Takes the entries at `bytes` under `Off`: each its own slice, in
    /// the order given.
    pub fn each(&mut self, bytes: impl Iterator<Item = u64>) {
        let before = self.slices.len();
        let stride = self.stride;
        self.slices.extend(bytes.map(|b| (ReadSlice::new(b, stride), 1)));
        self.entries += (self.slices.len() - before) as u64;
        self.served = self.entries;
    }

    /// Closes the open slice: the layer has no more entries.
    pub fn close(&mut self) {
        if let Some(mut merge) = self.merge {
            let closed = merge.closed;
            merge.close(&mut Served(&mut self.slices));
            if merge.closed > closed {
                self.close_served();
            }
            self.merge = Some(merge);
        }
        self.closed = true;
    }

    /// Moves the next group's slices, each cut at byte `end`, off the front
    /// of the closed ones into `group` once the group is known, and returns
    /// their payload bytes and the pairs they serve: `qd` slices, or those
    /// before the first that would carry the group past `max_bytes` (a
    /// larger one travels alone), or, once the walk is closed, whatever is
    /// left — nothing when all has been taken. `None` while slices still to
    /// close could join the group.
    pub fn group(
        &mut self,
        qd: usize,
        max_bytes: usize,
        end: u64,
        group: &mut Vec<ReadSlice>,
    ) -> Option<(usize, usize)> {
        let cut = |r: ReadSlice| {
            ReadSlice::new(r.offset, u64::from(r.len).min(end.saturating_sub(r.offset)) as u32)
        };
        let (mut k, mut bytes) = (0, 0);
        for &(r, _) in &self.slices {
            let len = cut(r).len as usize;
            if k == qd || (k > 0 && bytes + len > max_bytes) {
                break;
            }
            bytes += len;
            k += 1;
        }
        if k < qd && k == self.slices.len() && !self.closed {
            return None;
        }
        let mut pairs = 0;
        group.extend(self.slices.drain(..k).map(|(r, n)| {
            pairs += n as usize;
            cut(r)
        }));
        Some((bytes, pairs))
    }

    /// The walk's totals since [`RunWalk::start`].
    pub fn counts(&self) -> WalkCounts {
        match &self.merge {
            Some(m) => WalkCounts {
                entries: self.entries,
                keys: m.keys,
                slices: m.closed,
                bytes: m.payload,
            },
            None => WalkCounts {
                entries: self.entries,
                keys: self.entries,
                slices: self.entries,
                bytes: self.entries * u64::from(self.stride),
            },
        }
    }

    /// The plan stats of what the walk took since it counted `before`: a
    /// naive read per entry, or with `per_key` per distinct key (the pages
    /// a page walk reads), of `stride` bytes each.
    pub fn stats_since(&self, before: WalkCounts, per_key: bool) -> PlanStats {
        let now = self.counts();
        let naive = if per_key { now.keys - before.keys } else { now.entries - before.entries };
        PlanStats {
            naive_reads: naive,
            planned_reads: now.slices - before.slices,
            naive_bytes: naive * u64::from(self.stride),
            planned_bytes: now.bytes - before.bytes,
        }
    }

    /// Bytes of scratch held.
    pub fn scratch_bytes(&self) -> usize {
        self.slices.capacity() * std::mem::size_of::<(ReadSlice, u32)>()
    }
}

/// Closed slices as a [`RunWalk`] queues them: each with the pairs it
/// serves, counted once it is closed.
struct Served<'a>(&'a mut VecDeque<(ReadSlice, u32)>);

impl Extend<ReadSlice> for Served<'_> {
    fn extend<I: IntoIterator<Item = ReadSlice>>(&mut self, slices: I) {
        self.0.extend(slices.into_iter().map(|r| (r, 0)));
    }
}

/// Whole-input read-plan builder, for callers that want every slice of an
/// input up front and the scatter map of its payload: the benchmark's layer
/// walk and the planner's own oracle. Its scratch survives across calls.
#[derive(Debug, Default)]
pub struct ReadPlanner {
    /// Input positions sorted by entry: the order the merge takes them in.
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
    /// After the call, [`ReadPlanner::slices`] holds the request list and
    /// [`ReadPlanner::scatter`] maps every original position into the
    /// concatenated payload. Input order is never modified.
    pub fn plan(
        &mut self,
        entries: &[u64],
        base: u64,
        stride: u32,
        mode: ReadPlanMode,
    ) -> PlanStats {
        let n = entries.len();
        let bytes = n as u64 * u64::from(stride);
        let mut stats = PlanStats {
            naive_reads: n as u64,
            planned_reads: n as u64,
            naive_bytes: bytes,
            planned_bytes: bytes,
        };
        self.slices.clear();
        self.scatter.clear();
        self.perm.clear();
        let byte = |e: u64| base + e * u64::from(stride);
        let gap = match mode {
            ReadPlanMode::Coalesce { gap } if n > 0 && n <= u32::MAX as usize => gap,
            // The naive plan, one slice per entry in input order: under
            // `Off`, for an empty input, and for one too wide for the `u32`
            // permutation (> 4 Gi entries, which no supported batch/fanout
            // config reaches; degrading beats truncating).
            _ => {
                self.slices.extend(entries.iter().map(|&e| ReadSlice::new(byte(e), stride)));
                self.scatter.extend((0..n as u64).map(|i| i * u64::from(stride)));
                return stats;
            }
        };
        let mut merge = Merge::new(u64::from(stride), u64::from(gap), MAX_COALESCED_BYTES);
        // An out-of-range key sorts last (`unwrap_or(0)` measured ~1.7x
        // slower to sort by).
        let key = |i: u32| entries.get(i as usize).copied().unwrap_or(u64::MAX);
        self.perm.extend(0..n as u32);
        // sort: `plan`, the whole-input planner behind the scatter map (the
        // benchmark's layer walk).
        self.perm.sort_unstable_by_key(|&i| key(i));
        self.scatter.resize(n, 0);
        for &i in &self.perm {
            let at = merge.take(byte(key(i)), &mut self.slices);
            if let Some(s) = self.scatter.get_mut(i as usize) {
                *s = at;
            }
        }
        stats.planned_bytes = merge.close(&mut self.slices);
        stats.planned_reads = self.slices.len() as u64;
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
        // The worker's contract: the walk leaves the entries permuted into
        // slice order, each slice serves the next as many as it counts, all
        // inside its extent, each at the payload byte `plan`'s scatter map
        // gives it; and it builds `plan`'s slices and stats. These runs do
        // not ascend, so the walk takes its fallback sort.
        let entries = [900u64, 3, 17_000, 4, 3, 40_000, 16_999, 5, 900];
        for mode in [ReadPlanMode::Coalesce { gap: 0 }, ReadPlanMode::coalesce()] {
            let mut full = ReadPlanner::new();
            let want = full.plan(&entries, 8, 4, mode);
            let mut walk = RunWalk::default();
            walk.start(4, mode, MAX_COALESCED_BYTES);
            let mut pairs: Vec<(u64, u32)> =
                entries.iter().zip(0..).map(|(&e, i)| (8 + e * 4, i)).collect();
            assert!(walk.runs(&mut pairs, &[1, 2], |b| b));
            walk.close();
            assert_eq!(walk.stats_since(WalkCounts::default(), false), want);
            let mut served = pairs.iter();
            for s in full.slices() {
                let mut group = Vec::new();
                let (bytes, n) = walk.group(1, usize::MAX, u64::MAX, &mut group).unwrap();
                assert_eq!((group.as_slice(), bytes), (&[*s][..], s.len as usize));
                assert!(n > 0, "{mode:?}: slice {s:?} serves no entry");
                for &(at, i) in served.by_ref().take(n) {
                    let b = 8 + entries[i as usize] * 4;
                    assert!(b >= s.offset && b + 4 <= s.offset + s.len as u64, "{mode:?}");
                    assert_eq!(at, full.scatter()[i as usize], "{mode:?}: entry {i}");
                }
            }
            assert_eq!(served.next(), None, "{mode:?}: entries left unserved");
            let mut rest = Vec::new();
            assert_eq!(walk.group(1, usize::MAX, u64::MAX, &mut rest), Some((0, 0)));
            assert!(rest.is_empty());
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
