//! Property tests for the read planner: on arbitrary random graphs —
//! skewed and uniform — and on layers built to straddle the streaming
//! executor's group boundaries, every [`ReadPlanMode`], cache policy, I/O
//! engine, and replacement setting produces **byte-identical** samples, and the
//! planner's request lists obey the structural invariants (sorted,
//! non-overlapping after dedup, never more requests than the naive plan).
//! The runs of a layer drawn over a sorted frontier always ascend;
//! planning a layer by its runs builds exactly the slices and stats
//! [`ReadPlanner::plan`] does, with an entry order the worker's
//! slice-by-slice decode consumes whole, whether the runs ascend or the walk
//! falls back to one comparison sort; and the hot-set miss path's page
//! order reads the same pages into the same output as a comparison sort.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use ringsampler::cache::{page_of, PAGE_SIZE};
use ringsampler::plan::{RunWalk, WalkCounts, MAX_COALESCED_BYTES};
use ringsampler::sampling::OffsetSampler;
use ringsampler::worker::GROUP_BYTES_MAX;
use ringsampler::{CachePolicy, ReadPlanMode, ReadPlanner, RingSampler, SamplerConfig};
use ringsampler_graph::edgefile::write_csr;
use ringsampler_graph::{CsrGraph, NodeId, OnDiskGraph, ENTRY_BYTES};
use ringsampler_io::EngineKind;

static CASE: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// Degree skew of a generated test graph.
#[derive(Debug, Clone, Copy)]
enum Skew {
    /// Every node has roughly the same degree.
    Uniform,
    /// A few hub nodes absorb most edges (power-law-ish), so sampled
    /// entries collide heavily — the planner's best case.
    Skewed,
}

/// Simple deterministic generator, so edge structure depends only on `seed`.
fn xorshift(seed: u64) -> impl FnMut() -> u64 {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    }
}

fn build_graph(nodes: u32, edges_per_node: u32, skew: Skew, seed: u64) -> OnDiskGraph {
    let id = CASE.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let base =
        std::env::temp_dir().join(format!("rs-prop-plan-{}-{id}", std::process::id()));
    let mut next = xorshift(seed);
    let mut edge_list = Vec::new();
    for v in 0..nodes {
        for _ in 0..edges_per_node {
            let dst = match skew {
                Skew::Uniform => (next() % nodes as u64) as u32,
                // Square a uniform draw: mass concentrates near node 0.
                Skew::Skewed => {
                    let r = (next() % (nodes as u64 * nodes as u64)) as f64;
                    (r.sqrt() as u32).min(nodes - 1)
                }
            };
            edge_list.push((v, dst));
        }
    }
    let csr = CsrGraph::from_edges(nodes as usize, edge_list).unwrap();
    write_csr(&csr, &base).unwrap()
}

/// A graph built to put group boundaries where bugs hide. Node 0 is a hub
/// whose `hub` neighbors are one contiguous run of the edge file: sampled
/// with `fanout >= hub` every one is drawn, so a coalesced plan is a run of
/// full 64 KiB slices and `hub` decides whether they fill a group to the
/// byte, fall one entry short, or spill one entry over. Node 1 has no
/// neighbors, node 2 exactly one, and the last nodes' few entries sit in
/// the file's short final page.
fn boundary_graph(hub: u32) -> OnDiskGraph {
    // One file per hub size, written once and reopened by every case.
    static BUILT: std::sync::Mutex<Vec<u32>> = std::sync::Mutex::new(Vec::new());
    let base =
        std::env::temp_dir().join(format!("rs-prop-bound-{}-{hub}", std::process::id()));
    let mut built = BUILT.lock().unwrap();
    if built.contains(&hub) {
        return OnDiskGraph::open(&base).unwrap();
    }
    built.push(hub);
    let mut edge_list: Vec<(NodeId, NodeId)> = (0..hub).map(|j| (0, j % 61 + 3)).collect();
    edge_list.push((2, 5));
    for v in 3..64u32 {
        edge_list.extend((0..v % 7 + 1).map(|j| (v, (v + j + 1) % 64)));
    }
    let csr = CsrGraph::from_edges(64, edge_list).unwrap();
    write_csr(&csr, &base).unwrap()
}

/// A graph of ragged degree: every node has 0–8 out-neighbors, and over a
/// fifth of the nodes have none.
fn ragged_graph(nodes: u32, seed: u64) -> OnDiskGraph {
    let id = CASE.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let base =
        std::env::temp_dir().join(format!("rs-prop-ragged-{}-{id}", std::process::id()));
    let mut next = xorshift(seed);
    let mut edge_list = Vec::new();
    for v in 0..nodes {
        let degree = if next().is_multiple_of(5) { 0 } else { next() % 9 };
        edge_list.extend((0..degree).map(|_| (v, (next() % u64::from(nodes)) as NodeId)));
    }
    let csr = CsrGraph::from_edges(nodes as usize, edge_list).unwrap();
    write_csr(&csr, &base).unwrap()
}

/// One node-wise layer drawn the way the worker draws it: each target's
/// offsets from its own range of the offset index, in target order. Returns
/// the entries and, per target, the end of its run.
fn draw_layer(
    graph: &OnDiskGraph,
    targets: &[NodeId],
    fanout: usize,
    replace: bool,
    seed: u64,
) -> (Vec<u64>, Vec<u32>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut sampler = OffsetSampler::new();
    let (mut entries, mut run_ends) = (Vec::new(), Vec::new());
    for &t in targets {
        let r = graph.neighbor_range(t);
        if replace {
            sampler.sample_range_with_replacement(r.start, r.end, fanout, &mut rng, &mut entries);
        } else {
            sampler.sample_range(r.start, r.end, fanout, &mut rng, &mut entries);
        }
        run_ends.push(entries.len() as u32);
    }
    (entries, run_ends)
}

/// Whether the runs of `entries` (4-byte entries from byte 8) ascend: a run
/// walk that has already taken an entry never falls back to its comparison
/// sort, so it reports runs that do not.
fn runs_hold(entries: &[u64], run_ends: &[u32]) -> bool {
    let mut walk = RunWalk::default();
    walk.start(ENTRY_BYTES as u32, ReadPlanMode::Coalesce { gap: 0 }, MAX_COALESCED_BYTES);
    assert!(walk.runs(&mut [(0, 0)], &[], |b| b));
    let mut pairs: Vec<(u64, u32)> =
        entries.iter().zip(0..).map(|(&e, i)| (8 + e * ENTRY_BYTES, i)).collect();
    walk.runs(&mut pairs, run_ends, |b| b)
}

/// Plans `entries` (4-byte entries from byte 8) with a run walk over their
/// runs, checks that it builds exactly the slices and stats
/// [`ReadPlanner::plan`] builds, and checks the worker's decode contract:
/// the walk leaves every input position once, in slice order; each slice,
/// taken alone, serves the next as many positions as it counts, each
/// inside its extent and at the payload byte `plan`'s scatter map gives
/// it. Returns `plan`'s planner and the walked (payload byte, position)
/// pairs.
fn plan_by_runs(entries: &[u64], run_ends: &[u32], mode: ReadPlanMode) -> (ReadPlanner, Vec<(u64, u32)>) {
    let mut full = ReadPlanner::new();
    let want = full.plan(entries, 8, ENTRY_BYTES as u32, mode);
    let mut walk = RunWalk::default();
    walk.start(ENTRY_BYTES as u32, mode, MAX_COALESCED_BYTES);
    let mut pairs: Vec<(u64, u32)> =
        entries.iter().zip(0..).map(|(&e, i)| (8 + e * ENTRY_BYTES, i)).collect();
    assert!(walk.runs(&mut pairs, run_ends, |b| b), "{mode:?}");
    walk.close();
    assert_eq!(walk.stats_since(WalkCounts::default(), false), want, "{mode:?}");
    let mut seen = vec![false; entries.len()];
    for &(_, i) in &pairs {
        assert!(!std::mem::replace(&mut seen[i as usize], true), "position {i} twice");
    }
    assert!(seen.iter().all(|&s| s), "the walk misses a position");
    let mut served = pairs.iter();
    let mut group = Vec::new();
    for s in full.slices() {
        group.clear();
        let (_, n) = walk.group(1, usize::MAX, u64::MAX, &mut group).expect("closed");
        assert_eq!(group, [*s], "{mode:?}");
        assert!(n > 0, "{mode:?}: slice {s:?} serves no entry");
        for &(at, i) in served.by_ref().take(n) {
            let b = 8 + entries[i as usize] * ENTRY_BYTES;
            assert!(b >= s.offset && b + ENTRY_BYTES <= s.offset + u64::from(s.len), "{mode:?}");
            assert_eq!(at, full.scatter()[i as usize], "{mode:?}: position {i}");
        }
    }
    assert_eq!(served.next(), None, "entries left unserved");
    (full, pairs)
}

/// How a layer's targets are ordered.
#[derive(Debug, Clone, Copy)]
enum Targets {
    /// A reduced frontier: every layer after the first.
    SortedUnique,
    /// First-layer seeds as the caller shuffled them.
    CallerOrdered,
    /// Sorted, each seed twice in a row.
    Duplicated,
}

fn arb_targets() -> impl Strategy<Value = Targets> {
    (0u8..3).prop_map(|i| match i {
        0 => Targets::SortedUnique,
        1 => Targets::CallerOrdered,
        _ => Targets::Duplicated,
    })
}

fn targets_of(kind: Targets, nodes: u32, seed: u64) -> Vec<NodeId> {
    let sorted: Vec<NodeId> = (0..nodes).filter(|v| !(v ^ seed as u32).is_multiple_of(3)).collect();
    match kind {
        Targets::SortedUnique => sorted,
        // A seeded rotation and interleave: caller order, not node order.
        Targets::CallerOrdered => {
            let k = (seed as usize) % sorted.len().max(1);
            let (a, b) = sorted.split_at(k);
            b.iter().rev().chain(a).copied().collect()
        }
        Targets::Duplicated => sorted.iter().flat_map(|&v| [v, v]).collect(),
    }
}

/// Samples `seeds` as one mini-batch of one epoch.
fn sample_one(sampler: &RingSampler, seeds: &[NodeId]) -> ringsampler::BatchSample {
    let got = std::sync::Mutex::new(None);
    sampler
        .sample_epoch_with(seeds, |_, s| *got.lock().unwrap() = Some(s))
        .unwrap();
    got.into_inner().unwrap().expect("the epoch's one batch")
}

fn arb_mode() -> impl Strategy<Value = ReadPlanMode> {
    (0u8..4).prop_map(|i| match i {
        0 => ReadPlanMode::Off,
        1 => ReadPlanMode::Coalesce { gap: 0 },
        2 => ReadPlanMode::Coalesce { gap: 64 },
        _ => ReadPlanMode::coalesce(),
    })
}

fn arb_skew() -> impl Strategy<Value = Skew> {
    (0u8..2).prop_map(|i| if i == 0 { Skew::Uniform } else { Skew::Skewed })
}

fn arb_bool() -> impl Strategy<Value = bool> {
    (0u8..2).prop_map(|i| i == 1)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Differential: every plan mode × cache × engine × replacement yields
    /// the exact sample the naive (Off, raw, no-cache, pread) path does.
    #[test]
    fn all_modes_agree_with_naive(
        mode in arb_mode(),
        skew in arb_skew(),
        cached in arb_bool(),
        engine_uring in arb_bool(),
        replace in arb_bool(),
        seed in 0u64..1_000,
        order in arb_targets(),
    ) {
        let nodes = 96u32;
        let graph = build_graph(nodes, 6, skew, seed);
        let graph_b = build_graph(nodes, 6, skew, seed);
        let engine = if engine_uring { EngineKind::Uring } else { EngineKind::Pread };
        let mk = |g, mode, cached: bool, engine| {
            let mut cfg = SamplerConfig::new()
                .fanouts(&[5, 3])
                .ring_entries(8)
                .threads(1)
                .batch_size(nodes as usize)
                .seed(seed ^ 0xABCD)
                .with_replacement(replace)
                .engine(engine)
                .read_plan(mode);
            if cached {
                cfg = cfg.cache(CachePolicy::Page { budget_bytes: 96 * 4160 });
            }
            RingSampler::new(g, cfg).unwrap()
        };
        let seeds = targets_of(order, nodes, seed);
        let naive = mk(graph, ReadPlanMode::Off, false, EngineKind::Pread);
        let tuned = mk(graph_b, mode, cached, engine);
        prop_assert_eq!(sample_one(&tuned, &seeds), sample_one(&naive, &seeds));
    }

    /// The same differential on layers built to straddle the executor's
    /// group boundaries (`queue_depth` requests or `GROUP_BYTES_MAX` bytes):
    /// a run of 64 KiB slices that fills a group one entry short of, exactly
    /// to, and one entry past the byte ceiling; the file's short final page
    /// in the last group; a single-slice layer; an empty layer; one entry
    /// duplicated across several groups; a cached layer whose misses share
    /// one page.
    #[test]
    fn group_boundary_layers_agree_with_naive(
        mode in arb_mode(),
        cached in arb_bool(),
        engine_uring in arb_bool(),
        replace in arb_bool(),
        deep_ring in arb_bool(),
        over in 0u32..3,
        scenario in 0u8..6,
    ) {
        let full_group = (GROUP_BYTES_MAX as u64 / ENTRY_BYTES) as u32;
        let hub = full_group + over - 1;
        let all = hub as usize + 7;
        let (seeds, fanout, replace): (Vec<NodeId>, usize, bool) = match scenario {
            0 => (vec![0], all, replace),
            1 => (vec![0, 60, 61, 62, 63], all, replace),
            2 => (vec![2], 1, replace),
            3 => (vec![1], 5, replace),
            4 => (vec![2], 20, true),
            _ => (vec![3, 4, 5], 8, replace),
        };
        let engine = if engine_uring { EngineKind::Uring } else { EngineKind::Pread };
        let mk = |mode, cached: bool, engine, ring_entries| {
            let mut cfg = SamplerConfig::new()
                .fanouts(&[fanout, 2])
                .ring_entries(ring_entries)
                .threads(1)
                .batch_size(seeds.len())
                .seed(u64::from(over) ^ 0xB0DE)
                .with_replacement(replace)
                .engine(engine)
                .read_plan(mode);
            if cached {
                cfg = cfg.cache(CachePolicy::Page { budget_bytes: 96 * 4160 });
            }
            RingSampler::new(boundary_graph(hub), cfg).unwrap()
        };
        let naive = mk(ReadPlanMode::Off, false, EngineKind::Pread, 512);
        let tuned = mk(mode, cached, engine, if deep_ring { 64 } else { 8 });
        prop_assert_eq!(sample_one(&tuned, &seeds), sample_one(&naive, &seeds));
    }

    /// Structural invariants of the planner itself on arbitrary entry
    /// streams: requests sorted by offset, non-overlapping after dedup,
    /// and never more numerous than the naive one-per-entry plan.
    #[test]
    fn plans_are_sorted_nonoverlapping_and_no_larger(
        entries in proptest::collection::vec(0u64..10_000, 0..512),
        mode in arb_mode(),
        base in 0u64..1_000,
    ) {
        let mut planner = ReadPlanner::new();
        let stats = planner.plan(&entries, base, ENTRY_BYTES as u32, mode);
        let slices = planner.slices();
        prop_assert!(slices.len() <= entries.len());
        prop_assert_eq!(stats.naive_reads, entries.len() as u64);
        prop_assert_eq!(
            stats.planned_reads as usize, slices.len()
        );
        let mut prev_end = None;
        for s in slices {
            if let Some(pe) = prev_end {
                if mode.is_off() {
                    // Off preserves input order: no ordering guarantee.
                } else {
                    // Sorted and disjoint after dedup/coalescing.
                    prop_assert!(s.offset >= pe, "slices must not overlap");
                }
            }
            prev_end = Some(s.offset + s.len as u64);
        }
        // The scatter map covers every input entry and points inside the
        // planned payload.
        let payload: u64 = slices.iter().map(|s| s.len as u64).sum();
        prop_assert_eq!(planner.scatter().len(), entries.len());
        for &p in planner.scatter() {
            prop_assert!(p + ENTRY_BYTES <= payload);
        }
    }

    /// A node-wise layer planned by its runs gets exactly the slices and
    /// stats the comparison sort's `plan` builds, in an order the worker's
    /// decode consumes whole: over sorted-unique, caller-ordered and
    /// duplicated targets, with zero-degree targets, with and without
    /// replacement. Over a sorted frontier the runs always hold, so the
    /// layer can be planned a chunk at a time.
    #[test]
    fn run_order_is_the_comparison_sort_order(
        kind in arb_targets(),
        fanout in 1usize..12,
        replace in arb_bool(),
        mode in arb_mode(),
        seed in 0u64..1_000,
    ) {
        let graph = ragged_graph(80, seed);
        let targets = targets_of(kind, 80, seed);
        let (entries, run_ends) = draw_layer(&graph, &targets, fanout, replace, seed);
        prop_assert!(runs_hold(&entries, &run_ends) || !matches!(kind, Targets::SortedUnique));
        plan_by_runs(&entries, &run_ends, mode);
    }

    /// Hub-heavy layers plan by their runs as `plan` plans them. A
    /// group-sized hub's draws spread past every gap and the cap; a
    /// cap-sized one's lie within the 64 KiB gap, so the cap alone splits
    /// it or the small runs after it; small nodes' draws sit within 28
    /// bytes (`hub_layers_take_both_branches` checks each case happens).
    #[test]
    fn hub_layers_plan_like_plan(
        gap in (0usize..3).prop_map(|i| [0u32, 4096, 65_536][i]),
        hub in (0usize..6).prop_map(hub_size),
        fanout in (1usize..12, 4_000usize..20_000, 0u8..3).prop_map(|(s, l, pick)| [s, l, 20_000][pick as usize]),
        replace in arb_bool(),
        kind in arb_targets(),
        seed in 0u64..1_000,
    ) {
        let (graph, targets) = hub_layer(hub, kind, seed);
        let (entries, run_ends) = draw_layer(&graph, &targets, fanout, replace, seed);
        plan_by_runs(&entries, &run_ends, ReadPlanMode::Coalesce { gap });
    }

    /// The hot-set miss path's order — the run walk keyed by page, which
    /// sorts a run only when its misses span pages — reads the same miss
    /// pages as a comparison sort by byte, and the worker's walk of those
    /// pages fills the same output.
    #[test]
    fn page_order_reads_what_the_comparison_sort_reads(
        kind in arb_targets(),
        fanout in 1usize..40,
        replace in arb_bool(),
        hot_every in 2u64..6,
        seed in 0u64..1_000,
    ) {
        let (graph, targets) = hub_layer(hub_size(seed as usize % 6), kind, seed);
        let (entries, run_ends) = draw_layer(&graph, &targets, fanout, replace, seed);
        let byte_at = |i: u32| OnDiskGraph::entry_byte_offset(entries[i as usize]);
        // Every `hot_every`-th page is resident; the rest miss.
        let misses: Vec<u32> = (0..entries.len() as u32)
            .filter(|&i| !(page_of(byte_at(i)).0 + seed).is_multiple_of(hot_every))
            .collect();
        // The misses' own runs: each target's misses end where its draws do.
        let miss_ends: Vec<u32> =
            run_ends.iter().map(|&e| misses.partition_point(|&i| i < e) as u32).collect();
        let mut pairs: Vec<(u64, u32)> = misses.iter().map(|&i| (byte_at(i), i)).collect();
        let mut walk = RunWalk::default();
        let page = PAGE_SIZE as u64;
        walk.start(PAGE_SIZE as u32, ReadPlanMode::Coalesce { gap: 0 }, page);
        prop_assert!(walk.runs(&mut pairs, &miss_ends, |b| b - b % page));
        let by_pages: Vec<u32> = pairs.iter().map(|p| p.1).collect();
        let mut sorted = misses;
        sorted.sort_unstable_by_key(|&i| byte_at(i));
        let (pages, out) = read_misses(&by_pages, byte_at, entries.len());
        prop_assert_eq!((pages, out), read_misses(&sorted, byte_at, entries.len()));
    }

    /// Merging repeats alone (gap 0) must strictly shrink a duplicate-heavy plan.
    #[test]
    fn dedup_shrinks_duplicate_streams(
        uniques in proptest::collection::vec(0u64..100, 1..32),
        dup_factor in 2usize..6,
    ) {
        let mut entries = Vec::new();
        for _ in 0..dup_factor {
            entries.extend_from_slice(&uniques);
        }
        let mut planner = ReadPlanner::new();
        let stats = planner.plan(&entries, 0, ENTRY_BYTES as u32, ReadPlanMode::Coalesce { gap: 0 });
        prop_assert!(stats.planned_reads < entries.len() as u64);
        prop_assert!(stats.reads_saved() >= (entries.len() - uniques.len()) as u64);
    }
}

/// Hub sizes of `boundary_graph`, in entries: one short of, exactly and
/// one past a full group's bytes, then 16 Ki entries (one 64 KiB slice)
/// less 64, exactly, and plus 16.
fn hub_size(i: usize) -> u32 {
    let full_group = (GROUP_BYTES_MAX as u64 / ENTRY_BYTES) as u32;
    let cap = (MAX_COALESCED_BYTES / ENTRY_BYTES) as u32;
    [full_group - 1, full_group, full_group + 1, cap - 64, cap, cap + 16][i]
}

/// A layer over `boundary_graph(hub)`: the hub (node 0) first, then a
/// seeded subset of the other nodes, ordered as `kind` orders targets.
fn hub_layer(hub: u32, kind: Targets, seed: u64) -> (OnDiskGraph, Vec<NodeId>) {
    let mut targets = targets_of(kind, 64, seed);
    if targets.first() != Some(&0) {
        targets.insert(0, 0);
    }
    (boundary_graph(hub), targets)
}

/// The miss pages `misses` read in the order given (its page runs), and
/// the output the worker's walk of those pages fills: each page takes the
/// next misses it contains, and a slot holds the byte read into it, or
/// `u64::MAX` if the walk never reached its miss.
fn read_misses(misses: &[u32], byte_at: impl Fn(u32) -> u64, n: usize) -> (Vec<u64>, Vec<u64>) {
    let mut pages: Vec<u64> = misses.iter().map(|&i| page_of(byte_at(i)).0).collect();
    pages.dedup();
    let mut out = vec![u64::MAX; n];
    let mut order = misses.iter().map(|&i| (byte_at(i), i)).peekable();
    for &page in &pages {
        let extent = page * PAGE_SIZE as u64..(page + 1) * PAGE_SIZE as u64;
        while let Some((byte, i)) = order.next_if(|(b, _)| extent.contains(b)) {
            out[i as usize] = byte;
        }
    }
    (pages, out)
}

/// Both branches of the run walk plan hub-heavy layers as `plan` does:
/// some run lands whole in one slice with its unsorted draws left in draw
/// order, which only the whole-run branch does; some run is served by
/// several slices, which only the straddling branch plans; and some of
/// those lie within the gap, so the cap alone split them.
#[test]
fn hub_layers_take_both_branches() {
    let (mut whole_unsorted, mut straddling, mut cap_split) = (0, 0, 0);
    let cap_hubs = [3, 4, 5].map(|i| (hub_size(i), hub_size(i) as usize, false));
    let layers = [(hub_size(1), 6, true), (hub_size(1), 9_000, true)].into_iter().chain(cap_hubs);
    for (seed, (hub, fanout, replace)) in (1u64..).zip(layers) {
        let (graph, targets) = hub_layer(hub, Targets::SortedUnique, seed);
        let (entries, run_ends) = draw_layer(&graph, &targets, fanout, replace, seed);
        for gap in [0u32, 4096, 65_536] {
            let (p, pairs) = plan_by_runs(&entries, &run_ends, ReadPlanMode::Coalesce { gap });
            let slice_of = |e: u64| {
                p.slices().partition_point(|s| s.offset + u64::from(s.len) <= 8 + e * ENTRY_BYTES)
            };
            for (lo, hi) in [0].iter().chain(&run_ends).zip(&run_ends) {
                let run = *lo as usize..*hi as usize;
                let draws = &entries[run.clone()];
                let (Some(&least), Some(&most)) = (draws.iter().min(), draws.iter().max()) else {
                    continue;
                };
                if slice_of(least) != slice_of(most) {
                    straddling += 1;
                    cap_split += usize::from((most - least) * ENTRY_BYTES <= u64::from(gap));
                } else if draws.is_sorted() {
                    continue;
                } else if pairs[run.clone()].iter().map(|p| p.1).eq(*lo..*hi) {
                    whole_unsorted += 1;
                }
            }
        }
    }
    assert!(whole_unsorted > 0, "no run was taken whole");
    assert!(straddling > 0, "no run straddled a slice boundary");
    assert!(cap_split > 0, "the cap split no run");
}

/// Runs that do not ascend — targets in descending node order, each drawing
/// from a range below the previous one — take the comparison-sort fallback
/// and still plan as `plan` does; the same draws in ascending target order
/// hold.
#[test]
fn descending_runs_take_the_fallback() {
    let graph = ragged_graph(80, 7);
    let ascending: Vec<NodeId> =
        (0..80).filter(|&v| graph.neighbor_range(v).end > graph.neighbor_range(v).start).collect();
    let descending: Vec<NodeId> = ascending.iter().rev().copied().collect();
    for (targets, holds) in [(ascending, true), (descending, false)] {
        for replace in [false, true] {
            let (entries, run_ends) = draw_layer(&graph, &targets, 4, replace, 3);
            assert_eq!(runs_hold(&entries, &run_ends), holds, "replace {replace}");
            plan_by_runs(&entries, &run_ends, ReadPlanMode::Coalesce { gap: 0 });
        }
    }
    // Two runs that overlap inside one range: the second starts below the
    // first's last entry.
    assert!(!runs_hold(&[5, 9, 7, 11], &[2]));
    plan_by_runs(&[5, 9, 7, 11], &[2], ReadPlanMode::Coalesce { gap: 0 });
    // No run ends: the whole layer is one run, which always holds.
    assert!(runs_hold(&[3, 1, 2], &[]));
}
