#![cfg_attr(not(test), deny(clippy::disallowed_types, clippy::disallowed_methods, clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable, clippy::todo, clippy::unimplemented, clippy::indexing_slicing, clippy::allow_attributes, clippy::allow_attributes_without_reason))]
//! Group-based read engines.
//!
//! RingSampler's sampling pipeline works in *I/O groups*: batches of up to
//! queue-depth scattered reads that are submitted with one syscall and
//! completed by polling the CQ (paper §3.1, "Overlapping computation and
//! I/O"). This module defines that contract ([`GroupReader`]) and two
//! implementations:
//!
//! * [`UringReader`] — the real thing, backed by [`crate::ring::Ring`].
//! * [`PreadReader`] — a portable synchronous fallback with identical
//!   semantics, used when io_uring is unavailable and as a test oracle.
//!
//! Engines only read. Which groups were formed, how many requests and
//! bytes they carried and how long each took is the account of the caller
//! that formed them and already times its calls; an engine reports only
//! what nobody else can know ([`ReaderStats`]): the syscalls it issued and
//! the time it spent blocked waiting for a completion.
//!
//! Buffer ownership: own first, lend second. The reader files every group's
//! buffer in its table *before* any SQE points into it, and frees it only
//! once every read lent from it has been reaped. Callers receive an opaque
//! [`GroupToken`] at submission and exchange it for the filled buffer at
//! completion. Dropping a token without completing it leaks the buffer
//! *into the reader* (never freeing memory the kernel may still write),
//! keeping the API safe — at the cost [`GroupReader::complete_group`]
//! spells out. A group whose submit fails is orphaned and retires itself
//! when its last completion is reaped; if the reader's drop cannot drain
//! the ring, it leaks every filed buffer rather than free one.
//!
//! Read what the page cache does not keep with `O_DIRECT`. A uring reader
//! built with a [`PageWitness`] notes a few of the pages it reads, and how
//! often the cache already held a group's pages; the next reader built with
//! the same witness asks the page cache (`cachestat(2)`) whether it still
//! holds the noted pages. If it lost all of them and held less than half of
//! the sampled ones, the cache neither keeps nor serves what this file's
//! readers read, and the reader reads through a second
//! open file description with `O_DIRECT`: each run of a group's requests on
//! one page — a request alone on its page, or one that crosses pages, is a
//! run of one — is one read of the run's extent rounded out to the
//! direct-I/O block, into a page-aligned staging arena that the group's slot
//! owns, and each request's bytes are copied into place when that read is
//! reaped. No page lock, no page-cache copy, and a same-page run is read
//! once. Every other reader reads buffered, so a cold file the cache can
//! keep warms up: one SQE per request while the cache holds what it reads,
//! and once a group's lend leaves reads in flight past its
//! `io_uring_enter` — the cache is missing pages — the next group reads
//! each run of two or more requests on one page with one staged span of
//! the run's extent. Every read after the first of a run on a missing page
//! would find it locked and take io_uring's async buffered-read path, which
//! costs more CPU than the read itself.

use std::collections::VecDeque;
use std::fs::{File, OpenOptions};
use std::os::unix::fs::{FileExt, OpenOptionsExt};
use std::os::unix::io::AsRawFd;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crate::error::{IoEngineError, Result};
use crate::ring::{Completion, FileRef, Ring};
use crate::sys;

/// Page-cache granularity: a same-page run is read once, and a staging
/// arena is counted in pages of this size.
const PAGE_BYTES: u64 = 4096;

/// Staging bytes one buffered group's spans may take: sixteen whole
/// pages. A run past it is read request by request.
const SPAN_BYTES_MAX: usize = 16 * PAGE_BYTES as usize;

/// A reader reads direct only if the page cache held less than this share,
/// in 1/1024, of the pages the last buffered reader sampled (one half):
/// above it, pages recur within a reader's life and the cache serves them,
/// which direct reads would send to the device again.
const HELD_MAX: u64 = 512;

/// A buffered reader with a witness samples the page cache (one
/// `cachestat(2)`) at one group in this many.
const HELD_EVERY: u64 = 8;

/// Pages a [`PageWitness`] holds: the first pages of a reader's groups 1,
/// 2, 4, … 2^15, so its oldest reads are among them.
const WITNESS_PAGES: usize = 16;

/// One scattered read: `len` bytes at byte `offset` of the reader's file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadSlice {
    /// Absolute byte offset in the file.
    pub offset: u64,
    /// Length in bytes.
    pub len: u32,
}

impl ReadSlice {
    /// Creates a read of `len` bytes at `offset`.
    pub fn new(offset: u64, len: u32) -> Self {
        Self { offset, len }
    }
}

/// Token for an in-flight I/O group; exchange for the buffer with
/// [`GroupReader::complete_group`].
#[derive(Debug)]
#[must_use = "complete_group(token) returns the data; a dropped token leaks its buffer and one table slot per later group into the reader"]
pub struct GroupToken {
    id: u64,
}

/// What only the engine can know about its own work, cumulative over the
/// reader's lifetime. Groups, requests, bytes and latencies are counted by
/// the caller, which formed the groups.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ReaderStats {
    /// Syscalls issued (`io_uring_enter` or `pread` count).
    pub syscalls: u64,
    /// Nanoseconds spent blocked waiting for a completion — the part of
    /// the calls that is the device's, not the CPU's. Always 0 for an
    /// engine that reads synchronously at submission.
    pub wait_nanos: u64,
    /// Requests served from a staged read — one read of their run's
    /// extent, with `O_DIRECT` or, on a page missing from the page cache,
    /// buffered — instead of read alone. Always 0 for a reader whose file
    /// the page cache holds.
    pub spanned: u64,
    /// Bytes of page-aligned staging the reader holds for its spans: the
    /// capacity of its arenas, which only grows. Not cumulative; always 0
    /// for a reader whose file the page cache holds.
    pub staging_bytes: u64,
}

/// A reader that executes scattered-read groups against one file.
///
/// Implementations are single-threaded handles (RingSampler gives each
/// worker thread its own reader); they are `Send` so threads can own them.
pub trait GroupReader: Send {
    /// Maximum number of requests per group (the ring size / queue depth).
    fn queue_depth(&self) -> usize;

    /// Submits a group of reads. The reader takes ownership of `buf`
    /// (recycled capacity welcome), resizes it to the group's total payload
    /// size, and begins filling it. Request `i`'s data lands at the
    /// cumulative offset of the previous requests' lengths.
    ///
    /// # Errors
    /// [`IoEngineError::GroupTooLarge`] if `reqs.len() > queue_depth()`;
    /// ring submission errors otherwise. A failed submit keeps `buf` until
    /// the kernel has finished any read already lent from it.
    fn submit_group(&mut self, reqs: &[ReadSlice], buf: Vec<u8>) -> Result<GroupToken>;

    /// Blocks until every read in the group has completed and returns the
    /// filled buffer. Groups may be completed in any order.
    ///
    /// Every token must come back through here, on the caller's error path
    /// too. Groups are filed in a table indexed by `id − oldest`, so one
    /// that is never completed keeps its buffer and pins an empty slot for
    /// each group submitted after it, for the reader's lifetime: reads stay
    /// correct, memory grows by a word per group.
    ///
    /// # Errors
    /// [`IoEngineError::ShortRead`] if any read returned fewer bytes than
    /// requested (e.g. reading past EOF) and [`IoEngineError::Completion`]
    /// for per-request kernel errors.
    fn complete_group(&mut self, token: GroupToken) -> Result<Vec<u8>>;

    /// Lifetime counters.
    fn stats(&self) -> ReaderStats;

    /// Human-readable engine name (for experiment logs).
    fn engine_name(&self) -> &'static str;
}

/// Convenience: submit + immediately complete one group, for callers that
/// read one group at a time (benches, tests, baselines); the sampler keeps
/// two groups in flight instead.
///
/// # Errors
/// Propagates submission and completion errors.
pub fn read_group_blocking(
    reader: &mut dyn GroupReader,
    reqs: &[ReadSlice],
    buf: Vec<u8>,
) -> Result<Vec<u8>> {
    let token = reader.submit_group(reqs, buf)?;
    reader.complete_group(token)
}

/// What went wrong, if anything, with the one read `r` that ended in `outcome`.
fn read_failure(r: &ReadSlice, outcome: std::io::Result<usize>) -> Option<IoEngineError> {
    match outcome {
        Ok(n) if n == r.len as usize => None,
        Ok(n) => Some(IoEngineError::ShortRead {
            offset: r.offset,
            expected: r.len,
            got: n as i32,
        }),
        Err(source) => Some(IoEngineError::Completion {
            offset: r.offset,
            source,
        }),
    }
}

/// The in-flight groups of one reader, by id. Ids are handed out
/// consecutively, so group `id` lives at index `id - oldest`: a completion
/// finds its group by subtraction. Groups may be taken in any order; a slot
/// taken out of turn stays behind, empty, until every older group has left.
struct SlotTable<T> {
    /// Id of `slots[0]`.
    oldest: u64,
    slots: VecDeque<Option<T>>,
}

impl<T> std::fmt::Debug for SlotTable<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} slot(s) from group {}", self.slots.len(), self.oldest)
    }
}

impl<T> SlotTable<T> {
    fn new() -> Self {
        Self {
            oldest: 1,
            slots: VecDeque::new(),
        }
    }

    /// The id the next [`SlotTable::push`] files its group under.
    fn next_id(&self) -> u64 {
        self.oldest + self.slots.len() as u64
    }

    fn push(&mut self, slot: T) {
        self.slots.push_back(Some(slot));
    }

    fn index_of(&self, id: u64) -> Option<usize> {
        usize::try_from(id.checked_sub(self.oldest)?).ok()
    }

    fn get_mut(&mut self, id: u64) -> Option<&mut T> {
        self.slots.get_mut(self.index_of(id)?)?.as_mut()
    }

    /// Takes group `id` out, then retires the emptied slots at the front.
    fn take(&mut self, id: u64) -> Option<T> {
        let slot = self.slots.get_mut(self.index_of(id)?)?.take();
        while let Some(None) = self.slots.front() {
            self.slots.pop_front();
            self.oldest += 1;
        }
        slot
    }
}

// ---------------------------------------------------------------------------
// io_uring implementation
// ---------------------------------------------------------------------------

/// One page of a staging arena: a `Vec` of these is page-aligned, and so
/// meets any direct-I/O memory alignment up to a page.
#[derive(Clone, Copy)]
#[repr(C, align(4096))]
struct StagePage([u8; PAGE_BYTES as usize]);

#[derive(Default)]
struct Slot {
    buf: Vec<u8>,
    /// The group's requests; a buffered read's CQE indexes them by the low
    /// bits of user_data.
    reqs: Vec<ReadSlice>,
    /// A direct group's reads, one per run, indexed by the low bits of
    /// user_data. Empty for a buffered group.
    spans: Vec<Span>,
    /// The page-aligned arena the spans land in. It goes back to `spare`
    /// with the slot, so an arena only grows to the largest group it served.
    stage: Vec<StagePage>,
    /// Reads lent to the kernel whose completions have not been reaped.
    remaining: u32,
    /// The failure of the group's earliest failed request, by index,
    /// whatever order the kernel completed its reads in.
    error: Option<(usize, IoEngineError)>,
    /// The submit failed, so no token will come back for this group: it
    /// retires when its last completion is reaped.
    orphaned: bool,
}

impl std::fmt::Debug for Slot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} request(s), {} span(s), {} staging page(s)", self.reqs.len(), self.spans.len(), self.stage.len())
    }
}

/// One read of a spanned group: requests `first..end`, whose places start
/// at payload byte `dst`, are served from `read` — their extent, rounded
/// out to the direct-I/O block when direct — which lands at byte `stage` of
/// the slot's arena, or, `stage` `None`, is one request read in place.
#[derive(Debug, Clone, Copy)]
struct Span {
    first: usize,
    end: usize,
    dst: usize,
    stage: Option<usize>,
    read: ReadSlice,
}

/// Files in `spans` one read per run of consecutive `reqs` on one page — a
/// request alone on its page, or one that crosses pages, is a run of one —
/// and returns the bytes staged. Direct (`block`), every run is staged, its
/// extent rounded out to the block: at most a page per same-page run
/// (`block` divides the page), a crossing request's own length plus two
/// blocks. Buffered, a run of two or more is staged as its extent while the
/// staging stays within [`SPAN_BYTES_MAX`], and every other request is read
/// in place.
fn plan_spans(reqs: &[ReadSlice], block: Option<u64>, spans: &mut Vec<Span>) -> usize {
    // The page a request lies on, if it lies on one.
    let page = |r: &ReadSlice| {
        let last = r.offset.checked_add(u64::from(r.len.max(1)) - 1)?;
        (last / PAGE_BYTES == r.offset / PAGE_BYTES).then_some(last / PAGE_BYTES)
    };
    let (mut first, mut dst, mut staged) = (0, 0, 0);
    while let Some(rest) = reqs.get(first..).filter(|rest| !rest.is_empty()) {
        let on = rest.first().and_then(page);
        let len = rest.iter().take_while(|r| on.is_some() && page(r) == on).count().max(1);
        let run = rest.get(..len).unwrap_or_default();
        let lo = run.iter().map(|r| r.offset).min().unwrap_or(0);
        let hi = run.iter().map(|r| r.offset.saturating_add(u64::from(r.len))).max().unwrap_or(0);
        let (start, end) = match block {
            Some(block) => (lo - lo % block, hi.div_ceil(block).saturating_mul(block)),
            // A run of two or more lies on one page: its extent is at most one.
            None if len > 1 && staged + (hi - lo) as usize <= SPAN_BYTES_MAX => (lo, hi),
            None => {
                let mut at = dst;
                for (i, r) in (first..).zip(run) {
                    spans.push(Span { first: i, end: i + 1, dst: at, stage: None, read: *r });
                    at += r.len as usize;
                }
                (dst, first) = (at, first + len);
                continue;
            }
        };
        let read = ReadSlice::new(start, u32::try_from(end - start).unwrap_or(u32::MAX));
        spans.push(Span { first, end: first + len, dst, stage: Some(staged), read });
        staged += read.len as usize;
        dst += run.iter().map(|r| r.len as usize).sum::<usize>();
        first += len;
    }
    staged
}

impl Slot {
    /// Serves the requests of span `s`, of which the kernel read `got`
    /// bytes: copies each staged one into its place and returns how many. A
    /// read cut short (at EOF) that still covers its requests is whole; one
    /// that leaves a request short fills nothing and fails at that request.
    fn serve(&mut self, s: Span, got: usize) -> std::result::Result<u64, (usize, IoEngineError)> {
        let Some(stage) = s.stage else {
            // One request, read in place.
            return read_failure(&s.read, Ok(got)).map_or(Ok(0), |e| Err((s.first, e)));
        };
        // The arena holds `read.len` bytes of the span, whatever the CQE says.
        let got = got.min(s.read.len as usize);
        let run = self.reqs.get(s.first..s.end).unwrap_or_default();
        for (i, r) in (s.first..).zip(run) {
            let have = got.saturating_sub((r.offset - s.read.offset) as usize).min(r.len as usize);
            if have < r.len as usize {
                let short = IoEngineError::ShortRead { offset: r.offset, expected: r.len, got: have as i32 };
                return Err((i, short));
            }
        }
        let staged = self.stage.as_ptr().cast::<u8>();
        let mut dst = s.dst;
        for r in run {
            let from = stage + (r.offset - s.read.offset) as usize;
            // SAFETY: `plan_spans` put each request inside its span's read,
            // staged at `stage..stage + read.len` in the arena, and the loop
            // above checked that its bytes landed: in bounds, written, and no
            // SQE in flight points at them. Other reads may still land
            // elsewhere in the arena, so only this request's bytes are
            // borrowed.
            let bytes = unsafe { std::slice::from_raw_parts(staged.add(from), r.len as usize) };
            if let Some(place) = self.buf.get_mut(dst..dst + r.len as usize) {
                place.copy_from_slice(bytes);
            }
            dst += r.len as usize;
        }
        Ok(run.len() as u64)
    }
}

/// io_uring-backed [`GroupReader`] bound to a single file.
#[derive(Debug)]
pub struct UringReader {
    ring: Ring,
    /// The file the reader reads: the caller's, or its `O_DIRECT` twin.
    file: File,
    /// The direct-I/O block when `file` was opened `O_DIRECT`: reads are
    /// staged spans, aligned to it. `None`: buffered, one read per request,
    /// or staged spans after a lend that found pages missing.
    block: Option<u64>,
    /// Where a buffered reader notes pages it reads for the readers built
    /// after it; `None` for a direct reader or one built without a witness.
    witness: Option<Arc<PageWitness>>,
    /// A buffered reader's last lend left reads in flight past its enter:
    /// the page cache is missing pages, so the next group reads its
    /// same-page runs as staged spans.
    missing: bool,
    /// Groups a buffered reader with a witness sampled (one in
    /// [`HELD_EVERY`]), and at how many of them the page cache held the
    /// middle request's page: what the cache serves, by sample.
    sampled: u64,
    held: u64,
    /// When true, the file is in the ring's registered table at index 0
    /// and reads use `IOSQE_FIXED_FILE` (skips per-I/O fd refcounting).
    registered: bool,
    groups: SlotTable<Slot>,
    /// Slots of retired groups, their tables and arenas kept for the next.
    spare: Vec<Slot>,
    /// SQEs prepared whose CQEs have not been reaped: what `Drop` drains.
    outstanding: u64,
    wait_nanos: u64,
    spanned: u64,
    staging_bytes: u64,
    /// Most SQEs ever outstanding at once.
    #[cfg(test)]
    peak_outstanding: u64,
}

/// What the page cache kept and served of one file between the uring
/// readers opened on it. A buffered reader built
/// [`UringReader::with_witness`] notes the first page of its groups 1, 2,
/// 4, … (so its oldest reads are among them), and, when dropped, the share
/// of its groups whose middle page the cache held before the group read
/// it. A reader built next with the same witness asks the page cache
/// whether it still holds the noted pages. If it kept none of them, the
/// cache does not keep what this file's readers read — the file outgrows
/// it, or something drops it — and if it also held less than half the
/// sampled pages, pages do not recur within a reader's life either: that
/// reader reads with `O_DIRECT`. Otherwise it reads buffered, since there
/// the reads the cache serves beat direct ones (DESIGN.md §13). A direct
/// reader notes nothing: nothing it reads enters the cache. A sampler
/// keeps one witness for its edge file and hands it to every worker it
/// builds, epoch after epoch.
#[derive(Debug, Default)]
pub struct PageWitness {
    /// Page number + 1 of each noted page; 0 while the slot is empty.
    pages: [AtomicU64; WITNESS_PAGES],
    /// 1 + the share, in 1/1024, of the last buffered reader's groups whose
    /// sampled page the page cache held; 0 until one is dropped.
    held_share: AtomicU64,
}

impl PageWitness {
    /// Notes that a buffered reader's group `group` (counted from 1) read
    /// `offset` first; only groups that are powers of two are kept.
    fn note(&self, group: u64, offset: u64) {
        if group.is_power_of_two() {
            if let Some(slot) = self.pages.get(group.trailing_zeros() as usize) {
                // Relaxed: a hint read when a later reader opens; readers of
                // one epoch may overwrite each other's pages.
                slot.store(offset / PAGE_BYTES + 1, Ordering::Relaxed);
            }
        }
    }

    /// Records that the page cache held the sampled page of `held` of the
    /// `sampled` groups a buffered reader submitted.
    fn note_held(&self, sampled: u64, held: u64) {
        if let Some(share) = (held.min(sampled) * 1024).checked_div(sampled) {
            self.held_share.store(1 + share, Ordering::Relaxed);
        }
    }

    /// Whether the page cache kept none of the noted pages of `file` and
    /// held less than [`HELD_MAX`] of the pages the last buffered reader
    /// sampled: `None` if nothing is noted or sampled yet, or
    /// `cachestat(2)` is refused.
    fn lost(&self, file: &File) -> Option<bool> {
        let held = self.held_share.load(Ordering::Relaxed).checked_sub(1)?;
        let (mut noted, mut kept) = (0u64, 0u64);
        for page in self.pages.iter().map(|p| p.load(Ordering::Relaxed)).filter(|&p| p > 0) {
            let at = (page - 1) * PAGE_BYTES;
            kept += sys::cachestat(file.as_raw_fd(), at, PAGE_BYTES).ok()?.nr_cache.min(1);
            noted += 1;
        }
        (noted > 0).then_some(kept == 0 && held < HELD_MAX)
    }
}

/// Tells the kernel that `file` is read at random: a sampler's reads are,
/// by construction, so a missing page is read alone instead of with the
/// readahead window behind it. Every reader that reads through the page
/// cache does this once, when it is built. Best effort: returns whether the
/// advice was taken, and a file that takes none is read all the same.
fn advise_random(file: &File) -> bool {
    crate::sys::fadvise(file.as_raw_fd(), crate::sys::POSIX_FADV_RANDOM).is_ok()
}

#[cfg(test)]
thread_local! {
    /// Makes the next [`direct_twin`] on this thread refuse, the way a
    /// kernel without `cachestat(2)` or a filesystem without `O_DIRECT` does.
    static REFUSE_DIRECT: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// The `O_DIRECT` twin of `file` and its direct-I/O block, if `witness`
/// saw the page cache lose all that this file's readers read and hold less
/// than half of what the last of them sampled, and the filesystem reads it
/// direct, with an alignment of at most a page. The
/// twin is a second open file description (reopened through
/// `/proc/self/fd`): the flag never touches the caller's, which every
/// `try_clone` of it shares. `None` keeps the reader buffered.
fn direct_twin(file: &File, witness: &PageWitness) -> Option<(File, u64)> {
    #[cfg(test)]
    if REFUSE_DIRECT.take() {
        return None;
    }
    if !witness.lost(file)? {
        return None;
    }
    let fd = file.as_raw_fd();
    let (mem, offset) = sys::dio_align(fd).ok()?;
    let block = u64::from(mem.max(offset));
    if block == 0 || !block.is_power_of_two() || block > PAGE_BYTES {
        return None;
    }
    let twin = OpenOptions::new()
        .read(true)
        .custom_flags(sys::O_DIRECT)
        .open(format!("/proc/self/fd/{fd}"))
        .ok()?;
    Some((twin, block))
}

impl UringReader {
    /// Opens `path` and a dedicated ring with `queue_depth` entries, to
    /// read it buffered.
    ///
    /// # Errors
    /// Fails if the file cannot be opened or the ring cannot be created.
    pub fn open(path: &Path, queue_depth: u32) -> Result<Self> {
        let file = File::open(path).map_err(IoEngineError::File)?;
        Self::with_file(file, queue_depth)
    }

    /// Builds a reader from an already-open file and a dedicated ring with
    /// `queue_depth` entries. It reads buffered: without a witness nothing
    /// shows that the page cache cannot keep the file.
    ///
    /// # Errors
    /// Fails if the ring cannot be created.
    pub fn with_file(file: File, queue_depth: u32) -> Result<Self> {
        Self::build(file, queue_depth, None)
    }

    /// [`UringReader::with_file`], reading with `O_DIRECT` if `witness`
    /// saw the page cache lose every page it noted of this file's earlier
    /// readers and hold less than half the pages the last of them sampled
    /// (decided here, once), and otherwise noting in `witness` some of the
    /// pages it reads and how often the cache held them, for the readers
    /// built after it.
    ///
    /// # Errors
    /// Fails if the ring cannot be created.
    pub fn with_witness(file: File, queue_depth: u32, witness: Arc<PageWitness>) -> Result<Self> {
        Self::build(file, queue_depth, Some(witness))
    }

    fn build(file: File, queue_depth: u32, witness: Option<Arc<PageWitness>>) -> Result<Self> {
        let ring = Ring::new(queue_depth)?;
        let (file, block, witness) = match witness.as_deref().and_then(|w| direct_twin(&file, w)) {
            Some((twin, block)) => (twin, Some(block), None),
            None => {
                advise_random(&file);
                (file, None, witness)
            }
        };
        Ok(Self {
            ring,
            file,
            block,
            witness,
            missing: false,
            sampled: 0,
            held: 0,
            registered: false,
            groups: SlotTable::new(),
            spare: Vec::new(),
            outstanding: 0,
            wait_nanos: 0,
            spanned: 0,
            staging_bytes: 0,
            #[cfg(test)]
            peak_outstanding: 0,
        })
    }

    /// Installs the file into the ring's registered-file table and
    /// switches reads to `IOSQE_FIXED_FILE` addressing — one fd lookup
    /// saved per I/O.
    ///
    /// # Errors
    /// Propagates `io_uring_register` failures; the reader stays usable
    /// in unregistered mode if this fails.
    pub fn register_file(&mut self) -> Result<()> {
        self.ring.register_files(&[self.file.as_raw_fd()])?;
        self.registered = true;
        Ok(())
    }

    /// Whether reads go through the registered-file fast path.
    pub fn is_registered(&self) -> bool {
        self.registered
    }

    /// Whether the reader reads its file with `O_DIRECT`, in staged spans.
    pub fn is_direct(&self) -> bool {
        self.block.is_some()
    }

    /// Reaps one completion; when `block` is false, only if one is ready.
    /// The blocking wait is the one place an engine reads the clock.
    fn pump_one(&mut self, block: bool) -> Result<bool> {
        let completion = if block {
            let parked = Instant::now();
            let c = self.ring.wait_completion()?;
            self.wait_nanos += parked.elapsed().as_nanos() as u64;
            Some(c)
        } else {
            self.ring.peek_completion()
        };
        let Some(c) = completion else {
            return Ok(false);
        };
        self.outstanding -= 1;
        self.file_completion(c);
        Ok(true)
    }

    /// Files a completion under its group, wherever in the table that is:
    /// CQEs arrive in the kernel's order, not submission order. A span
    /// serves its requests only if it covers them.
    fn file_completion(&mut self, c: Completion) {
        let idx = (c.user_data & 0xFFFFF) as usize;
        let Some(slot) = self.groups.get_mut(c.user_data >> 20) else {
            return;
        };
        let got = c.bytes().map(|n| n as usize);
        let failure = if slot.spans.is_empty() {
            slot.reqs.get(idx).map(|r| read_failure(r, got).map(|e| (idx, e)))
        } else {
            slot.spans.get(idx).copied().map(|s| match got {
                Ok(n) => slot.serve(s, n).map(|served| self.spanned += served).err(),
                Err(source) => {
                    let offset = slot.reqs.get(s.first).map_or(s.read.offset, |r| r.offset);
                    Some((s.first, IoEngineError::Completion { offset, source }))
                }
            })
        }
        // A CQE whose user_data indexes outside the group it names: a ring
        // accounting bug, reported instead of panicking.
        .unwrap_or(Some((idx, IoEngineError::InvalidToken(c.user_data))));
        if let Some((i, e)) = failure {
            if slot.error.as_ref().is_none_or(|(first, _)| i < *first) {
                slot.error = Some((i, e));
            }
        }
        slot.remaining -= 1;
        if slot.orphaned && slot.remaining == 0 {
            self.retire(c.user_data >> 20);
        }
    }

    /// Prepares the SQEs of the filed group `id` — one per request into its
    /// place in the payload, or, spanned, one per span into its staging or
    /// its request's place — and submits them with one enter. Each SQE is
    /// counted as it is prepared: once published it is the kernel's, submit
    /// error or not.
    fn lend(&mut self, id: u64) -> Result<()> {
        let file = if self.registered {
            FileRef::Registered(0)
        } else {
            FileRef::Fd(self.file.as_raw_fd())
        };
        let slot = self.groups.get_mut(id).ok_or(IoEngineError::InvalidToken(id))?;
        let buffered = slot.spans.is_empty();
        let sqes = if buffered { slot.reqs.len() } else { slot.spans.len() };
        // Make SQ room if earlier groups still occupy slots.
        while self.ring.sq_space() < sqes {
            self.pump_one(true)?;
        }
        let slot = self.groups.get_mut(id).ok_or(IoEngineError::InvalidToken(id))?;
        let (payload, staged) = (slot.buf.as_mut_ptr(), slot.stage.as_mut_ptr().cast::<u8>());
        let places = slot.reqs.iter().take(if buffered { sqes } else { 0 }).scan(0, |at, r| {
            let place = *at;
            *at += r.len as usize;
            Some((payload.wrapping_add(place), *r))
        });
        let spans = slot.spans.iter().map(|s| match s.stage {
            Some(at) => (staged.wrapping_add(at), s.read),
            None => (payload.wrapping_add(s.dst), s.read),
        });
        for (idx, (dst, read)) in places.chain(spans).enumerate() {
            // SAFETY: the destination lies in the payload of the group filed
            // under `id`, which `submit_group` sized to its requests, or in
            // its arena, sized to its staged spans. The table frees both
            // only once `remaining` — counted up as soon as the SQE is
            // queued — is back to 0, and `Drop` leaks them otherwise, so
            // they outlive the read. Moving the slot within the table does not move the
            // heap allocations. Registered index 0 is this reader's file.
            unsafe {
                self.ring
                    .prepare_read(file, dst, read.len, read.offset, (id << 20) | idx as u64)?;
            }
            slot.remaining += 1;
            self.outstanding += 1;
        }
        #[cfg(test)]
        {
            self.peak_outstanding = self.peak_outstanding.max(self.outstanding);
        }
        self.ring.submit()?;
        if self.block.is_none() {
            self.missing = (self.ring.cq_ready() as u64) < self.outstanding;
        }
        Ok(())
    }

    /// Gives up on group `id` after a failed submit: it retires now if the
    /// kernel holds none of its reads, else once their completions are in.
    fn orphan(&mut self, id: u64) {
        match self.groups.get_mut(id) {
            Some(slot) if slot.remaining > 0 => slot.orphaned = true,
            _ => self.retire(id),
        }
    }

    /// Takes group `id` out of the table for good, keeping its slot — not
    /// its buffer — for the next group.
    fn retire(&mut self, id: u64) {
        if let Some(mut slot) = self.groups.take(id) {
            slot.buf = Vec::new();
            self.spare.push(slot);
        }
    }
}

impl GroupReader for UringReader {
    fn queue_depth(&self) -> usize {
        self.ring.capacity()
    }

    fn submit_group(&mut self, reqs: &[ReadSlice], mut buf: Vec<u8>) -> Result<GroupToken> {
        if reqs.len() > self.queue_depth() {
            return Err(IoEngineError::GroupTooLarge {
                requested: reqs.len(),
                capacity: self.queue_depth(),
            });
        }
        assert!(
            reqs.len() < (1 << 20),
            "a group's request and span indices must fit in 20 bits of user_data"
        );
        let mut slot = self.spare.pop().unwrap_or_default();
        slot.reqs.clear();
        slot.reqs.extend_from_slice(reqs);
        slot.spans.clear();
        (slot.remaining, slot.error, slot.orphaned) = (0, None, false);
        if self.block.is_some() || self.missing {
            let pages = plan_spans(reqs, self.block, &mut slot.spans).div_ceil(PAGE_BYTES as usize);
            if slot.stage.len() < pages {
                let held = slot.stage.capacity();
                slot.stage.reserve_exact(pages - slot.stage.len());
                slot.stage.resize(pages, StagePage([0; PAGE_BYTES as usize]));
                self.staging_bytes += ((slot.stage.capacity() - held) as u64) * PAGE_BYTES;
            }
        }
        // Zero-fills only a genuine extension: the reads overwrite the rest.
        let total: usize = reqs.iter().map(|r| r.len as usize).sum();
        buf.resize(total, 0);
        slot.buf = buf;

        // Own first, lend second: the group is filed before any SQE points
        // into its buffer or arena, so a failed submit cannot free what it
        // lent.
        let id = self.groups.next_id();
        if let (Some(w), Some(first), Some(mid)) = (&self.witness, reqs.first(), reqs.get(reqs.len() / 2)) {
            w.note(id, first.offset);
            // Every `HELD_EVERY`th group from the first: whether the page
            // cache holds the page of its middle request before the group
            // reads it — a page only earlier groups can have read — as a
            // sample of what the cache serves. (A group's first page is
            // often its predecessor's last.)
            if id % HELD_EVERY == 1 {
                let held = sys::cachestat(self.file.as_raw_fd(), mid.offset, 1).map_or(0, |c| c.nr_cache.min(1));
                (self.sampled, self.held) = (self.sampled + 1, self.held + held);
            }
        }
        self.groups.push(slot);
        match self.lend(id) {
            Ok(()) => Ok(GroupToken { id }),
            Err(e) => {
                self.orphan(id);
                Err(e)
            }
        }
    }

    fn complete_group(&mut self, token: GroupToken) -> Result<Vec<u8>> {
        // Completion polling mode: reap what the CQ already holds (no
        // syscall) and park in the blocking wait only when it is empty.
        while self.groups.get_mut(token.id).is_some_and(|s| s.remaining > 0) {
            if !self.pump_one(false)? {
                self.pump_one(true)?;
            }
        }
        let mut slot = self
            .groups
            .take(token.id)
            .ok_or(IoEngineError::InvalidToken(token.id))?;
        let (buf, error) = (std::mem::take(&mut slot.buf), slot.error.take());
        self.spare.push(slot);
        match error {
            Some((_, e)) => Err(e),
            None => Ok(buf),
        }
    }

    fn stats(&self) -> ReaderStats {
        ReaderStats {
            syscalls: self.ring.enter_calls(),
            wait_nanos: self.wait_nanos,
            spanned: self.spanned,
            staging_bytes: self.staging_bytes,
        }
    }

    fn engine_name(&self) -> &'static str {
        "io_uring"
    }
}

impl Drop for UringReader {
    fn drop(&mut self) {
        if let Some(w) = &self.witness {
            w.note_held(self.sampled, self.held);
        }
        // Drain every outstanding completion so the kernel never writes
        // into freed buffers. Destructors must not fail: if the drain does,
        // the kernel may still write into any filed buffer, so they leak.
        while self.outstanding > 0 {
            if self.pump_one(true).is_err() {
                std::mem::forget(std::mem::replace(&mut self.groups, SlotTable::new()));
                return;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// pread fallback
// ---------------------------------------------------------------------------

/// Portable synchronous fallback with [`GroupReader`] semantics.
///
/// Each "group" is executed eagerly with `pread(2)` calls at submission
/// time; completion merely hands the buffer back. Useful on kernels or
/// sandboxes without io_uring and as a differential-testing oracle.
#[derive(Debug)]
pub struct PreadReader {
    file: File,
    queue_depth: usize,
    /// Groups read at submission, waiting to be handed back.
    ready: SlotTable<Result<Vec<u8>>>,
    syscalls: u64,
}

impl PreadReader {
    /// Opens `path` for synchronous scattered reads.
    ///
    /// # Errors
    /// Fails if the file cannot be opened.
    pub fn open(path: &Path, queue_depth: u32) -> Result<Self> {
        let file = File::open(path).map_err(IoEngineError::File)?;
        Ok(Self::with_file(file, queue_depth))
    }

    /// Builds a reader from an already-open file.
    pub fn with_file(file: File, queue_depth: u32) -> Self {
        advise_random(&file);
        Self {
            file,
            queue_depth: queue_depth.max(1) as usize,
            ready: SlotTable::new(),
            syscalls: 0,
        }
    }
}

impl GroupReader for PreadReader {
    fn queue_depth(&self) -> usize {
        self.queue_depth
    }

    fn submit_group(&mut self, reqs: &[ReadSlice], mut buf: Vec<u8>) -> Result<GroupToken> {
        if reqs.len() > self.queue_depth {
            return Err(IoEngineError::GroupTooLarge {
                requested: reqs.len(),
                capacity: self.queue_depth,
            });
        }
        let total: usize = reqs.iter().map(|r| r.len as usize).sum();
        // Zero-fills only a genuine extension: the reads overwrite the rest.
        buf.resize(total, 0);

        let mut cursor = 0usize;
        let mut outcome: Result<()> = Ok(());
        for r in reqs {
            #[expect(
                clippy::disallowed_methods,
                clippy::indexing_slicing,
                reason = "PreadReader is the synchronous fallback and differential-testing oracle: pread(2) at submit time is its contract, into cursor + len <= total = buf.len()"
            )]
            let read = self.file.read_at(&mut buf[cursor..cursor + r.len as usize], r.offset);
            if let Some(e) = read_failure(r, read) {
                outcome = Err(e);
                break;
            }
            cursor += r.len as usize;
            self.syscalls += 1;
        }
        let id = self.ready.next_id();
        self.ready.push(outcome.map(|()| buf));
        Ok(GroupToken { id })
    }

    fn complete_group(&mut self, token: GroupToken) -> Result<Vec<u8>> {
        self.ready
            .take(token.id)
            .unwrap_or(Err(IoEngineError::InvalidToken(token.id)))
    }

    fn stats(&self) -> ReaderStats {
        ReaderStats {
            syscalls: self.syscalls,
            wait_nanos: 0,
            spanned: 0,
            staging_bytes: 0,
        }
    }

    fn engine_name(&self) -> &'static str {
        "pread"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write_u32_file(n: u32) -> std::path::PathBuf {
        let path = crate::test_path("engine");
        let data: Vec<u8> = (0..n).flat_map(|x| x.to_le_bytes()).collect();
        std::fs::write(&path, data).unwrap();
        path
    }

    /// Writes `file`'s dirty pages back and drops every page of it from the
    /// page cache. Just written, an ext4 file can keep pages its journal
    /// still holds past a drop, so this drops until none is cached.
    fn drop_cached(file: &File) {
        file.sync_all().unwrap();
        for _ in 0..1000 {
            crate::sys::fadvise(file.as_raw_fd(), crate::sys::POSIX_FADV_DONTNEED).unwrap();
            if crate::sys::cachestat(file.as_raw_fd(), 0, 0).unwrap().nr_cache == 0 {
                return;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        panic!("the page cache keeps the file (is TMPDIR on tmpfs?)");
    }

    /// A file of `n` little-endian u32s, each its own index, written back
    /// and then dropped from the page cache.
    fn write_cold_u32_file(n: u32) -> std::path::PathBuf {
        let path = write_u32_file(n);
        drop_cached(&File::open(&path).unwrap());
        path
    }

    /// A witness to a buffered read of the first page of the file at
    /// `path` that the page cache did not serve, and the file dropped from
    /// the cache: it neither served nor kept what was read.
    fn lost_witness(path: &Path) -> Arc<PageWitness> {
        let witness = PageWitness::default();
        witness.note(1, 0);
        witness.note_held(1, 0);
        drop_cached(&File::open(path).unwrap());
        Arc::new(witness)
    }

    /// A direct reader on the file at `path`, whose page cache lost a read
    /// of it; fails if the filesystem keeps the file cached or refuses
    /// `O_DIRECT` (tmpfs).
    fn direct_reader(path: &Path, qd: u32) -> UringReader {
        let r = UringReader::with_witness(File::open(path).unwrap(), qd, lost_witness(path)).unwrap();
        assert!(r.is_direct(), "a dropped file opened buffered (is TMPDIR on tmpfs?)");
        r
    }

    /// `runs` runs of `len` adjacent 4-byte reads, each run on its own page
    /// and the runs `stride` pages apart: what a sorted group of a target's
    /// draws from one neighbour list looks like.
    fn same_page_runs(first: u64, runs: u64, len: u64, stride: u64) -> Vec<ReadSlice> {
        (0..runs)
            .flat_map(|k| (0..len).map(move |i| ReadSlice::new((first + k * stride) * PAGE_BYTES + i * 12, 4)))
            .collect()
    }

    /// The entries `reqs` read from a [`write_u32_file`] file.
    fn entries_of(reqs: &[ReadSlice]) -> Vec<u8> {
        reqs.iter().flat_map(|r| ((r.offset / 4) as u32).to_le_bytes()).collect()
    }

    /// Reads `groups` the way the worker's pipeline does, one group
    /// submitted ahead of the one being completed, and returns the buffers.
    fn pipelined(r: &mut dyn GroupReader, groups: &[Vec<ReadSlice>]) -> Vec<Vec<u8>> {
        let mut out = Vec::new();
        let mut ahead: Option<GroupToken> = None;
        for g in groups {
            let t = r.submit_group(g, Vec::new()).unwrap();
            if let Some(prev) = ahead.replace(t) {
                out.push(r.complete_group(prev).unwrap());
            }
        }
        if let Some(last) = ahead {
            out.push(r.complete_group(last).unwrap());
        }
        out
    }

    fn check_reader(mut r: Box<dyn GroupReader>, n: u32) {
        // Three interleaved in-flight groups of scattered 4-byte reads.
        let mk = |start: u32| -> Vec<ReadSlice> {
            (0..32)
                .map(|i| ReadSlice::new(((start + i * 131) % n) as u64 * 4, 4))
                .collect()
        };
        let g1 = mk(0);
        let g2 = mk(7);
        let g3 = mk(1000);
        let t1 = r.submit_group(&g1, Vec::new()).unwrap();
        let t2 = r.submit_group(&g2, Vec::new()).unwrap();
        let b1 = r.complete_group(t1).unwrap();
        let t3 = r.submit_group(&g3, b1.clone()).unwrap();
        let b2 = r.complete_group(t2).unwrap();
        let b3 = r.complete_group(t3).unwrap();
        for (reqs, buf) in [(&g1, &b1), (&g2, &b2), (&g3, &b3)] {
            assert_eq!(buf.len(), reqs.len() * 4);
            for (i, req) in reqs.iter().enumerate() {
                let got = u32::from_le_bytes(buf[4 * i..4 * i + 4].try_into().unwrap());
                assert_eq!(got as u64 * 4, req.offset);
            }
        }
    }

    #[test]
    fn uring_reader_scattered_reads() {
        let path = write_u32_file(10_000);
        let r = UringReader::open(&path, 64).unwrap();
        check_reader(Box::new(r), 10_000);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn pread_reader_scattered_reads() {
        let path = write_u32_file(10_000);
        let r = PreadReader::open(&path, 64).unwrap();
        check_reader(Box::new(r), 10_000);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn engines_agree_bit_for_bit() {
        let path = write_u32_file(5_000);
        let mut a = UringReader::open(&path, 32).unwrap();
        let mut b = PreadReader::open(&path, 32).unwrap();
        let reqs: Vec<ReadSlice> = (0..32u64)
            .map(|i| ReadSlice::new((i * i * 13 % 5000) * 4, 4))
            .collect();
        let ba = read_group_blocking(&mut a, &reqs, Vec::new()).unwrap();
        let bb = read_group_blocking(&mut b, &reqs, Vec::new()).unwrap();
        assert_eq!(ba, bb);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn registered_file_mode_is_equivalent() {
        let path = write_u32_file(5_000);
        let mut plain = UringReader::open(&path, 32).unwrap();
        let mut fixed = UringReader::open(&path, 32).unwrap();
        fixed.register_file().unwrap();
        assert!(fixed.is_registered());
        assert!(!plain.is_registered());
        let reqs: Vec<ReadSlice> = (0..32u64)
            .map(|i| ReadSlice::new((i * 157 % 5000) * 4, 4))
            .collect();
        let a = read_group_blocking(&mut plain, &reqs, Vec::new()).unwrap();
        let b = read_group_blocking(&mut fixed, &reqs, Vec::new()).unwrap();
        assert_eq!(a, b);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn group_too_large_rejected() {
        let path = write_u32_file(100);
        let mut r = UringReader::open(&path, 8).unwrap();
        let reqs: Vec<ReadSlice> = (0..9).map(|i| ReadSlice::new(i * 4, 4)).collect();
        assert!(matches!(
            r.submit_group(&reqs, Vec::new()),
            Err(IoEngineError::GroupTooLarge { .. })
        ));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn short_read_detected_at_eof() {
        let path = write_u32_file(4);
        let qd = 8u32;
        let mut u = UringReader::open(&path, qd).unwrap();
        let t = u
            .submit_group(&[ReadSlice::new(1 << 20, 4)], Vec::new())
            .unwrap();
        assert!(matches!(
            u.complete_group(t),
            Err(IoEngineError::ShortRead { .. })
        ));
        let mut p = PreadReader::open(&path, qd).unwrap();
        let t = p
            .submit_group(&[ReadSlice::new(1 << 20, 4)], Vec::new())
            .unwrap();
        assert!(matches!(
            p.complete_group(t),
            Err(IoEngineError::ShortRead { .. })
        ));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn empty_group_is_fine() {
        let path = write_u32_file(10);
        let mut r = UringReader::open(&path, 8).unwrap();
        let t = r.submit_group(&[], vec![1, 2, 3]).unwrap();
        let b = r.complete_group(t).unwrap();
        assert!(b.is_empty());
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn dropping_token_is_safe() {
        let path = write_u32_file(1000);
        let mut u = UringReader::open(&path, 8).unwrap();
        let mut p = PreadReader::open(&path, 8).unwrap();
        let lost = [ReadSlice::new(0, 4), ReadSlice::new(4, 4)];
        // The buffers stay owned by the readers.
        drop(u.submit_group(&lost, Vec::new()).unwrap());
        drop(p.submit_group(&lost, Vec::new()).unwrap());
        // The lost group pins the slot of every later one, and costs
        // nothing else: each still reads what it asked for.
        for k in 0..100u32 {
            let reqs = [k, 999 - k].map(|x| ReadSlice::new(u64::from(x) * 4, 4));
            let want: Vec<u8> = [k, 999 - k].iter().flat_map(|x| x.to_le_bytes()).collect();
            assert_eq!(read_group_blocking(&mut u, &reqs, Vec::new()).unwrap(), want);
            assert_eq!(read_group_blocking(&mut p, &reqs, Vec::new()).unwrap(), want);
        }
        assert_eq!((u.groups.oldest, u.groups.slots.len()), (1, 101));
        assert_eq!((p.ready.oldest, p.ready.slots.len()), (1, 101));
        assert_eq!(u.groups.slots.iter().flatten().count(), 1, "only the lost group is held");
        drop(u); // drains what the kernel may still write.
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn failed_submit_frees_nothing_the_kernel_writes() {
        // Eight scattered 4-byte reads per group, and the entries they hold.
        let group = |k: u32| -> (Vec<ReadSlice>, Vec<u8>) {
            let entries: Vec<u32> = (0..8).map(|i| (k * 97 + i * 31) % 1_000).collect();
            let reqs = entries.iter().map(|&x| ReadSlice::new(u64::from(x) * 4, 4)).collect();
            (reqs, entries.iter().flat_map(|x| x.to_le_bytes()).collect())
        };
        let path = write_u32_file(1_000);
        let mut r = UringReader::open(&path, 32).unwrap();
        let (g1, want1) = group(1);
        let t1 = r.submit_group(&g1, Vec::new()).unwrap();
        // Group 2's SQEs are published, then its enter fails: the next
        // enter carries them, into group 2's buffer. All eight of them,
        // whether or not group 1's reads were still in flight.
        r.ring.fail_next_submit = true;
        assert!(matches!(
            r.submit_group(&group(2).0, Vec::new()),
            Err(IoEngineError::Ring { op: "enter", .. })
        ));
        assert_eq!(r.groups.get_mut(2).map(|s| (s.remaining, s.orphaned)), Some((8, true)));
        for k in [3, 4] {
            let (reqs, want) = group(k);
            assert_eq!(read_group_blocking(&mut r, &reqs, Vec::new()).unwrap(), want);
        }
        assert_eq!(r.complete_group(t1).unwrap(), want1);
        while r.outstanding > 0 {
            r.pump_one(true).unwrap();
        }
        // Group 2 took its own completions and retired with the last one:
        // it pins no slot.
        assert!(r.groups.slots.is_empty(), "{:?}", r.groups);
        assert_eq!(r.groups.next_id(), 5);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn drop_after_a_failed_first_submit_returns() {
        let path = write_u32_file(100);
        let mut r = UringReader::open(&path, 8).unwrap();
        r.ring.fail_next_submit = true;
        let reqs: Vec<ReadSlice> = (0..8u64).map(|i| ReadSlice::new(i * 4, 4)).collect();
        assert!(r.submit_group(&reqs, Vec::new()).is_err());
        assert_eq!(r.outstanding, 8);
        drop(r); // enters the published reads and reaps them before freeing.
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn buffer_recycling_reuses_capacity() {
        let path = write_u32_file(1000);
        let mut r = PreadReader::open(&path, 8).unwrap();
        let big = Vec::with_capacity(4096);
        let t = r.submit_group(&[ReadSlice::new(0, 4)], big).unwrap();
        let b = r.complete_group(t).unwrap();
        assert!(b.capacity() >= 4096, "capacity should be recycled");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn completion_for_a_younger_group_is_filed_by_subtraction() {
        // Three groups in flight; the kernel answers the second-oldest
        // first. Synthetic completions, so the order is the test's.
        let path = write_u32_file(16);
        let mut r = UringReader::open(&path, 8).unwrap();
        for id in 1..=3u64 {
            assert_eq!(r.groups.next_id(), id);
            r.groups.push(Slot {
                reqs: vec![ReadSlice::new(id * 8, 4), ReadSlice::new(id * 8 + 4, 4)],
                remaining: 2,
                ..Slot::default()
            });
        }
        let cqe = |id: u64, idx: u64, result| Completion {
            user_data: (id << 20) | idx,
            result,
        };
        r.file_completion(cqe(2, 1, 4));
        r.file_completion(cqe(2, 0, 2)); // short
        r.file_completion(cqe(3, 0, 4));
        r.file_completion(cqe(9, 0, 4)); // no such group: ignored
        let left = |r: &mut UringReader, id| r.groups.get_mut(id).map(|s| s.remaining);
        assert_eq!(left(&mut r, 1), Some(2));
        assert_eq!(left(&mut r, 2), Some(0));
        assert_eq!(left(&mut r, 3), Some(1));
        assert_eq!(left(&mut r, 9), None);
        // Taken out of turn, group 2 leaves its slot behind until group 1
        // goes; then both retire and group 3 is the oldest.
        let second = r.groups.take(2).unwrap();
        assert!(matches!(
            second.error,
            Some((0, IoEngineError::ShortRead { offset: 16, expected: 4, got: 2 }))
        ));
        assert!(r.groups.take(2).is_none(), "a group is taken once");
        assert_eq!(r.groups.oldest, 1);
        assert!(r.groups.take(1).is_some());
        assert_eq!(r.groups.oldest, 3);
        assert_eq!(left(&mut r, 3), Some(1));
        assert_eq!(r.groups.next_id(), 4);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn only_a_blocking_wait_is_timed() {
        let path = write_u32_file(1_000);
        let reqs: Vec<ReadSlice> = (0..8u64).map(|i| ReadSlice::new(i * 4, 4)).collect();
        let mut p = PreadReader::open(&path, 8).unwrap();
        read_group_blocking(&mut p, &reqs, Vec::new()).unwrap();
        assert_eq!(p.stats(), ReaderStats { syscalls: 8, wait_nanos: 0, spanned: 0, staging_bytes: 0 });
        let mut u = UringReader::open(&path, 8).unwrap();
        let t = u.submit_group(&reqs, Vec::new()).unwrap();
        // Every CQE is reaped by a peek or by the parked wait; only the
        // latter moves the clock.
        u.pump_one(true).unwrap();
        let parked = u.stats().wait_nanos;
        assert!(parked > 0);
        while u.pump_one(false).unwrap() {}
        assert_eq!(u.stats().wait_nanos, parked);
        u.complete_group(t).unwrap();
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn warm_same_page_runs_hold_nothing() {
        let path = write_u32_file(1 << 16);
        let qd = 32u32;
        let groups: Vec<Vec<ReadSlice>> = (0..8).map(|k| same_page_runs(k * 8, 4, 8, 1)).collect();
        // The page cache kept what the last reader read: the next reads it
        // buffered, one SQE per request, and stages nothing.
        let witness = Arc::new(PageWitness::default());
        let file = || File::open(&path).unwrap();
        pipelined(&mut UringReader::with_witness(file(), qd, Arc::clone(&witness)).unwrap(), &groups);
        let mut r = UringReader::with_witness(file(), qd, witness).unwrap();
        assert!(!r.is_direct());
        let got = pipelined(&mut r, &groups);
        for (g, buf) in groups.iter().zip(&got) {
            assert_eq!(buf, &entries_of(g));
        }
        let stats = r.stats();
        assert_eq!((stats.spanned, stats.staging_bytes), (0, 0));
        assert_eq!(stats.syscalls, groups.len() as u64, "one enter per group");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn a_cold_file_warms_until_the_cache_loses_it() {
        let path = write_cold_u32_file(1 << 18);
        let groups: Vec<Vec<ReadSlice>> = (0..8).map(|k| same_page_runs(k * 16, 4, 8, 2)).collect();
        let witness = Arc::new(PageWitness::default());
        let open = || UringReader::with_witness(File::open(&path).unwrap(), 32, Arc::clone(&witness)).unwrap();
        let cached = || {
            let fd = File::open(&path).unwrap();
            groups.iter().flatten().filter(|r| crate::sys::cachestat(fd.as_raw_fd(), r.offset, 1).unwrap().nr_cache > 0).count()
        };
        // Cold, and nothing noted yet: the first reader reads buffered and
        // leaves what it read in the page cache.
        assert_eq!(cached(), 0);
        let mut first = open();
        assert!(!first.is_direct());
        pipelined(&mut first, &groups);
        drop(first);
        assert_eq!(cached(), 8 * 32);
        // The cache kept it, so the next reader reads buffered too.
        assert!(!open().is_direct());
        // The first reader's groups each began on a page the cache did not
        // hold. Once the cache loses what was read, the next reader reads
        // direct, and nothing it reads enters the cache.
        drop_cached(&File::open(&path).unwrap());
        let mut third = open();
        assert!(third.is_direct());
        let got = pipelined(&mut third, &groups);
        assert_eq!(cached(), 0);
        let mut p = PreadReader::open(&path, 32).unwrap();
        assert_eq!(got, pipelined(&mut p, &groups));
        // A reader built without a witness reads buffered, whatever the cache.
        assert!(!UringReader::open(&path, 32).unwrap().is_direct());
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn cold_same_page_runs_wait_on_each_page_once() {
        // 32 MiB, runs 64 pages apart: a dropped file, read direct.
        let n = 8 << 20;
        let path = write_cold_u32_file(n);
        let qd = 32u32;
        let groups: Vec<Vec<ReadSlice>> =
            (0..8).map(|k| same_page_runs(k * 4 * 64, 4, 8, 64)).collect();
        let mut r = direct_reader(&path, qd);
        let mut sqes = Vec::new();
        let mut ahead: Option<GroupToken> = None;
        let mut got = Vec::new();
        for g in &groups {
            let before = r.outstanding;
            let t = r.submit_group(g, Vec::new()).unwrap();
            sqes.push(r.outstanding - before);
            if let Some(prev) = ahead.replace(t) {
                got.push(r.complete_group(prev).unwrap());
            }
        }
        got.push(r.complete_group(ahead.unwrap()).unwrap());
        let mut p = PreadReader::open(&path, qd).unwrap();
        assert_eq!(got, pipelined(&mut p, &groups));
        // Each page is read once, by one read of its run, and every request
        // is served from it.
        assert_eq!(sqes, vec![4; groups.len()]);
        assert_eq!(r.stats().spanned, (groups.len() * 32) as u64);
        assert_eq!(r.outstanding, 0);
        assert!(r.groups.slots.is_empty(), "{:?}", r.groups);
        // A group lends at most one SQE per request, so the two groups in
        // flight never outgrow the CQ (2 × depth).
        assert!(r.peak_outstanding <= 2 * u64::from(qd), "{}", r.peak_outstanding);
        std::fs::remove_file(path).ok();
    }

    /// The page of each request that lies on one page: the oracle the span
    /// tests count their SQEs by.
    fn one_page(r: &ReadSlice) -> Option<u64> {
        let page = r.offset / PAGE_BYTES;
        ((r.offset + u64::from(r.len) - 1) / PAGE_BYTES == page).then_some(page)
    }

    #[test]
    fn spanned_runs_read_what_pread_reads_with_one_sqe_per_run() {
        // Random groups of same-page runs of 1–8 sorted 4-byte reads, each
        // run on another page than the one before, with now and then a read
        // that straddles two pages and so is a run of its own.
        let pages = 256u64;
        let path = write_cold_u32_file((pages * PAGE_BYTES / 4) as u32);
        let qd = 32usize;
        let mut seed = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = |n: u64| {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed % n
        };
        let mut r = direct_reader(&path, qd as u32);
        let mut p = PreadReader::open(&path, qd as u32).unwrap();
        let (mut page, mut requests) = (0u64, 0u64);
        for _ in 0..40 {
            let mut reqs = Vec::new();
            while reqs.len() < qd {
                page = (page + 1 + next(7)) % (pages - 1);
                if next(5) == 0 {
                    reqs.push(ReadSlice::new((page + 1) * PAGE_BYTES - 4, 8));
                    continue;
                }
                let mut slots: Vec<u64> = (0..1 + next(8)).map(|_| next(1024)).collect();
                slots.sort_unstable();
                let room = qd - reqs.len();
                reqs.extend(slots.iter().take(room).map(|&s| ReadSlice::new(page * PAGE_BYTES + s * 4, 4)));
            }
            // One SQE per maximal run of reads on one page, one per other read.
            let runs = reqs.chunk_by(|a, b| one_page(a).is_some() && one_page(a) == one_page(b)).count();
            requests += reqs.len() as u64;
            let enters = r.stats().syscalls;
            let t = r.submit_group(&reqs, Vec::new()).unwrap();
            assert_eq!(r.outstanding, runs as u64, "{reqs:?}");
            let got = r.complete_group(t).unwrap();
            assert_eq!(got, read_group_blocking(&mut p, &reqs, Vec::new()).unwrap());
            assert_eq!(got.len(), reqs.iter().map(|q| q.len as usize).sum::<usize>());
            assert!(r.stats().syscalls > enters, "a group's reads take an enter");
        }
        assert_eq!(r.stats().spanned, requests, "every request is served from staging");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn only_whole_page_runs_span() {
        let mut spans = Vec::new();
        let at = |offset, len| ReadSlice::new(offset, len);
        // A run of three on page 1, a read straddling pages 1 and 2, a lone
        // read, then two reads whose page ends the address space and one
        // whose end overflows it.
        let reqs = [
            at(4096, 4), at(4100, 8), at(4096, 4), at(8190, 4),
            at(9000, 4),
            at(u64::MAX - 7, 4), at(u64::MAX - 3, 4), at(u64::MAX - 1, 4),
        ];
        // Direct: each run is one read of its extent, rounded out to the
        // 512-byte block, staged one after another.
        assert_eq!(plan_spans(&reqs, Some(512), &mut spans), 512 + 1024 + 512 + 511 + 511);
        let got: Vec<_> = spans.iter().map(|s| (s.first, s.end, s.dst, s.stage, s.read)).collect();
        let last = u64::MAX - 511;
        assert_eq!(
            got,
            [
                (0, 3, 0, Some(0), at(4096, 512)),
                (3, 4, 16, Some(512), at(7680, 1024)),
                (4, 5, 20, Some(1536), at(8704, 512)),
                (5, 7, 24, Some(2048), at(last, 511)),
                (7, 8, 32, Some(2559), at(last, 511)),
            ]
        );
        // Buffered: the runs of two or more are staged as their extent, and
        // every other request is read in place.
        spans.clear();
        // The run that ends the address space stops a byte short of it.
        assert_eq!(plan_spans(&reqs, None, &mut spans), 12 + 7);
        let got: Vec<_> = spans.iter().map(|s| (s.first, s.end, s.dst, s.stage, s.read)).collect();
        assert_eq!(
            got,
            [
                (0, 3, 0, Some(0), at(4096, 12)),
                (3, 4, 16, None, at(8190, 4)),
                (4, 5, 20, None, at(9000, 4)),
                (5, 7, 24, Some(12), at(u64::MAX - 7, 7)),
                (7, 8, 32, None, at(u64::MAX - 1, 4)),
            ]
        );
    }

    #[test]
    fn missing_pages_span_buffered_runs() {
        let pages = 64u64;
        let path = write_cold_u32_file((pages * PAGE_BYTES / 4) as u32);
        let qd = 32u32;
        let mut r = UringReader::open(&path, qd).unwrap();
        assert!(!r.is_direct());
        let mut p = PreadReader::open(&path, qd).unwrap();
        // Runs of eight on pages 0, 2, 4 and 6, then a page-straddling read
        // and a lone one: four spans and two reads in place.
        let mut reqs = same_page_runs(0, 4, 6, 2);
        reqs.push(ReadSlice::new(9 * PAGE_BYTES - 4, 8));
        reqs.push(ReadSlice::new(20 * PAGE_BYTES, 4));
        // Missing pages, as the last group's lend saw them: this group spans.
        r.missing = true;
        let t = r.submit_group(&reqs, Vec::new()).unwrap();
        assert_eq!(r.outstanding, 6);
        let got = r.complete_group(t).unwrap();
        assert_eq!(got, read_group_blocking(&mut p, &reqs, Vec::new()).unwrap());
        assert_eq!(r.stats().spanned, 24, "the four runs are served from staging");
        assert_eq!(r.stats().staging_bytes, PAGE_BYTES, "four runs of 24 bytes take one page");
        // With nothing missing, the reader lends one SQE per request.
        r.missing = false;
        let t = r.submit_group(&reqs, Vec::new()).unwrap();
        assert_eq!(r.outstanding, reqs.len() as u64);
        assert_eq!(r.complete_group(t).unwrap(), got);
        assert_eq!(r.stats().spanned, 24);
        // A run whose page ends short of its reads fails at the first one
        // past EOF, as pread does.
        let tail = [ReadSlice::new((pages - 1) * PAGE_BYTES + 4088, 4), ReadSlice::new((pages - 1) * PAGE_BYTES + 4092, 8)];
        r.missing = true;
        let short = |e| match e {
            Err(IoEngineError::ShortRead { offset, expected, got }) => (offset, expected, got),
            other => panic!("{other:?}"),
        };
        let want = short(read_group_blocking(&mut p, &tail, Vec::new()));
        assert_eq!(short(read_group_blocking(&mut r, &tail, Vec::new())), want);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn buffered_span_staging_stays_within_its_bound() {
        let path = write_u32_file(1 << 20);
        let qd = 64u32;
        let mut r = UringReader::open(&path, qd).unwrap();
        let mut p = PreadReader::open(&path, qd).unwrap();
        // 32 runs of two reads at the two ends of a page: each run's extent
        // is its whole page, and only sixteen pages may be staged.
        let runs: Vec<ReadSlice> = (0..32u64)
            .flat_map(|k| [0, PAGE_BYTES - 4].map(|at| ReadSlice::new(k * PAGE_BYTES + at, 4)))
            .collect();
        r.missing = true;
        let t = r.submit_group(&runs, Vec::new()).unwrap();
        assert_eq!(r.outstanding, 16 + 2 * 16, "sixteen spans, then the rest read by read");
        assert_eq!(r.complete_group(t).unwrap(), read_group_blocking(&mut p, &runs, Vec::new()).unwrap());
        assert_eq!(r.stats().staging_bytes, SPAN_BYTES_MAX as u64);
        assert_eq!(r.stats().spanned, 32);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn short_span_fails_its_group_and_fills_nothing() {
        // 16 bytes: each span reads a whole block and gets 16 back.
        let path = write_cold_u32_file(4);
        let mut r = direct_reader(&path, 8);
        let mut p = PreadReader::open(&path, 8).unwrap();
        // One run on page 0 whose fifth request, at 16, lies past EOF.
        let eof: Vec<ReadSlice> = (0..5).map(|i| ReadSlice::new(i * 4, 4)).collect();
        let t = r.submit_group(&eof, Vec::new()).unwrap();
        assert_eq!(r.groups.get_mut(1).map(|s| (s.remaining, s.spans.len())), Some((1, 1)));
        let short = |e| match e {
            Err(IoEngineError::ShortRead { offset, expected, got }) => (offset, expected, got),
            other => panic!("{other:?}"),
        };
        assert_eq!(short(r.complete_group(t)), (16, 4, 0));
        assert_eq!(short(read_group_blocking(&mut p, &eof, Vec::new())), (16, 4, 0));
        assert_eq!(r.stats().spanned, 0, "a short span served a request");
        assert_eq!(r.outstanding, 0);
        assert!(r.groups.slots.is_empty(), "{:?}", r.groups);
        // The reader goes on: a read cut short at EOF that covers its
        // requests serves them.
        let reqs = [ReadSlice::new(4, 4), ReadSlice::new(12, 4)];
        assert_eq!(read_group_blocking(&mut r, &reqs, Vec::new()).unwrap(), entries_of(&reqs));
        assert_eq!(r.stats().spanned, 2);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn failed_span_lend_frees_nothing_the_kernel_writes() {
        let path = write_cold_u32_file(4_096);
        let mut r = direct_reader(&path, 32);
        // Two runs of eight on pages 0 and 1: two spans, two SQEs.
        let g1 = same_page_runs(0, 2, 8, 1);
        // The spans' SQEs are published, then their enter fails: the next
        // enter carries them, into group 1's staging.
        r.ring.fail_next_submit = true;
        assert!(matches!(
            r.submit_group(&g1, Vec::new()),
            Err(IoEngineError::Ring { op: "enter", .. })
        ));
        assert_eq!(r.groups.get_mut(1).map(|s| (s.remaining, s.orphaned)), Some((2, true)));
        for k in [2, 3] {
            let reqs: Vec<ReadSlice> = (0..4).map(|i| ReadSlice::new(k * 4 + i * 12, 4)).collect();
            assert_eq!(read_group_blocking(&mut r, &reqs, Vec::new()).unwrap(), entries_of(&reqs));
        }
        while r.outstanding > 0 {
            r.pump_one(true).unwrap();
        }
        // Group 1 took its own completions and retired with the last one:
        // it pins no slot.
        assert!(r.groups.slots.is_empty(), "{:?}", r.groups);
        assert_eq!(r.groups.next_id(), 4);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn span_staging_stays_within_its_bound() {
        let path = write_cold_u32_file(1 << 20);
        let qd = 64u32;
        let mut r = direct_reader(&path, qd);
        let block = r.block.unwrap();
        // 32 runs of two reads at the two ends of a page: each run's read is
        // its whole page, and the staging is one page per run.
        let runs: Vec<ReadSlice> = (0..32u64)
            .flat_map(|k| [0, PAGE_BYTES - 4].map(|at| ReadSlice::new(k * PAGE_BYTES + at, 4)))
            .collect();
        assert_eq!(read_group_blocking(&mut r, &runs, Vec::new()).unwrap(), entries_of(&runs));
        assert_eq!(r.stats().staging_bytes, 32 * PAGE_BYTES);
        // Four 64 KiB slices that start and end inside pages: each a run of
        // one, staged in at most its own length plus two blocks.
        let slices: Vec<ReadSlice> = (0..4u64).map(|k| ReadSlice::new(k * 70_000 + 12, 64 << 10)).collect();
        let mut p = PreadReader::open(&path, qd).unwrap();
        let got = read_group_blocking(&mut r, &slices, Vec::new()).unwrap();
        assert_eq!(got, read_group_blocking(&mut p, &slices, Vec::new()).unwrap());
        let bound = 4 * ((64 << 10) + 2 * block);
        // One slot served both groups: its arena grew to the larger.
        assert_eq!(r.spare.len(), 1);
        assert_eq!(r.stats().staging_bytes, bound.max(32 * PAGE_BYTES).div_ceil(PAGE_BYTES) * PAGE_BYTES);
        assert_eq!(r.stats().spanned, (runs.len() + slices.len()) as u64);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn direct_reads_match_pread_on_a_file_no_block_divides() {
        // 4,001 entries: 16,004 bytes, a multiple of no direct-I/O block.
        let n = 4_001u32;
        let path = write_cold_u32_file(n);
        let mut r = direct_reader(&path, 64);
        let mut p = PreadReader::open(&path, 64).unwrap();
        let groups: Vec<Vec<ReadSlice>> = (0..6u64)
            .map(|g| (0..64u64).map(|i| ReadSlice::new((g * 631 + i * i * 17) % u64::from(n) * 4, 4)).collect())
            .collect();
        let mut groups = groups;
        // The file's last entry, and a read that ends exactly at EOF.
        groups.push(vec![ReadSlice::new(u64::from(n - 1) * 4, 4), ReadSlice::new(16_004 - 1_000, 1_000)]);
        assert_eq!(pipelined(&mut r, &groups), pipelined(&mut p, &groups));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn truncated_direct_file_fails_where_pread_does() {
        let path = write_cold_u32_file(16 << 10);
        let mut r = direct_reader(&path, 16);
        let mut p = PreadReader::open(&path, 16).unwrap();
        // The file loses its tail after both readers opened it: 10,002
        // bytes are left, so the read at 10,000 is cut short after 2 bytes
        // and every read past it gets nothing.
        File::options().write(true).open(&path).unwrap().set_len(10_002).unwrap();
        let reqs: Vec<ReadSlice> =
            [40_000, 12_000, 10_000, 4, 9_996, 20_000].map(|at| ReadSlice::new(at, 4)).to_vec();
        let short = |e: Result<Vec<u8>>| match e {
            Err(IoEngineError::ShortRead { offset, expected, got }) => (offset, expected, got),
            other => panic!("{other:?}"),
        };
        // The earliest request that failed, whichever read completed first.
        let want = short(read_group_blocking(&mut p, &reqs, Vec::new()));
        assert_eq!(want, (40_000, 4, 0));
        assert_eq!(short(read_group_blocking(&mut r, &reqs, Vec::new())), want);
        let tail = [ReadSlice::new(4, 4), ReadSlice::new(10_000, 4)];
        assert_eq!(short(read_group_blocking(&mut r, &tail, Vec::new())), (10_000, 4, 2));
        assert_eq!(short(read_group_blocking(&mut p, &tail, Vec::new())), (10_000, 4, 2));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn page_straddling_coalesced_slices_match_pread() {
        let path = write_cold_u32_file(1 << 20);
        let mut r = direct_reader(&path, 8);
        let mut p = PreadReader::open(&path, 8).unwrap();
        // 64 KiB slices at every alignment a coalesced plan produces: on a
        // page boundary, inside a page, and ending a byte into the next.
        let groups: Vec<Vec<ReadSlice>> = (0..4u64)
            .map(|g| (0..8u64).map(|i| ReadSlice::new(g * 600_000 + i * 70_001 + g * 4, 64 << 10)).collect())
            .collect();
        assert_eq!(pipelined(&mut r, &groups), pipelined(&mut p, &groups));
        assert_eq!(r.stats().spanned, 32);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn pages_the_cache_served_keep_the_next_reader_buffered() {
        let path = write_u32_file(1 << 18);
        let groups: Vec<Vec<ReadSlice>> = (0..8).map(|k| same_page_runs(k * 16, 4, 8, 2)).collect();
        let witness = Arc::new(PageWitness::default());
        let open = || UringReader::with_witness(File::open(&path).unwrap(), 32, Arc::clone(&witness)).unwrap();
        // The file is cached: the page cache serves every read.
        let mut r = open();
        pipelined(&mut r, &groups);
        assert_eq!((r.held, r.sampled), (1, 1), "group 1 is sampled, and the cache holds its page");
        drop(r);
        // It loses the file, but it served what the last reader read: pages
        // may recur, so the next reader reads buffered.
        drop_cached(&File::open(&path).unwrap());
        assert!(!open().is_direct());
        // A last reader whose groups began on a page the cache held less
        // than half the time: direct.
        witness.note_held(8, 3);
        assert!(open().is_direct());
        witness.note_held(8, 4);
        assert!(!open().is_direct());
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn refused_direct_reads_the_dropped_file_buffered() {
        let path = write_u32_file(1 << 20);
        let witness = lost_witness(&path);
        // The probe refuses, as without cachestat(2) or on a filesystem
        // that takes no O_DIRECT: the reader stays buffered.
        REFUSE_DIRECT.set(true);
        let mut r = UringReader::with_witness(File::open(&path).unwrap(), 32, Arc::clone(&witness)).unwrap();
        assert!(!r.is_direct());
        let mut p = PreadReader::open(&path, 32).unwrap();
        let groups: Vec<Vec<ReadSlice>> = (0..8).map(|k| same_page_runs(k * 64, 4, 8, 3)).collect();
        assert_eq!(pipelined(&mut r, &groups), pipelined(&mut p, &groups));
        // The refusal was for one reader: once the cache loses what it
        // read, the next one reads direct.
        drop_cached(&File::open(&path).unwrap());
        assert!(UringReader::with_witness(File::open(&path).unwrap(), 32, witness).unwrap().is_direct());
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn uring_uses_fewer_syscalls_than_pread() {
        let path = write_u32_file(10_000);
        let reqs: Vec<ReadSlice> = (0..64u64).map(|i| ReadSlice::new(i * 16, 4)).collect();
        let mut u = UringReader::open(&path, 64).unwrap();
        let mut p = PreadReader::open(&path, 64).unwrap();
        read_group_blocking(&mut u, &reqs, Vec::new()).unwrap();
        read_group_blocking(&mut p, &reqs, Vec::new()).unwrap();
        assert!(u.stats().syscalls < p.stats().syscalls);
        std::fs::remove_file(path).ok();
    }
}
