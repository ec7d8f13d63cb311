#![cfg_attr(not(test), deny(clippy::disallowed_types, clippy::disallowed_methods, clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable, clippy::todo, clippy::unimplemented, clippy::indexing_slicing, clippy::allow_attributes, clippy::allow_attributes_without_reason))]
//! Group-based read engines.
//!
//! RingSampler's sampling pipeline works in *I/O groups*: batches of up to
//! queue-depth scattered reads that are submitted with one syscall — two
//! while the page cache is missing pages, see below — and completed by
//! polling the CQ (paper §3.1, "Overlapping computation and I/O"). This
//! module defines that contract ([`GroupReader`]) and two implementations:
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
//! Wait on a page once. A group's reads arrive in file order, so a target's
//! draws from one neighbour list are adjacent reads of one page. When that
//! page is not cached, every read after the first finds it locked by the
//! first and takes io_uring's async buffered-read path (a wait entry, a
//! wake, task work and a second read), which costs more CPU than the read
//! itself. So once a group's lend leaves reads in flight past its
//! `io_uring_enter` — the page cache is missing pages — the next group's
//! lend holds back each read whose first page is the last page of the read
//! before it, and [`GroupReader::complete_group`] lends the held reads once
//! every read lent for their group has been reaped: their pages are then up
//! to date, and they complete inside one more enter. Every read keeps its
//! own SQE into its own place in the buffer. On a file the page cache
//! holds, every lend completes inside its enter and nothing is held.

use std::collections::VecDeque;
use std::fs::File;
use std::os::unix::fs::FileExt;
use std::os::unix::io::AsRawFd;
use std::path::Path;
use std::time::Instant;

use crate::error::{IoEngineError, Result};
use crate::ring::{Completion, FileRef, Ring};

/// Page-cache granularity: reads that share a page of this size wait on
/// one another when it is not cached.
const PAGE_BYTES: u64 = 4096;

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
    /// Reads held back for a page an earlier read of their group was
    /// fetching, to be lent once it has landed (never, if the group fails
    /// first). Always 0 for an engine that reads synchronously at
    /// submission.
    pub held: u64,
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

/// Convenience: submit + immediately complete one group (the "synchronous
/// pipeline" of paper Fig. 3b; also the building block for simple callers).
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

struct Slot {
    buf: Vec<u8>,
    /// The group's requests, indexed by the low bits of user_data.
    reqs: Vec<ReadSlice>,
    /// Reads lent to the kernel whose completions have not been reaped.
    remaining: u32,
    /// Reads held back from the group's first lend, waiting for the page
    /// the read before them is fetching; lent once `remaining` is 0.
    held: u32,
    /// First error observed among the group's completions.
    error: Option<IoEngineError>,
    /// The submit failed, so no token will come back for this group: it
    /// retires when its last completion is reaped.
    orphaned: bool,
}

/// io_uring-backed [`GroupReader`] bound to a single file.
#[derive(Debug)]
pub struct UringReader {
    ring: Ring,
    file: File,
    /// When true, the file is in the ring's registered table at index 0
    /// and reads use `IOSQE_FIXED_FILE` (skips per-I/O fd refcounting).
    registered: bool,
    groups: SlotTable<Slot>,
    /// Request tables of completed groups, recycled into the next slots.
    spare_reqs: Vec<Vec<ReadSlice>>,
    /// SQEs prepared whose CQEs have not been reaped: what `Drop` drains.
    outstanding: u64,
    /// The last group's first lend left reads in flight past its enter:
    /// the page cache is missing pages, so the next group's holds its
    /// same-page reads.
    missing: bool,
    wait_nanos: u64,
    held: u64,
    /// Most SQEs ever outstanding at once.
    #[cfg(test)]
    peak_outstanding: u64,
}

/// Tells the kernel that `file` is read at random: a sampler's reads are,
/// by construction, so a missing page is read alone instead of with the
/// readahead window behind it. Every reader does this once, when it is
/// built. Best effort: returns whether the advice was taken, and a file
/// that takes none is read all the same.
fn advise_random(file: &File) -> bool {
    crate::sys::fadvise(file.as_raw_fd(), crate::sys::POSIX_FADV_RANDOM).is_ok()
}

impl UringReader {
    /// Opens `path` and a dedicated ring with `queue_depth` entries.
    ///
    /// # Errors
    /// Fails if the file cannot be opened or the ring cannot be created.
    pub fn open(path: &Path, queue_depth: u32) -> Result<Self> {
        let file = File::open(path).map_err(IoEngineError::File)?;
        Self::with_file(file, queue_depth)
    }

    /// Builds a reader from an already-open file and a dedicated ring with
    /// `queue_depth` entries.
    ///
    /// # Errors
    /// Fails if the ring cannot be created.
    pub fn with_file(file: File, queue_depth: u32) -> Result<Self> {
        advise_random(&file);
        Ok(Self {
            ring: Ring::new(queue_depth)?,
            file,
            registered: false,
            groups: SlotTable::new(),
            spare_reqs: Vec::new(),
            outstanding: 0,
            missing: false,
            wait_nanos: 0,
            held: 0,
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
    /// CQEs arrive in the kernel's order, not submission order.
    fn file_completion(&mut self, c: Completion) {
        let idx = (c.user_data & 0xFFFFF) as usize;
        let Some(slot) = self.groups.get_mut(c.user_data >> 20) else {
            return;
        };
        let failure = match slot.reqs.get(idx) {
            Some(r) => read_failure(r, c.bytes().map(|n| n as usize)),
            // A CQE whose user_data indexes outside the group it names:
            // a ring accounting bug, reported instead of panicking.
            None => Some(IoEngineError::InvalidToken(c.user_data)),
        };
        if slot.error.is_none() {
            slot.error = failure;
        }
        slot.remaining -= 1;
        if slot.orphaned && slot.remaining == 0 {
            self.retire(c.user_data >> 20);
        }
    }

    /// Prepares one SQE per request of the filed group `id`, each pointing
    /// into its place in the group's buffer, and submits them. The first
    /// lend of a group holds back its same-page reads while the page cache
    /// is missing pages; a second lend, once the rest are reaped, sends
    /// exactly those. Each SQE is counted as it is prepared: once published
    /// it is the kernel's, submit error or not.
    fn lend(&mut self, id: u64) -> Result<()> {
        let file = if self.registered {
            FileRef::Registered(0)
        } else {
            FileRef::Fd(self.file.as_raw_fd())
        };
        let sqes = match self.groups.get_mut(id) {
            Some(slot) if slot.held > 0 => slot.held as usize,
            Some(slot) => slot.reqs.len(),
            None => return Err(IoEngineError::InvalidToken(id)),
        };
        // Make SQ room if earlier groups still occupy slots.
        while self.ring.sq_space() < sqes {
            self.pump_one(true)?;
        }
        let slot = self
            .groups
            .get_mut(id)
            .ok_or(IoEngineError::InvalidToken(id))?;
        let held_lend = std::mem::take(&mut slot.held) > 0;
        // A first lend holds the reads that would wait on the page the read
        // before them fetches, while pages are missing; the held lend sends
        // exactly those. Otherwise every read goes out.
        let split = held_lend || self.missing;
        let mut cursor = 0usize;
        let mut last_page = None;
        for (i, r) in slot.reqs.iter().enumerate() {
            if split {
                let waits = last_page == Some(r.offset / PAGE_BYTES);
                last_page = Some(r.offset.saturating_add(u64::from(r.len.max(1)) - 1) / PAGE_BYTES);
                if waits != held_lend {
                    if !held_lend {
                        slot.held += 1;
                    }
                    cursor += r.len as usize;
                    continue;
                }
            }
            // SAFETY: the destination lies in the buffer of the group filed
            // under `id`, and cursor+len <= buf.len() since the buffer was
            // sized to the sum of the request lengths. The table frees that
            // buffer only once `remaining` — counted up as soon as the SQE
            // is queued — is back to 0, and `Drop` leaks it otherwise, so it
            // outlives the read. Moving the slot within the table does not
            // move the heap allocation. Registered index 0 is this reader's
            // file.
            unsafe {
                let dst = slot.buf.as_mut_ptr().add(cursor);
                self.ring
                    .prepare_read(file, dst, r.len, r.offset, (id << 20) | i as u64)?;
            }
            slot.remaining += 1;
            self.outstanding += 1;
            cursor += r.len as usize;
        }
        self.held += u64::from(slot.held);
        #[cfg(test)]
        {
            self.peak_outstanding = self.peak_outstanding.max(self.outstanding);
        }
        self.ring.submit()?;
        // A held lend's pages are known to be up to date: it tells nothing
        // about the page cache.
        if !held_lend {
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

    /// Takes group `id` out of the table for good, keeping its request
    /// table for the next group.
    fn retire(&mut self, id: u64) {
        if let Some(slot) = self.groups.take(id) {
            self.spare_reqs.push(slot.reqs);
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
            "group index must fit in 20 bits of user_data"
        );
        let total: usize = reqs.iter().map(|r| r.len as usize).sum();
        // Zero-fills only a genuine extension: the reads overwrite the rest.
        buf.resize(total, 0);

        // Own first, lend second: the group is filed before any SQE points
        // into its buffer, so a failed submit cannot free what it lent.
        let mut table = self.spare_reqs.pop().unwrap_or_default();
        table.clear();
        table.extend_from_slice(reqs);
        let id = self.groups.next_id();
        self.groups.push(Slot {
            buf,
            reqs: table,
            remaining: 0,
            held: 0,
            error: None,
            orphaned: false,
        });
        match self.lend(id) {
            Ok(()) => Ok(GroupToken { id }),
            Err(e) => {
                self.orphan(id);
                Err(e)
            }
        }
    }

    fn complete_group(&mut self, token: GroupToken) -> Result<Vec<u8>> {
        loop {
            // Completion polling mode: reap what the CQ already holds (no
            // syscall) and park in the blocking wait only when it is empty.
            while self.groups.get_mut(token.id).is_some_and(|s| s.remaining > 0) {
                if !self.pump_one(false)? {
                    self.pump_one(true)?;
                }
            }
            // Every lent read is in, so the pages the held ones wait on are
            // up to date. After a failed read the group fails whole, so its
            // held reads are never lent.
            if !self
                .groups
                .get_mut(token.id)
                .is_some_and(|s| s.held > 0 && s.error.is_none())
            {
                break;
            }
            if let Err(e) = self.lend(token.id) {
                self.orphan(token.id);
                return Err(e);
            }
        }
        let slot = self
            .groups
            .take(token.id)
            .ok_or(IoEngineError::InvalidToken(token.id))?;
        self.spare_reqs.push(slot.reqs);
        match slot.error {
            Some(e) => Err(e),
            None => Ok(slot.buf),
        }
    }

    fn stats(&self) -> ReaderStats {
        ReaderStats {
            syscalls: self.ring.enter_calls(),
            wait_nanos: self.wait_nanos,
            held: self.held,
        }
    }

    fn engine_name(&self) -> &'static str {
        "io_uring"
    }
}

impl Drop for UringReader {
    fn drop(&mut self) {
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
            held: 0,
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

    /// A file of `n` little-endian u32s, each its own index, written back
    /// and then dropped from the page cache: its reads go to the device.
    fn write_cold_u32_file(n: u32) -> std::path::PathBuf {
        let path = write_u32_file(n);
        let file = File::open(&path).unwrap();
        file.sync_all().unwrap();
        #[cfg(target_arch = "x86_64")]
        const SYS_FADVISE64: libc::c_long = 221;
        #[cfg(target_arch = "aarch64")]
        const SYS_FADVISE64: libc::c_long = 223;
        const POSIX_FADV_DONTNEED: libc::c_long = 4;
        // SAFETY: fadvise64 takes a descriptor and three integers and
        // touches no user memory; `file` is open for the call.
        let r = unsafe {
            libc::syscall(SYS_FADVISE64, file.as_raw_fd(), 0i64, 0i64, POSIX_FADV_DONTNEED)
        };
        assert_eq!(r, 0, "fadvise(DONTNEED): {}", std::io::Error::last_os_error());
        path
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
        r.missing = false;
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
                buf: Vec::new(),
                reqs: vec![ReadSlice::new(id * 8, 4), ReadSlice::new(id * 8 + 4, 4)],
                remaining: 2,
                held: 0,
                error: None,
                orphaned: false,
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
            Some(IoEngineError::ShortRead { offset: 16, expected: 4, got: 2 })
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
        assert_eq!(p.stats(), ReaderStats { syscalls: 8, wait_nanos: 0, held: 0 });
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
        let mut r = UringReader::open(&path, qd).unwrap();
        let got = pipelined(&mut r, &groups);
        for (g, buf) in groups.iter().zip(&got) {
            assert_eq!(buf, &entries_of(g));
        }
        // Every lend completes inside its enter: nothing is held back and
        // each group costs one syscall.
        assert!(!r.missing);
        assert_eq!(r.stats().held, 0);
        assert_eq!(r.stats().syscalls, groups.len() as u64);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn cold_same_page_runs_wait_on_each_page_once() {
        // 32 MiB, so runs 64 pages apart each start on a page no readahead
        // of another run has brought in.
        let n = 8 << 20;
        let path = write_cold_u32_file(n);
        let qd = 32u32;
        let groups: Vec<Vec<ReadSlice>> =
            (0..8).map(|k| same_page_runs(k * 4 * 64, 4, 8, 64)).collect();
        let mut r = UringReader::open(&path, qd).unwrap();
        let got = pipelined(&mut r, &groups);
        let mut p = PreadReader::open(&path, qd).unwrap();
        assert_eq!(got, pipelined(&mut p, &groups));
        // Each group's lend is a chance to find reads in flight past its
        // enter (a busy host can post a read's completion before the enter
        // returns); missing all eight means the file stayed cached.
        assert!(
            r.stats().held > 0,
            "no lend of a dropped file left a read in flight: \
             POSIX_FADV_DONTNEED took no effect (is TMPDIR on tmpfs?)"
        );
        assert_eq!(r.outstanding, 0);
        assert!(r.groups.slots.is_empty(), "{:?}", r.groups);
        // A held read is lent only after its group's other reads are reaped,
        // so the two groups in flight never outgrow the CQ (2 × depth).
        assert!(r.peak_outstanding <= 2 * u64::from(qd), "{}", r.peak_outstanding);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn held_reads_behind_a_failed_read_are_never_lent() {
        let path = write_u32_file(4);
        let mut r = UringReader::open(&path, 8).unwrap();
        // Past EOF: one read lent, the two on its page held.
        let eof = [0, 4, 8].map(|i| ReadSlice::new((1 << 20) + i, 4));
        r.missing = true;
        let t = r.submit_group(&eof, Vec::new()).unwrap();
        assert_eq!(r.groups.get_mut(1).map(|s| (s.remaining, s.held)), Some((1, 2)));
        assert_eq!(r.outstanding, 1, "a held read is counted once it is queued");
        assert!(matches!(
            r.complete_group(t),
            Err(IoEngineError::ShortRead { offset: 1_048_576, .. })
        ));
        assert_eq!((r.stats().held, r.peak_outstanding), (2, 1), "a held read went out behind a failed one");
        assert_eq!(r.outstanding, 0);
        assert!(r.groups.slots.is_empty(), "{:?}", r.groups);
        let reqs = [ReadSlice::new(4, 4), ReadSlice::new(12, 4)];
        assert_eq!(read_group_blocking(&mut r, &reqs, Vec::new()).unwrap(), entries_of(&reqs));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn failed_held_lend_frees_nothing_the_kernel_writes() {
        let path = write_u32_file(1_000);
        let mut r = UringReader::open(&path, 32).unwrap();
        let g1 = same_page_runs(0, 1, 8, 1);
        r.missing = true;
        let t1 = r.submit_group(&g1, Vec::new()).unwrap();
        assert_eq!(r.groups.get_mut(1).map(|s| (s.remaining, s.held)), Some((1, 7)));
        // The held reads' SQEs are published, then their enter fails: the
        // next enter carries them, into group 1's buffer.
        r.ring.fail_next_submit = true;
        assert!(matches!(
            r.complete_group(t1),
            Err(IoEngineError::Ring { op: "enter", .. })
        ));
        assert_eq!(r.groups.get_mut(1).map(|s| (s.remaining, s.orphaned)), Some((7, true)));
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
