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
//! Buffer ownership: the reader owns every in-flight buffer. Callers receive
//! an opaque [`GroupToken`] at submission and exchange it for the filled
//! buffer at completion. Dropping a token without completing it leaks the
//! buffer *into the reader* (never freeing memory the kernel may still
//! write), keeping the API safe.

use std::collections::HashMap;
use std::fs::File;
use std::os::unix::fs::FileExt;
use std::os::unix::io::AsRawFd;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use ringstat::{EventKind, EventRing, LatencyHistogram, TraceEvent};

use crate::error::{IoEngineError, Result};
use crate::ring::{Ring, RingBuilder, RingSetupInfo};
use crate::sys;

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
#[must_use = "an in-flight group must be completed to retrieve its data"]
pub struct GroupToken {
    id: u64,
    /// Total payload bytes the group will produce.
    total_len: usize,
}

impl GroupToken {
    /// Total payload bytes this group will produce on completion.
    pub fn total_len(&self) -> usize {
        self.total_len
    }
}

/// Counters exposed by every reader (feed the sampler's metrics).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ReaderStats {
    /// I/O groups submitted.
    pub groups: u64,
    /// Individual read requests submitted.
    pub requests: u64,
    /// Payload bytes read.
    pub bytes: u64,
    /// Syscalls issued (`io_uring_enter` or `pread` count).
    pub syscalls: u64,
    /// Read requests served through registered fixed buffers
    /// (`IORING_OP_READ_FIXED`); always 0 for the pread fallback.
    pub fixed_buf_reads: u64,
    /// Read requests served through the provided-buffer ring
    /// (`IOSQE_BUFFER_SELECT`); always 0 without a registered pbuf ring.
    pub bufring_reads: u64,
    /// Provided buffers recycled back to the kernel after copy-out.
    pub bufring_recycles: u64,
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
    /// ring submission errors otherwise.
    fn submit_group(&mut self, reqs: &[ReadSlice], buf: Vec<u8>) -> Result<GroupToken>;

    /// Blocks until every read in the group has completed and returns the
    /// filled buffer.
    ///
    /// # Errors
    /// [`IoEngineError::ShortRead`] if any read returned fewer bytes than
    /// requested (e.g. reading past EOF) and [`IoEngineError::Completion`]
    /// for per-request kernel errors.
    fn complete_group(&mut self, token: GroupToken) -> Result<Vec<u8>>;

    /// Lifetime counters.
    fn stats(&self) -> ReaderStats;

    /// Read requests currently in flight: SQEs submitted whose CQEs have
    /// not been reaped yet. The live queue-occupancy gauge behind
    /// `ringscope`'s per-worker telemetry; always 0 for engines that
    /// execute groups eagerly at submission time.
    fn inflight(&self) -> u64;

    /// Per-group submit→complete latency distribution over the reader's
    /// lifetime. One sample is recorded per completed group; recording is
    /// allocation-free (the histogram is a fixed-size `Copy` value).
    fn group_latency(&self) -> LatencyHistogram;

    /// Attaches a `ringtrace` flight-recorder ring: the engine records
    /// `GroupSubmit` / `GroupComplete` lifecycle events into it, with
    /// timestamps in nanoseconds since `origin` (the caller's epoch-start
    /// instant, shared across workers so all lanes share one timeline).
    /// The reader and the ring share the worker's thread, preserving the
    /// ring's single-writer contract. Default: no-op, for engines without
    /// lifecycle instrumentation.
    fn attach_events(&mut self, ring: Arc<EventRing>, origin: Instant) {
        let _ = (ring, origin);
    }

    /// Requested-vs-granted ring setup state, for fallback reporting.
    /// Engines without a ring return the all-zero default.
    fn ring_setup(&self) -> RingSetupInfo {
        RingSetupInfo::default()
    }

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

// ---------------------------------------------------------------------------
// io_uring implementation
// ---------------------------------------------------------------------------

struct Slot {
    buf: Vec<u8>,
    /// (offset, len, dst) per request, indexed by the low bits of
    /// user_data; `dst` is the request's cursor into `buf`.
    reqs: Vec<(u64, u32, u32)>,
    remaining: u32,
    /// First error observed among the group's completions.
    error: Option<IoEngineError>,
    /// When the group's SQEs were submitted (for the latency histogram).
    submitted: Instant,
    /// Registered fixed buffer this group's reads land in, if any; the
    /// payload is copied into `buf` at completion and the slot returned to
    /// the pool's free list.
    fixed: Option<u16>,
    /// The group reads through the provided-buffer ring: the kernel picks
    /// each destination buffer at issue time, and the payload is copied
    /// into `buf` (and the buffer recycled) as each CQE is reaped.
    pbuf: bool,
}

/// Pool of kernel-registered fixed buffers (`IORING_REGISTER_BUFFERS`).
///
/// Buffer allocations must never move while registered: the inner `Vec<u8>`s
/// are allocated once, registered, and never resized or pushed afterwards
/// (the outer `Vec` may move on the heap — the *pointees* stay put).
struct FixedBufPool {
    bufs: Vec<Vec<u8>>,
    /// Indices into `bufs` not currently owned by an in-flight group.
    free: Vec<u16>,
    /// Capacity of each buffer; groups with larger payloads fall back to
    /// plain (unregistered) reads.
    each_len: usize,
}

impl FixedBufPool {
    /// Takes a free buffer able to hold `total` bytes, or `None` (caller
    /// falls back to plain reads). Returns the slot index and base pointer.
    fn acquire(&mut self, total: usize) -> Option<(u16, *mut u8)> {
        if total == 0 || total > self.each_len {
            return None;
        }
        let k = self.free.pop()?;
        // A free index past the pool would be an accounting bug; get_mut
        // makes it a fallback to plain reads rather than a hot-path panic.
        self.bufs.get_mut(k as usize).map(|b| (k, b.as_mut_ptr()))
    }

    /// Returns `k` to the free list after its group completed.
    fn release(&mut self, k: u16) {
        self.free.push(k);
    }
}

/// io_uring-backed [`GroupReader`] bound to a single file.
pub struct UringReader {
    ring: Ring,
    file: File,
    /// When true, the file is in the ring's registered table at index 0
    /// and reads use `IOSQE_FIXED_FILE` (skips per-I/O fd refcounting).
    registered: bool,
    /// Registered fixed-buffer pool; groups whose payload fits borrow a
    /// buffer and read via `IORING_OP_READ_FIXED`. Declared after `ring` so
    /// the fd (and with it the kernel's page pins) is closed before the
    /// buffers are freed.
    fixed_bufs: Option<FixedBufPool>,
    next_id: u64,
    slots: HashMap<u64, Slot>,
    /// Request tables of completed groups, recycled into the next slots.
    spare_reqs: Vec<Vec<(u64, u32, u32)>>,
    outstanding: u64,
    stats: ReaderStats,
    lat: LatencyHistogram,
    /// Flight recorder + epoch-start origin (see
    /// [`GroupReader::attach_events`]); `None` keeps the hot path free of
    /// any extra clock reads.
    events: Option<(Arc<EventRing>, Instant)>,
}

impl std::fmt::Debug for UringReader {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("UringReader")
            .field("queue_depth", &self.ring.capacity())
            .field("outstanding", &self.outstanding)
            .field("stats", &self.stats)
            .finish()
    }
}

impl UringReader {
    /// Opens `path` and a dedicated ring with `queue_depth` entries.
    ///
    /// # Errors
    /// Fails if the file cannot be opened or the ring cannot be created.
    pub fn open(path: &Path, queue_depth: u32) -> Result<Self> {
        let file = File::open(path).map_err(IoEngineError::File)?;
        Self::with_file(file, RingBuilder::new().entries(queue_depth))
    }

    /// Builds a reader from an already-open file and a configured ring.
    ///
    /// # Errors
    /// Fails if the ring cannot be created.
    pub fn with_file(file: File, builder: RingBuilder) -> Result<Self> {
        let ring = builder.build()?;
        Ok(Self {
            ring,
            file,
            registered: false,
            fixed_bufs: None,
            next_id: 1,
            slots: HashMap::new(),
            spare_reqs: Vec::new(),
            outstanding: 0,
            stats: ReaderStats::default(),
            lat: LatencyHistogram::new(),
            events: None,
        })
    }

    /// Records one lifecycle event if a flight recorder is attached.
    fn trace(&self, kind: EventKind, a: u64, b: u64, c: u64, d: u64) {
        if let Some((ring, origin)) = &self.events {
            ring.record(TraceEvent {
                ts_ns: origin.elapsed().as_nanos() as u64,
                kind,
                a,
                b,
                c,
                d,
            });
        }
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

    /// Pins a pool of `count` fixed buffers of `each_bytes` bytes via
    /// `IORING_REGISTER_BUFFERS`. Groups whose payload fits in one buffer
    /// are subsequently read with `IORING_OP_READ_FIXED` (no per-I/O page
    /// pinning); larger groups, and groups submitted while every buffer is
    /// in flight, transparently fall back to plain reads.
    ///
    /// # Errors
    /// Propagates registration failures (`ENOMEM` under a small
    /// `RLIMIT_MEMLOCK`, `EINVAL` on pre-5.1 kernels, or the
    /// `RINGSAMPLER_FAIL_REGISTER_BUFFERS` forced-failure hook). The reader
    /// stays fully usable in unregistered-buffer mode after a failure;
    /// callers are expected to record the fallback and carry on.
    pub fn register_read_buffers(&mut self, count: usize, each_bytes: usize) -> Result<()> {
        let count = count.clamp(1, 1024);
        let each_bytes = each_bytes.max(4096);
        let mut bufs: Vec<Vec<u8>> = (0..count).map(|_| vec![0u8; each_bytes]).collect();
        let iovecs: Vec<libc::iovec> = bufs
            .iter_mut()
            .map(|b| libc::iovec {
                iov_base: b.as_mut_ptr().cast(),
                iov_len: b.len(),
            })
            .collect();
        // SAFETY: each iovec describes a live, uniquely-owned allocation in
        // `bufs`; on success they are stored in `self.fixed_bufs` and never
        // resized or freed while the ring fd (declared before them) is open.
        unsafe { self.ring.register_buffers(&iovecs)? };
        self.fixed_bufs = Some(FixedBufPool {
            bufs,
            free: (0..count as u16).collect(),
            each_len: each_bytes,
        });
        Ok(())
    }

    /// Whether a registered fixed-buffer pool is installed.
    pub fn buffers_registered(&self) -> bool {
        self.fixed_bufs.is_some()
    }

    /// Access to the underlying ring's syscall counters.
    pub fn ring(&self) -> &Ring {
        &self.ring
    }

    fn pump_one(&mut self, block: bool) -> Result<bool> {
        let completion = if block {
            Some(self.ring.wait_completion()?)
        } else {
            self.ring.peek_completion()
        };
        let Some(c) = completion else {
            return Ok(false);
        };
        self.outstanding -= 1;
        let gid = c.user_data >> 20;
        let idx = (c.user_data & 0xFFFFF) as usize;
        if let Some(slot) = self.slots.get_mut(&gid) {
            match slot.reqs.get(idx).copied() {
                Some((offset, len, dst)) => {
                    // Provided-buffer completions carry their buffer id in
                    // the CQE flags: copy the payload out into the group's
                    // buffer and hand the buffer straight back to the
                    // kernel (reap-time recycling keeps the group small).
                    if slot.pbuf {
                        if c.flags & sys::IORING_CQE_F_BUFFER != 0 {
                            let bid = (c.flags >> sys::IORING_CQE_BUFFER_SHIFT) as u16;
                            if let Ok(n) = c.bytes() {
                                let end = (dst as usize + len as usize).min(slot.buf.len());
                                self.ring.buf_ring_copy(
                                    bid,
                                    n as usize,
                                    &mut slot.buf[dst as usize..end],
                                );
                            }
                            self.ring.buf_ring_recycle(bid);
                            self.stats.bufring_recycles += 1;
                        } else {
                            // Failed before a buffer was picked (e.g.
                            // ENOBUFS): restore the admission credit.
                            self.ring.buf_ring_return_credit();
                        }
                    }
                    match c.bytes() {
                        Ok(n) if n == len => {}
                        Ok(n) => {
                            slot.error.get_or_insert(IoEngineError::ShortRead {
                                offset,
                                expected: len,
                                got: n as i32,
                            });
                        }
                        Err(source) => {
                            slot.error
                                .get_or_insert(IoEngineError::Completion { offset, source });
                        }
                    }
                }
                // A CQE whose user_data indexes outside the group it names:
                // a ring accounting bug, reported instead of panicking.
                None => {
                    slot.error
                        .get_or_insert(IoEngineError::InvalidToken(c.user_data));
                }
            }
            slot.remaining -= 1;
        }
        Ok(true)
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
        // Clock reads for the flight recorder only happen when attached.
        let t0 = self.events.as_ref().map(|_| Instant::now());
        let total: usize = reqs.iter().map(|r| r.len as usize).sum();
        // Zero-fills only a genuine extension: the reads overwrite the rest.
        buf.resize(total, 0);

        let id = self.next_id;
        self.next_id += 1;

        // Make SQ room if earlier groups still occupy slots.
        while self.ring.sq_space() < reqs.len() {
            self.pump_one(true)?;
        }

        // Ladder rung 1: the provided-buffer ring serves the whole group
        // when every request fits one provided buffer and enough credits
        // remain (two pipelined groups never over-subscribe the kernel's
        // buffer pool). No caller memory is exposed to the kernel at all.
        let pbuf = self.ring.buf_ring_active()
            && !reqs.is_empty()
            && reqs.len() <= self.ring.buf_ring_credits() as usize
            && reqs.iter().all(|r| r.len <= self.ring.buf_ring_each_len());

        // Ladder rung 2: borrow a registered fixed buffer when the whole
        // group fits in one; otherwise (pool absent, exhausted, or payload
        // too large) rung 3 reads go into `buf` directly.
        let fixed = if pbuf {
            None
        } else {
            self.fixed_bufs.as_mut().and_then(|pool| pool.acquire(total))
        };

        let fd = self.file.as_raw_fd();
        let mut cursor = 0usize;
        let mut req_meta = self.spare_reqs.pop().unwrap_or_default();
        req_meta.clear();
        req_meta.reserve(reqs.len());
        for (i, r) in reqs.iter().enumerate() {
            let user_data = (id << 20) | i as u64;
            if pbuf {
                // Safe path: the kernel writes into the ring-owned arena,
                // never caller memory; payload is copied into `buf` at
                // reap time by pump_one.
                self.ring.prepare_read_select(
                    if self.registered { 0 } else { fd },
                    self.registered,
                    r.len,
                    r.offset,
                    user_data,
                )?;
                req_meta.push((r.offset, r.len, cursor as u32));
                cursor += r.len as usize;
                continue;
            }
            // SAFETY: the destination is either `buf` (owned by the slot we
            // insert below, not moved or freed until the group completes or
            // the reader drains it on drop) or a registered fixed buffer that
            // stays pinned and exclusively owned by this group until its
            // completion; cursor+len <= destination capacity by construction.
            // In registered-file mode, index 0 refers to this reader's file.
            unsafe {
                if let Some((k, base)) = fixed {
                    self.ring.prepare_read_fixed_buf(
                        if self.registered { 0 } else { fd },
                        self.registered,
                        base.add(cursor),
                        r.len,
                        r.offset,
                        k,
                        user_data,
                    )?;
                } else if self.registered {
                    self.ring.prepare_read_fixed(
                        0,
                        buf.as_mut_ptr().add(cursor),
                        r.len,
                        r.offset,
                        user_data,
                    )?;
                } else {
                    self.ring.prepare_read(
                        fd,
                        buf.as_mut_ptr().add(cursor),
                        r.len,
                        r.offset,
                        user_data,
                    )?;
                }
            }
            req_meta.push((r.offset, r.len, cursor as u32));
            cursor += r.len as usize;
        }
        self.ring.submit()?;
        self.outstanding += reqs.len() as u64;
        self.stats.groups += 1;
        self.stats.requests += reqs.len() as u64;
        self.stats.bytes += total as u64;
        if pbuf {
            self.stats.bufring_reads += reqs.len() as u64;
        }
        if fixed.is_some() {
            self.stats.fixed_buf_reads += reqs.len() as u64;
        }

        self.slots.insert(
            id,
            Slot {
                buf,
                reqs: req_meta,
                remaining: reqs.len() as u32,
                error: None,
                submitted: Instant::now(),
                fixed: fixed.map(|(k, _)| k),
                pbuf,
            },
        );
        if let Some(t0) = t0 {
            self.trace(
                EventKind::GroupSubmit,
                id,
                reqs.len() as u64,
                self.outstanding,
                t0.elapsed().as_nanos() as u64,
            );
        }
        Ok(GroupToken {
            id,
            total_len: total,
        })
    }

    fn complete_group(&mut self, token: GroupToken) -> Result<Vec<u8>> {
        let t0 = self.events.as_ref().map(|_| Instant::now());
        let mut wait_ns = 0u64;
        loop {
            let done = self
                .slots
                .get(&token.id)
                .map(|s| s.remaining == 0)
                .unwrap_or(true);
            if done {
                break;
            }
            // Completion polling mode: spin on the CQ (no syscall) first;
            // pump_one(block=true) falls back to GETEVENTS after a bounded
            // spin inside wait_completion.
            if !self.pump_one(false)? {
                // The blocking pump is the pipeline's inflight-wait stage;
                // attribute it separately from non-blocking reaping.
                if let Some(w0) = t0.map(|_| Instant::now()) {
                    self.pump_one(true)?;
                    wait_ns += w0.elapsed().as_nanos() as u64;
                } else {
                    self.pump_one(true)?;
                }
            }
        }
        let mut slot = self
            .slots
            .remove(&token.id)
            .ok_or(IoEngineError::InvalidToken(token.id))?;
        // Fan the registered buffer's payload out into the caller's buffer
        // and return the slot to the pool. Done for errored groups too so a
        // short read never strands a pool buffer.
        if let (Some(k), Some(pool)) = (slot.fixed, self.fixed_bufs.as_mut()) {
            if let Some(src) = pool.bufs.get(k as usize) {
                let n = slot.buf.len().min(src.len());
                slot.buf[..n].copy_from_slice(&src[..n]);
            }
            pool.release(k);
        }
        self.spare_reqs.push(std::mem::take(&mut slot.reqs));
        self.stats.syscalls = self.ring.enter_calls();
        // Latency is recorded for every completed group, error or not:
        // a group whose reads failed still occupied the ring for its
        // full submit→complete window.
        let kernel_visible = slot.submitted.elapsed();
        self.lat.record_duration(kernel_visible);
        if let Some(t0) = t0 {
            let total_ns = t0.elapsed().as_nanos() as u64;
            self.trace(
                EventKind::GroupComplete,
                token.id,
                kernel_visible.as_nanos() as u64,
                wait_ns,
                total_ns.saturating_sub(wait_ns),
            );
        }
        match slot.error {
            Some(e) => Err(e),
            None => Ok(slot.buf),
        }
    }

    fn stats(&self) -> ReaderStats {
        let mut s = self.stats;
        s.syscalls = self.ring.enter_calls();
        s
    }

    fn inflight(&self) -> u64 {
        self.outstanding
    }

    fn group_latency(&self) -> LatencyHistogram {
        self.lat
    }

    fn attach_events(&mut self, ring: Arc<EventRing>, origin: Instant) {
        self.events = Some((ring, origin));
    }

    fn ring_setup(&self) -> RingSetupInfo {
        self.ring.setup_info()
    }

    fn engine_name(&self) -> &'static str {
        "io_uring"
    }
}

impl Drop for UringReader {
    fn drop(&mut self) {
        // Drain every outstanding completion so the kernel never writes
        // into freed buffers. Errors are ignored: destructors must not fail.
        while self.outstanding > 0 {
            if self.pump_one(true).is_err() {
                break;
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
pub struct PreadReader {
    file: File,
    queue_depth: usize,
    next_id: u64,
    ready: HashMap<u64, std::result::Result<Vec<u8>, IoEngineError>>,
    stats: ReaderStats,
    lat: LatencyHistogram,
    /// Flight recorder + epoch-start origin; `None` disables recording.
    events: Option<(Arc<EventRing>, Instant)>,
}

impl std::fmt::Debug for PreadReader {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PreadReader")
            .field("queue_depth", &self.queue_depth)
            .field("stats", &self.stats)
            .finish()
    }
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
        Self {
            file,
            queue_depth: queue_depth.max(1) as usize,
            next_id: 1,
            ready: HashMap::new(),
            stats: ReaderStats::default(),
            lat: LatencyHistogram::new(),
            events: None,
        }
    }

    /// Records one lifecycle event if a flight recorder is attached.
    fn trace(&self, kind: EventKind, a: u64, b: u64, c: u64, d: u64) {
        if let Some((ring, origin)) = &self.events {
            ring.record(TraceEvent {
                ts_ns: origin.elapsed().as_nanos() as u64,
                kind,
                a,
                b,
                c,
                d,
            });
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

        let started = Instant::now();
        let mut cursor = 0usize;
        let mut outcome: std::result::Result<(), IoEngineError> = Ok(());
        for r in reqs {
            let dst = &mut buf[cursor..cursor + r.len as usize];
            // ringlint: allow(no-blocking-io) — PreadReader is the synchronous fallback and differential-testing oracle; pread(2) at submit time is its contract
            match self.file.read_at(dst, r.offset) {
                Ok(n) if n == r.len as usize => {}
                Ok(n) => {
                    outcome = Err(IoEngineError::ShortRead {
                        offset: r.offset,
                        expected: r.len,
                        got: n as i32,
                    });
                    break;
                }
                Err(source) => {
                    outcome = Err(IoEngineError::Completion {
                        offset: r.offset,
                        source,
                    });
                    break;
                }
            }
            cursor += r.len as usize;
            self.stats.syscalls += 1;
        }
        self.stats.groups += 1;
        self.stats.requests += reqs.len() as u64;
        self.stats.bytes += total as u64;
        // The synchronous engine does its I/O eagerly here, so the group
        // "latency" is the eager pread loop — not submit→complete, which
        // would mostly measure the caller's delay in exchanging the token.
        self.lat.record_duration(started.elapsed());

        let id = self.next_id;
        self.next_id += 1;
        // The eager engine's whole I/O happens in the submit call, so the
        // submit event carries the full duration and the complete event
        // reports zero wait/reap (nothing is ever pending).
        let eager_ns = started.elapsed().as_nanos() as u64;
        self.trace(EventKind::GroupSubmit, id, reqs.len() as u64, 0, eager_ns);
        self.trace(EventKind::GroupComplete, id, eager_ns, 0, 0);
        self.ready.insert(id, outcome.map(|()| buf));
        Ok(GroupToken {
            id,
            total_len: total,
        })
    }

    fn complete_group(&mut self, token: GroupToken) -> Result<Vec<u8>> {
        self.ready
            .remove(&token.id)
            .unwrap_or(Err(IoEngineError::InvalidToken(token.id)))
    }

    fn stats(&self) -> ReaderStats {
        self.stats
    }

    fn inflight(&self) -> u64 {
        0 // groups execute eagerly at submission; nothing is ever pending
    }

    fn group_latency(&self) -> LatencyHistogram {
        self.lat
    }

    fn attach_events(&mut self, ring: Arc<EventRing>, origin: Instant) {
        self.events = Some((ring, origin));
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
        let s = r.stats();
        assert_eq!(s.groups, 3);
        assert_eq!(s.requests, 96);
        assert_eq!(s.bytes, 96 * 4);
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
    fn registered_buffers_mode_is_equivalent() {
        let _env = crate::ring::TEST_ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let path = write_u32_file(5_000);
        let mut plain = UringReader::open(&path, 32).unwrap();
        let mut fixed = UringReader::open(&path, 32).unwrap();
        fixed.register_read_buffers(2, 8192).unwrap();
        assert!(fixed.buffers_registered());
        assert!(!plain.buffers_registered());
        let reqs: Vec<ReadSlice> = (0..32u64)
            .map(|i| ReadSlice::new((i * 271 % 5000) * 4, 4))
            .collect();
        let a = read_group_blocking(&mut plain, &reqs, Vec::new()).unwrap();
        let b = read_group_blocking(&mut fixed, &reqs, Vec::new()).unwrap();
        assert_eq!(a, b);
        assert_eq!(fixed.stats().fixed_buf_reads, reqs.len() as u64);
        assert_eq!(plain.stats().fixed_buf_reads, 0);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn fixed_buffers_compose_with_registered_file() {
        let _env = crate::ring::TEST_ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let path = write_u32_file(5_000);
        let mut r = UringReader::open(&path, 32).unwrap();
        r.register_file().unwrap();
        r.register_read_buffers(2, 8192).unwrap();
        let reqs: Vec<ReadSlice> = (0..16u64)
            .map(|i| ReadSlice::new((i * 331 % 5000) * 4, 4))
            .collect();
        let buf = read_group_blocking(&mut r, &reqs, Vec::new()).unwrap();
        for (i, req) in reqs.iter().enumerate() {
            let got = u32::from_le_bytes(buf[4 * i..4 * i + 4].try_into().unwrap());
            assert_eq!(got as u64 * 4, req.offset);
        }
        assert_eq!(r.stats().fixed_buf_reads, 16);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn oversized_group_falls_back_to_plain_reads() {
        let _env = crate::ring::TEST_ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let path = write_u32_file(5_000);
        let mut r = UringReader::open(&path, 32).unwrap();
        // Minimum pool buffer size is 4096; a >4096-byte group must bypass it.
        r.register_read_buffers(1, 0).unwrap();
        let reqs = [ReadSlice::new(0, 8192)];
        let buf = read_group_blocking(&mut r, &reqs, Vec::new()).unwrap();
        assert_eq!(buf.len(), 8192);
        let got = u32::from_le_bytes(buf[4..8].try_into().unwrap());
        assert_eq!(got, 1);
        assert_eq!(r.stats().fixed_buf_reads, 0, "oversized group must not use the pool");
        // A small group afterwards uses the pool again.
        let small = [ReadSlice::new(40, 4)];
        let buf = read_group_blocking(&mut r, &small, Vec::new()).unwrap();
        assert_eq!(u32::from_le_bytes(buf[0..4].try_into().unwrap()), 10);
        assert_eq!(r.stats().fixed_buf_reads, 1);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn pool_exhaustion_falls_back_and_recovers() {
        let _env = crate::ring::TEST_ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let path = write_u32_file(5_000);
        let mut r = UringReader::open(&path, 32).unwrap();
        r.register_read_buffers(1, 4096).unwrap();
        let reqs = [ReadSlice::new(0, 4)];
        // Two groups in flight with a one-buffer pool: the second must fall
        // back to plain reads, and both must complete correctly.
        let t1 = r.submit_group(&reqs, Vec::new()).unwrap();
        let t2 = r.submit_group(&[ReadSlice::new(4, 4)], Vec::new()).unwrap();
        assert_eq!(r.stats().fixed_buf_reads, 1);
        let b1 = r.complete_group(t1).unwrap();
        let b2 = r.complete_group(t2).unwrap();
        assert_eq!(u32::from_le_bytes(b1[0..4].try_into().unwrap()), 0);
        assert_eq!(u32::from_le_bytes(b2[0..4].try_into().unwrap()), 1);
        // Buffer returned to the pool: the next group uses it again.
        read_group_blocking(&mut r, &reqs, Vec::new()).unwrap();
        assert_eq!(r.stats().fixed_buf_reads, 2);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn register_buffers_failure_leaves_reader_usable() {
        let _env = crate::ring::TEST_ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        std::env::set_var("RINGSAMPLER_FAIL_REGISTER_BUFFERS", "1");
        let path = write_u32_file(1_000);
        let mut r = UringReader::open(&path, 16).unwrap();
        let err = r.register_read_buffers(2, 4096);
        std::env::remove_var("RINGSAMPLER_FAIL_REGISTER_BUFFERS");
        assert!(err.is_err());
        assert!(!r.buffers_registered());
        let buf = read_group_blocking(&mut r, &[ReadSlice::new(8, 4)], Vec::new()).unwrap();
        assert_eq!(u32::from_le_bytes(buf[0..4].try_into().unwrap()), 2);
        assert_eq!(r.stats().fixed_buf_reads, 0);
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
        assert_eq!(t.total_len(), 0);
        let b = r.complete_group(t).unwrap();
        assert!(b.is_empty());
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn dropping_token_is_safe() {
        let path = write_u32_file(1000);
        let mut r = UringReader::open(&path, 8).unwrap();
        let t = r
            .submit_group(&[ReadSlice::new(0, 4), ReadSlice::new(4, 4)], Vec::new())
            .unwrap();
        drop(t); // buffer stays owned by the reader; drop of reader drains.
        drop(r);
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
    fn group_latency_counts_completed_groups() {
        let path = write_u32_file(1_000);
        for mut r in [
            Box::new(UringReader::open(&path, 16).unwrap()) as Box<dyn GroupReader>,
            Box::new(PreadReader::open(&path, 16).unwrap()) as Box<dyn GroupReader>,
        ] {
            assert!(r.group_latency().is_empty());
            for round in 0..5u64 {
                let reqs: Vec<ReadSlice> =
                    (0..8u64).map(|i| ReadSlice::new((round * 8 + i) * 4, 4)).collect();
                read_group_blocking(r.as_mut(), &reqs, Vec::new()).unwrap();
            }
            let lat = r.group_latency();
            assert_eq!(
                lat.count(),
                r.stats().groups,
                "{}: one latency sample per completed group",
                r.engine_name()
            );
            assert!(lat.max() >= lat.min());
            assert!(lat.p99() >= lat.p50());
        }
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn attached_event_ring_records_group_lifecycle() {
        let path = write_u32_file(1_000);
        for (mk, name) in [
            (
                (|p: &Path| Box::new(UringReader::open(p, 16).unwrap()) as Box<dyn GroupReader>)
                    as fn(&Path) -> Box<dyn GroupReader>,
                "io_uring",
            ),
            (
                (|p: &Path| Box::new(PreadReader::open(p, 16).unwrap()) as Box<dyn GroupReader>)
                    as fn(&Path) -> Box<dyn GroupReader>,
                "pread",
            ),
        ] {
            let mut r = mk(&path);
            let ring = Arc::new(EventRing::new(64));
            r.attach_events(Arc::clone(&ring), Instant::now());
            let reqs: Vec<ReadSlice> = (0..8u64).map(|i| ReadSlice::new(i * 4, 4)).collect();
            read_group_blocking(r.as_mut(), &reqs, Vec::new()).unwrap();
            read_group_blocking(r.as_mut(), &reqs, Vec::new()).unwrap();
            let events = ring.drain();
            let submits: Vec<&TraceEvent> = events
                .iter()
                .filter(|e| e.kind == EventKind::GroupSubmit)
                .collect();
            let completes: Vec<&TraceEvent> = events
                .iter()
                .filter(|e| e.kind == EventKind::GroupComplete)
                .collect();
            assert_eq!(submits.len(), 2, "{name}");
            assert_eq!(completes.len(), 2, "{name}");
            for s in &submits {
                assert_eq!(s.b, 8, "{name}: SQE count");
            }
            for (s, c) in submits.iter().zip(&completes) {
                assert_eq!(s.a, c.a, "{name}: matching group ids");
                assert!(c.b > 0, "{name}: kernel-visible latency recorded");
                assert!(c.ts_ns >= s.ts_ns, "{name}: complete after submit");
            }
            assert_eq!(ring.dropped(), 0, "{name}");
        }
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn buf_ring_mode_is_equivalent_and_recycles() {
        let _env = crate::ring::TEST_ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        if !crate::probe::uring_caps().buf_ring {
            eprintln!("skipping: kernel does not honor IOSQE_BUFFER_SELECT");
            return;
        }
        let path = write_u32_file(5_000);
        let mut plain = UringReader::open(&path, 32).unwrap();
        let file = std::fs::File::open(&path).unwrap();
        let mut pb =
            UringReader::with_file(file, RingBuilder::new().entries(32).buf_ring(64, 4096))
                .unwrap();
        assert!(pb.ring().buf_ring_active());
        let reqs: Vec<ReadSlice> = (0..32u64)
            .map(|i| ReadSlice::new((i * 389 % 5000) * 4, 4))
            .collect();
        let a = read_group_blocking(&mut plain, &reqs, Vec::new()).unwrap();
        let b = read_group_blocking(&mut pb, &reqs, Vec::new()).unwrap();
        assert_eq!(a, b);
        let s = pb.stats();
        assert_eq!(s.bufring_reads, reqs.len() as u64);
        assert_eq!(s.bufring_recycles, reqs.len() as u64);
        assert_eq!(s.fixed_buf_reads, 0);
        assert_eq!(plain.stats().bufring_reads, 0);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn oversized_request_bypasses_buf_ring() {
        let _env = crate::ring::TEST_ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        if !crate::probe::uring_caps().buf_ring {
            eprintln!("skipping: kernel does not honor IOSQE_BUFFER_SELECT");
            return;
        }
        let path = write_u32_file(5_000);
        let file = std::fs::File::open(&path).unwrap();
        // 256-byte provided buffers: a 8192-byte request must use the
        // plain rung, and the whole group goes with it.
        let mut r =
            UringReader::with_file(file, RingBuilder::new().entries(8).buf_ring(8, 256)).unwrap();
        let reqs = [ReadSlice::new(0, 8192), ReadSlice::new(0, 4)];
        let buf = read_group_blocking(&mut r, &reqs, Vec::new()).unwrap();
        assert_eq!(buf.len(), 8196);
        assert_eq!(u32::from_le_bytes(buf[4..8].try_into().unwrap()), 1);
        assert_eq!(u32::from_le_bytes(buf[8192..8196].try_into().unwrap()), 0);
        assert_eq!(r.stats().bufring_reads, 0);
        // A small group afterwards rides the pbuf rung.
        let buf = read_group_blocking(&mut r, &[ReadSlice::new(40, 4)], Vec::new()).unwrap();
        assert_eq!(u32::from_le_bytes(buf[0..4].try_into().unwrap()), 10);
        assert_eq!(r.stats().bufring_reads, 1);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn full_ladder_reader_is_equivalent() {
        let _env = crate::ring::TEST_ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let path = write_u32_file(5_000);
        let mut plain = UringReader::open(&path, 32).unwrap();
        let file = std::fs::File::open(&path).unwrap();
        let mut b = RingBuilder::new()
            .entries(32)
            .defer_taskrun(true)
            .register_ring_fd(true)
            .lazy_submission(true);
        // Only climb the pbuf rung where the kernel honors selection.
        if crate::probe::uring_caps().buf_ring {
            b = b.buf_ring(64, 4096);
        }
        let mut full = UringReader::with_file(file, b).unwrap();
        full.register_file().unwrap();
        // Interleaved in-flight groups, the async pipeline's shape.
        let mk = |s: u64| -> Vec<ReadSlice> {
            (0..16u64).map(|i| ReadSlice::new(((s + i * 197) % 5000) * 4, 4)).collect()
        };
        let (g1, g2) = (mk(3), mk(11));
        let ta = full.submit_group(&g1, Vec::new()).unwrap();
        let tb = full.submit_group(&g2, Vec::new()).unwrap();
        let a1 = full.complete_group(ta).unwrap();
        let a2 = full.complete_group(tb).unwrap();
        let e1 = read_group_blocking(&mut plain, &g1, Vec::new()).unwrap();
        let e2 = read_group_blocking(&mut plain, &g2, Vec::new()).unwrap();
        assert_eq!(a1, e1);
        assert_eq!(a2, e2);
        let setup = full.ring_setup();
        assert!(setup.lazy_submission);
        assert_eq!(setup.requested_flags, full.ring().setup_flags().0);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn lazy_submission_halves_enters_for_pipelined_groups() {
        let path = write_u32_file(50_000);
        let file = std::fs::File::open(&path).unwrap();
        let mut lazy =
            UringReader::with_file(file, RingBuilder::new().entries(64).lazy_submission(true))
                .unwrap();
        let mut eager = UringReader::open(&path, 64).unwrap();
        let groups: Vec<Vec<ReadSlice>> = (0..16u64)
            .map(|g| (0..32u64).map(|i| ReadSlice::new(((g * 811 + i * 127) % 50_000) * 4, 4)).collect())
            .collect();
        // Two-in-flight pipeline (the paper's async mode).
        for r in [&mut lazy, &mut eager] {
            let mut prev: Option<GroupToken> = None;
            for g in &groups {
                let t = r.submit_group(g, Vec::new()).unwrap();
                if let Some(p) = prev.take() {
                    r.complete_group(p).unwrap();
                }
                prev = Some(t);
            }
            r.complete_group(prev.unwrap()).unwrap();
        }
        let (le, ee) = (lazy.stats().syscalls, eager.stats().syscalls);
        assert!(
            le * 2 <= ee + 1,
            "lazy mode should at least halve enter syscalls: lazy={le} eager={ee}"
        );
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
