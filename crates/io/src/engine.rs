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
use crate::ring::Ring;

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
    /// (offset, len) per request, indexed by the low bits of user_data.
    reqs: Vec<(u64, u32)>,
    remaining: u32,
    /// First error observed among the group's completions.
    error: Option<IoEngineError>,
    /// When the group's SQEs were submitted (for the latency histogram).
    submitted: Instant,
}

/// io_uring-backed [`GroupReader`] bound to a single file.
pub struct UringReader {
    ring: Ring,
    file: File,
    /// When true, the file is in the ring's registered table at index 0
    /// and reads use `IOSQE_FIXED_FILE` (skips per-I/O fd refcounting).
    registered: bool,
    next_id: u64,
    slots: HashMap<u64, Slot>,
    /// Request tables of completed groups, recycled into the next slots.
    spare_reqs: Vec<Vec<(u64, u32)>>,
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
        Self::with_file(file, queue_depth)
    }

    /// Builds a reader from an already-open file and a dedicated ring with
    /// `queue_depth` entries.
    ///
    /// # Errors
    /// Fails if the ring cannot be created.
    pub fn with_file(file: File, queue_depth: u32) -> Result<Self> {
        Ok(Self {
            ring: Ring::new(queue_depth)?,
            file,
            registered: false,
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
                Some((offset, len)) => match c.bytes() {
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
                },
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

        let fd = self.file.as_raw_fd();
        let mut cursor = 0usize;
        let mut req_meta = self.spare_reqs.pop().unwrap_or_default();
        req_meta.clear();
        req_meta.reserve(reqs.len());
        for (i, r) in reqs.iter().enumerate() {
            let user_data = (id << 20) | i as u64;
            // SAFETY: the destination is `buf`, owned by the slot we insert
            // below and not moved or freed until the group completes or the
            // reader drains it on drop; cursor+len <= buf.len() by
            // construction. In registered-file mode, index 0 refers to this
            // reader's file.
            unsafe {
                if self.registered {
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
            req_meta.push((r.offset, r.len));
            cursor += r.len as usize;
        }
        self.ring.submit()?;
        self.outstanding += reqs.len() as u64;
        self.stats.groups += 1;
        self.stats.requests += reqs.len() as u64;
        self.stats.bytes += total as u64;

        self.slots.insert(
            id,
            Slot {
                buf,
                reqs: req_meta,
                remaining: reqs.len() as u32,
                error: None,
                submitted: Instant::now(),
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
