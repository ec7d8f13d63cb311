#![cfg_attr(not(test), deny(clippy::disallowed_types, clippy::disallowed_methods, clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable, clippy::todo, clippy::unimplemented, clippy::indexing_slicing, clippy::allow_attributes, clippy::allow_attributes_without_reason))]
//! Safe(ish) wrapper around a kernel io_uring instance.
//!
//! A [`Ring`] owns the uring file descriptor, the three shared-memory
//! mappings (SQ ring, CQ ring, SQE array), and cached atomic pointers into
//! them. It is intentionally a *single-threaded* handle — RingSampler's
//! design gives every worker thread a dedicated ring (paper §3.1,
//! "Eliminating thread synchronization"), so no internal locking exists.
//!
//! Memory-ordering protocol (matching `io_uring.pdf` / liburing):
//! * SQ: the application is the producer. It writes SQEs, then publishes the
//!   new tail with a release store; the kernel consumes `head` (we read it
//!   with acquire to learn free space).
//! * CQ: the kernel is the producer. We read `tail` with acquire, consume
//!   entries, then publish the new `head` with a release store.

use std::io;
use std::sync::atomic::{AtomicU32, Ordering};

use crate::error::{IoEngineError, Result};
use crate::mmap::Mmap;
use crate::sys;

/// A completed I/O request, decoupled from the raw CQE layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    /// The `user_data` tag given at submission.
    pub user_data: u64,
    /// Bytes transferred on success, or the negated errno on failure.
    pub result: i32,
}

impl Completion {
    /// Converts the raw result into `Ok(bytes)` or the errno as an error.
    ///
    /// # Errors
    /// Returns the kernel errno carried in the CQE when `result < 0`.
    pub fn bytes(self) -> io::Result<u32> {
        if self.result < 0 {
            Err(io::Error::from_raw_os_error(-self.result))
        } else {
            Ok(self.result as u32)
        }
    }
}

/// The file a read SQE names: a plain descriptor, or an index into the
/// ring's registered-file table (`IOSQE_FIXED_FILE`, which skips per-I/O fd
/// refcounting in the kernel).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FileRef {
    Fd(i32),
    Registered(u32),
}

/// An owned io_uring instance: fd + shared rings + SQE array.
///
/// Every ring is a plain one — no setup flags, no registered ring fd — so
/// the kernel keeps nothing about *which thread* uses it and the handle can
/// move to another thread at any point. (Reads still in flight when the
/// thread that submitted them *exits* may complete as cancelled: an error
/// completion, never a memory-safety problem.)
#[derive(Debug)]
pub struct Ring {
    fd: i32,
    // Mappings (kept alive for the pointers below). `_cq_ring` is None when
    // the kernel supports IORING_FEAT_SINGLE_MMAP and shares the SQ mapping.
    _sq_ring: Mmap,
    _cq_ring: Option<Mmap>,
    sqes: Mmap,

    // Submission queue pointers.
    sq_head: *const AtomicU32,
    sq_tail: *const AtomicU32,
    sq_mask: u32,
    sq_entries: u32,
    sq_dropped: *const AtomicU32,
    sq_array: *mut u32,
    /// Local (unpublished) tail; published on submit.
    sq_tail_local: u32,
    /// Number of pushed-but-unsubmitted entries.
    pending: u32,

    // Completion queue pointers.
    cq_head: *const AtomicU32,
    cq_tail: *const AtomicU32,
    cq_mask: u32,
    cqes: *const sys::IoUringCqe,

    /// Total `io_uring_enter` syscalls issued (metrics).
    enter_calls: u64,

    /// Fails the next enter that carries SQEs with `EAGAIN`, after the tail
    /// is published — what a kernel short of resources does.
    #[cfg(test)]
    pub(crate) fail_next_submit: bool,
}

// SAFETY: a Ring is only ever used by one thread at a time (it is not Sync),
// and nothing it owns is tied to the thread that created it. `fd` is a
// process-wide descriptor; the three `Mmap`s are process-wide mappings and
// every raw pointer field points into one of them, so each stays valid on
// whichever thread holds the Ring; the rest are plain integers. On the
// kernel side the ring is created with no setup flags: no `SINGLE_ISSUER`
// (nor the deferred-task-work mode built on it), which would make the
// creating task the only one allowed to enter; no registered ring fd, which
// is an index into the registering *task's* table; no kernel submission
// thread. The registered-file table belongs to the ring, not to a task.
// `ring_survives_thread_hops_mid_stream` pins this.
unsafe impl Send for Ring {}

impl Ring {
    /// Creates a ring with `entries` SQ slots (rounded up to a power of two
    /// by the kernel; clamped to `[1, 32768]`).
    ///
    /// # Errors
    /// Fails if the kernel rejects `io_uring_setup` or any of the ring
    /// mmaps.
    pub fn new(entries: u32) -> Result<Self> {
        let mut params = sys::IoUringParams::default();
        let fd = sys::io_uring_setup(entries.clamp(1, 32768), &mut params).map_err(|source| {
            IoEngineError::Ring {
                op: "setup",
                source,
            }
        })?;

        // Sizes of the two ring regions.
        let sq_size = params.sq_off.array as usize
            + params.sq_entries as usize * std::mem::size_of::<u32>();
        let cq_size = params.cq_off.cqes as usize
            + params.cq_entries as usize * std::mem::size_of::<sys::IoUringCqe>();

        let single_mmap = params.features & sys::IORING_FEAT_SINGLE_MMAP != 0;
        let map_err = |op: &'static str| {
            move |source: io::Error| IoEngineError::Ring { op, source }
        };

        let close_on_err = CloseGuard(fd);

        let (sq_ring, cq_ring) = if single_mmap {
            let len = sq_size.max(cq_size);
            let m = Mmap::map(fd, len, sys::IORING_OFF_SQ_RING).map_err(map_err("mmap sq"))?;
            (m, None)
        } else {
            let sq = Mmap::map(fd, sq_size, sys::IORING_OFF_SQ_RING).map_err(map_err("mmap sq"))?;
            let cq = Mmap::map(fd, cq_size, sys::IORING_OFF_CQ_RING).map_err(map_err("mmap cq"))?;
            (sq, Some(cq))
        };

        let sqes = Mmap::map(
            fd,
            params.sq_entries as usize * std::mem::size_of::<sys::IoUringSqe>(),
            sys::IORING_OFF_SQES,
        )
        .map_err(map_err("mmap sqes"))?;

        let cq_base: &Mmap = cq_ring.as_ref().unwrap_or(&sq_ring);

        // SAFETY: all offsets come from the kernel's params and are in
        // bounds of the mapped regions (validated by offset_as).
        let ring = Ring {
            fd,
            sq_head: sq_ring.offset_as::<AtomicU32>(params.sq_off.head),
            sq_tail: sq_ring.offset_as::<AtomicU32>(params.sq_off.tail),
            sq_mask: {
                // SAFETY: in-bounds per kernel offsets.
                unsafe { *sq_ring.offset_as::<u32>(params.sq_off.ring_mask) }
            },
            sq_entries: params.sq_entries,
            sq_dropped: sq_ring.offset_as::<AtomicU32>(params.sq_off.dropped),
            sq_array: sq_ring.offset_as::<u32>(params.sq_off.array),
            sq_tail_local: {
                // SAFETY: tail is a valid AtomicU32 in the mapping.
                // ordering: setup-time read before the ring is shared; the kernel has published nothing yet
                unsafe { (*sq_ring.offset_as::<AtomicU32>(params.sq_off.tail)).load(Ordering::Relaxed) }
            },
            pending: 0,
            cq_head: cq_base.offset_as::<AtomicU32>(params.cq_off.head),
            cq_tail: cq_base.offset_as::<AtomicU32>(params.cq_off.tail),
            cq_mask: {
                // SAFETY: in-bounds per kernel offsets.
                unsafe { *cq_base.offset_as::<u32>(params.cq_off.ring_mask) }
            },
            cqes: cq_base.offset_as::<sys::IoUringCqe>(params.cq_off.cqes),
            enter_calls: 0,
            #[cfg(test)]
            fail_next_submit: false,
            _sq_ring: sq_ring,
            _cq_ring: cq_ring,
            sqes,
        };
        std::mem::forget(close_on_err);
        Ok(ring)
    }

    /// Reports the kernel's `io_uring_params.features` bits from a
    /// throwaway setup call.
    ///
    /// # Errors
    /// Propagates the `io_uring_setup` errno.
    pub fn probe_features() -> Result<u32> {
        let mut params = sys::IoUringParams::default();
        let fd = sys::io_uring_setup(2, &mut params).map_err(|source| IoEngineError::Ring {
            op: "setup",
            source,
        })?;
        // SAFETY: fd was just returned by io_uring_setup.
        unsafe { libc::close(fd) };
        Ok(params.features)
    }

    /// Asks the kernel (`IORING_REGISTER_PROBE`) whether it implements
    /// opcode `op`. `false` on pre-probe kernels or register failure.
    pub fn probe_op_supported(&mut self, op: u8) -> bool {
        const NOPS: usize = 256;
        #[repr(C)]
        struct ProbeBuf {
            header: sys::IoUringProbe,
            ops: [sys::IoUringProbeOp; NOPS],
        }
        let mut buf = ProbeBuf {
            header: sys::IoUringProbe::default(),
            ops: [sys::IoUringProbeOp::default(); NOPS],
        };
        // SAFETY: `buf` is one contiguous probe header + 256 op slots, the
        // layout REGISTER_PROBE expects, valid for the call.
        let ok = unsafe {
            sys::io_uring_register(
                self.fd,
                sys::IORING_REGISTER_PROBE,
                (&mut buf as *mut ProbeBuf).cast(),
                NOPS as u32,
            )
        };
        if ok.is_err() {
            return false;
        }
        buf.ops
            .iter()
            .take(buf.header.ops_len as usize)
            .any(|p| p.op == op && p.flags & sys::IO_URING_OP_SUPPORTED != 0)
    }

    /// Number of SQ slots.
    pub fn capacity(&self) -> usize {
        self.sq_entries as usize
    }

    /// Free SQ slots available for prepared requests right now.
    pub fn sq_space(&self) -> usize {
        // SAFETY: sq_head points into the live mapping.
        let head = unsafe { (*self.sq_head).load(Ordering::Acquire) };
        (self.sq_entries - self.sq_tail_local.wrapping_sub(head)) as usize
    }

    /// Lifetime count of `io_uring_enter` syscalls (the paper's async
    /// pipeline aims to minimize these per I/O group).
    pub fn enter_calls(&self) -> u64 {
        self.enter_calls
    }

    /// All `io_uring_enter` calls funnel through here: retries `EINTR` and
    /// counts syscalls.
    fn enter(&mut self, to_submit: u32, min_complete: u32, flags: u32) -> Result<u32> {
        #[cfg(test)]
        if to_submit > 0 && std::mem::take(&mut self.fail_next_submit) {
            return Err(IoEngineError::Ring {
                op: "enter",
                source: io::Error::from_raw_os_error(libc::EAGAIN),
            });
        }
        loop {
            match sys::io_uring_enter(self.fd, to_submit, min_complete, flags) {
                Ok(n) => {
                    self.enter_calls += 1;
                    return Ok(n);
                }
                Err(e) if e.raw_os_error() == Some(libc::EINTR) => continue,
                Err(source) => {
                    return Err(IoEngineError::Ring {
                        op: "enter",
                        source,
                    })
                }
            }
        }
    }

    fn push_sqe(&mut self, sqe: sys::IoUringSqe) -> Result<()> {
        if self.sq_space() == 0 {
            return Err(IoEngineError::SubmissionQueueFull);
        }
        let idx = self.sq_tail_local & self.sq_mask;
        // SAFETY: idx < sq_entries, so both the SQE slot and the index-array
        // slot are within their mappings; the kernel does not read this slot
        // until we publish the tail.
        unsafe {
            *(self.sqes.as_ptr().cast::<sys::IoUringSqe>()).add(idx as usize) = sqe;
            *self.sq_array.add(idx as usize) = idx;
        }
        self.sq_tail_local = self.sq_tail_local.wrapping_add(1);
        self.pending += 1;
        Ok(())
    }

    /// Queues a no-op request (used by self-tests and queue-depth probing).
    ///
    /// # Errors
    /// [`IoEngineError::SubmissionQueueFull`] if no SQ slot is free.
    pub fn prepare_nop(&mut self, user_data: u64) -> Result<()> {
        self.push_sqe(sys::IoUringSqe {
            opcode: sys::IORING_OP_NOP,
            user_data,
            ..Default::default()
        })
    }

    /// Queues a `pread`-style read of `len` bytes from `file` at byte
    /// `offset` into `buf`: the one way memory is lent to a ring. Its only
    /// non-test caller is `UringReader::lend`, which `submit_group` runs
    /// once per group, after filing the group that owns the buffer: each
    /// buffered read points into the group's payload, each direct read into
    /// its staging arena.
    ///
    /// # Errors
    /// [`IoEngineError::SubmissionQueueFull`] if no SQ slot is free.
    ///
    /// # Safety
    /// `buf` must point to at least `len` writable bytes that stay valid
    /// (not moved, freed, or aliased mutably) until the matching completion
    /// has been reaped from this ring — whether or not the submit that
    /// carries it succeeds. A [`FileRef::Registered`] index must refer to a
    /// live slot of the table installed with [`Ring::register_files`].
    pub(crate) unsafe fn prepare_read(
        &mut self,
        file: FileRef,
        buf: *mut u8,
        len: u32,
        offset: u64,
        user_data: u64,
    ) -> Result<()> {
        let (fd, flags) = match file {
            FileRef::Fd(fd) => (fd, 0),
            FileRef::Registered(index) => (index as i32, sys::IOSQE_FIXED_FILE),
        };
        self.push_sqe(sys::IoUringSqe {
            opcode: sys::IORING_OP_READ,
            flags,
            fd,
            off: offset,
            addr: buf as u64,
            len,
            user_data,
            ..Default::default()
        })
    }

    /// Publishes pending SQEs to the kernel without waiting for completions
    /// (one `io_uring_enter` syscall).
    ///
    /// # Errors
    /// Propagates `io_uring_enter` errors and reports kernel-dropped SQEs.
    pub fn submit(&mut self) -> Result<usize> {
        self.submit_and_wait(0)
    }

    /// Publishes pending SQEs and blocks until at least `min_complete`
    /// completions are available.
    ///
    /// # Errors
    /// Propagates `io_uring_enter` errors and reports kernel-dropped SQEs.
    pub fn submit_and_wait(&mut self, min_complete: u32) -> Result<usize> {
        let to_submit = self.pending;
        // Publish the tail so the kernel sees the new entries.
        // SAFETY: sq_tail points into the live mapping.
        unsafe { (*self.sq_tail).store(self.sq_tail_local, Ordering::Release) };

        let mut consumed = 0;
        if to_submit > 0 || min_complete > 0 {
            let flags = if min_complete > 0 { sys::IORING_ENTER_GETEVENTS } else { 0 };
            consumed = self.enter(to_submit, min_complete, flags)? as usize;
        }

        // SAFETY: sq_dropped points into the live mapping.
        let dropped = unsafe { (*self.sq_dropped).load(Ordering::Acquire) };
        if dropped != 0 {
            return Err(IoEngineError::Dropped(dropped));
        }
        self.pending = 0;
        Ok(consumed)
    }

    /// Non-blocking completion poll: returns the next CQE if one is ready.
    ///
    /// This is the paper's "completion polling mode": the CQ tail is read
    /// from shared memory without any syscall.
    pub fn peek_completion(&mut self) -> Option<Completion> {
        // SAFETY: cq_head/cq_tail/cqes point into the live mapping.
        unsafe {
            // ordering: cq_head's sole writer is this thread; the kernel only reads it, so no acquire is needed
            let head = (*self.cq_head).load(Ordering::Relaxed);
            let tail = (*self.cq_tail).load(Ordering::Acquire);
            if head == tail {
                return None;
            }
            let cqe = *self.cqes.add((head & self.cq_mask) as usize);
            (*self.cq_head).store(head.wrapping_add(1), Ordering::Release);
            Some(Completion {
                user_data: cqe.user_data,
                result: cqe.res,
            })
        }
    }

    /// Completions waiting in the CQ: reads that have landed and are not yet
    /// reaped. Right after a submit, fewer of these than reads lent means
    /// some went to the device.
    pub fn cq_ready(&self) -> usize {
        // SAFETY: cq_head/cq_tail point into the live mapping.
        unsafe {
            // ordering: cq_head's sole writer is this thread; the kernel only reads it, so no acquire is needed
            let head = (*self.cq_head).load(Ordering::Relaxed);
            let tail = (*self.cq_tail).load(Ordering::Acquire);
            tail.wrapping_sub(head) as usize
        }
    }

    /// Blocks until a completion is available and returns it.
    ///
    /// Spins on the CQ first (cheap when I/O is already done), then parks in
    /// `io_uring_enter(GETEVENTS)`.
    ///
    /// # Errors
    /// Propagates `io_uring_enter` errors.
    pub fn wait_completion(&mut self) -> Result<Completion> {
        // Fast path: poll a bounded number of times before syscalling.
        for _ in 0..64 {
            if let Some(c) = self.peek_completion() {
                return Ok(c);
            }
            std::hint::spin_loop();
        }
        loop {
            if let Some(c) = self.peek_completion() {
                return Ok(c);
            }
            // Also submits anything prepared but never submitted: a bare
            // GETEVENTS would wait forever on reads the kernel never saw.
            self.submit_and_wait(1)?;
        }
    }

    /// Registers `fds` as the ring's fixed-file table, enabling
    /// `IOSQE_FIXED_FILE` submissions that skip per-I/O fd refcounting.
    /// The table lives until the ring is dropped.
    ///
    /// # Errors
    /// Propagates `io_uring_register` errors (`EBUSY` if already registered).
    pub fn register_files(&mut self, fds: &[i32]) -> Result<()> {
        // SAFETY: `fds` is a valid slice of i32 file descriptors for the
        // duration of the call, as required by IORING_REGISTER_FILES.
        unsafe {
            sys::io_uring_register(
                self.fd,
                sys::IORING_REGISTER_FILES,
                fds.as_ptr().cast(),
                fds.len() as u32,
            )
        }
        .map_err(|source| IoEngineError::Ring {
            op: "register_files",
            source,
        })
    }
}

impl Drop for Ring {
    fn drop(&mut self) {
        // SAFETY: fd is owned by this ring and closed exactly once; the
        // mmaps are unmapped afterwards by their own Drop impls.
        unsafe {
            libc::close(self.fd);
        }
    }
}

/// Closes an fd on drop unless defused with `mem::forget` (setup cleanup).
struct CloseGuard(i32);
impl Drop for CloseGuard {
    fn drop(&mut self) {
        // SAFETY: guard owns the fd until forgotten.
        unsafe {
            libc::close(self.0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::os::unix::io::AsRawFd;

    fn temp_file(content: &[u8]) -> (std::path::PathBuf, std::fs::File) {
        let path = crate::test_path("ring");
        let mut f = std::fs::File::create(&path).unwrap();
        f.write_all(content).unwrap();
        f.sync_all().unwrap();
        let f = std::fs::File::open(&path).unwrap();
        (path, f)
    }

    #[test]
    fn nop_roundtrip() {
        let mut ring = Ring::new(8).unwrap();
        ring.prepare_nop(7).unwrap();
        assert_eq!(ring.pending, 1);
        let n = ring.submit_and_wait(1).unwrap();
        assert_eq!(n, 1);
        let c = ring.wait_completion().unwrap();
        assert_eq!(c.user_data, 7);
        assert_eq!(c.result, 0);
    }

    #[test]
    fn read_matches_file_contents() {
        let data: Vec<u8> = (0..=255u8).cycle().take(4096).collect();
        let (path, f) = temp_file(&data);
        let mut ring = Ring::new(8).unwrap();
        let mut buf = vec![0u8; 16];
        // SAFETY: buf outlives the completion reaped below.
        unsafe {
            ring.prepare_read(FileRef::Fd(f.as_raw_fd()), buf.as_mut_ptr(), 16, 100, 1)
                .unwrap();
        }
        ring.submit_and_wait(1).unwrap();
        let c = ring.wait_completion().unwrap();
        assert_eq!(c.user_data, 1);
        assert_eq!(c.bytes().unwrap(), 16);
        assert_eq!(&buf[..], &data[100..116]);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn many_scattered_reads_in_one_submit() {
        let data: Vec<u8> = (0..8192u32).flat_map(|x| x.to_le_bytes()).collect();
        let (path, f) = temp_file(&data);
        let mut ring = Ring::new(64).unwrap();
        let n = 64usize;
        let mut bufs = vec![0u8; 4 * n];
        for i in 0..n {
            let off = (i * 97 % 8192) as u64 * 4;
            // SAFETY: bufs outlives all completions below.
            unsafe {
                ring.prepare_read(
                    FileRef::Fd(f.as_raw_fd()),
                    bufs.as_mut_ptr().add(4 * i),
                    4,
                    off,
                    i as u64,
                )
                .unwrap();
            }
        }
        ring.submit_and_wait(n as u32).unwrap();
        let mut seen = vec![false; n];
        for _ in 0..n {
            let c = ring.wait_completion().unwrap();
            assert_eq!(c.bytes().unwrap(), 4);
            seen[c.user_data as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
        for i in 0..n {
            let val = u32::from_le_bytes(bufs[4 * i..4 * i + 4].try_into().unwrap());
            assert_eq!(val as usize, i * 97 % 8192);
        }
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn sq_full_is_reported() {
        let mut ring = Ring::new(4).unwrap();
        let cap = ring.capacity();
        for i in 0..cap {
            ring.prepare_nop(i as u64).unwrap();
        }
        assert!(matches!(
            ring.prepare_nop(99),
            Err(IoEngineError::SubmissionQueueFull)
        ));
        ring.submit_and_wait(cap as u32).unwrap();
        // After submitting, space frees up again.
        for _ in 0..cap {
            ring.wait_completion().unwrap();
        }
        assert_eq!(ring.sq_space(), cap);
    }

    #[test]
    fn read_past_eof_yields_zero_bytes() {
        let (path, f) = temp_file(b"tiny");
        let mut ring = Ring::new(4).unwrap();
        let mut buf = [0u8; 8];
        // SAFETY: buf outlives the completion.
        unsafe {
            ring.prepare_read(FileRef::Fd(f.as_raw_fd()), buf.as_mut_ptr(), 8, 1 << 20, 0)
                .unwrap();
        }
        ring.submit_and_wait(1).unwrap();
        let c = ring.wait_completion().unwrap();
        assert_eq!(c.bytes().unwrap(), 0);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn read_bad_fd_reports_errno() {
        let mut ring = Ring::new(4).unwrap();
        let mut buf = [0u8; 4];
        // SAFETY: buf outlives the completion.
        unsafe {
            ring.prepare_read(FileRef::Fd(-1), buf.as_mut_ptr(), 4, 0, 0).unwrap();
        }
        ring.submit_and_wait(1).unwrap();
        let c = ring.wait_completion().unwrap();
        assert!(c.bytes().is_err());
        assert_eq!(
            c.bytes().unwrap_err().raw_os_error(),
            Some(libc::EBADF)
        );
    }

    #[test]
    fn peek_returns_none_when_idle() {
        let mut ring = Ring::new(4).unwrap();
        assert!(ring.peek_completion().is_none());
    }

    #[test]
    fn drain_collects_everything() {
        let mut ring = Ring::new(16).unwrap();
        for i in 0..10 {
            ring.prepare_nop(i).unwrap();
        }
        ring.submit_and_wait(10).unwrap();
        // NOPs complete synchronously, so they must all be ready.
        let mut tags: Vec<u64> = std::iter::from_fn(|| ring.peek_completion())
            .map(|c| c.user_data)
            .collect();
        tags.sort_unstable();
        assert_eq!(tags, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn register_files_roundtrip() {
        let (path, f) = temp_file(b"0123456789abcdef");
        let mut ring = Ring::new(4).unwrap();
        ring.register_files(&[f.as_raw_fd()]).unwrap();
        // One table per ring: a second registration is refused.
        assert!(ring.register_files(&[f.as_raw_fd()]).is_err());
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn fixed_file_read_matches_plain_read() {
        let data: Vec<u8> = (0..2048u32).flat_map(|x| x.to_le_bytes()).collect();
        let (path, f) = temp_file(&data);
        let mut ring = Ring::new(8).unwrap();
        ring.register_files(&[f.as_raw_fd()]).unwrap();
        let mut buf = [0u8; 8];
        // SAFETY: buf outlives the completion; index 0 is registered.
        unsafe {
            ring.prepare_read(FileRef::Registered(0), buf.as_mut_ptr(), 8, 64, 9).unwrap();
        }
        ring.submit_and_wait(1).unwrap();
        let c = ring.wait_completion().unwrap();
        assert_eq!(c.user_data, 9);
        assert_eq!(c.bytes().unwrap(), 8);
        assert_eq!(&buf[..], &data[64..72]);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn enter_call_accounting() {
        let mut ring = Ring::new(8).unwrap();
        let before = ring.enter_calls();
        ring.prepare_nop(0).unwrap();
        ring.submit().unwrap();
        assert_eq!(ring.enter_calls(), before + 1);
    }

    #[test]
    fn new_clamps_entries() {
        let ring = Ring::new(0).unwrap();
        assert!(ring.capacity() >= 1);
    }

    #[test]
    fn wait_completion_submits_what_was_only_prepared() {
        let mut ring = Ring::new(4).unwrap();
        ring.prepare_nop(3).unwrap();
        assert_eq!(ring.wait_completion().unwrap().user_data, 3);
        assert_eq!(ring.pending, 0);
    }

    #[test]
    fn ring_survives_thread_hops_mid_stream() {
        // A reader outlives the thread that first used it (ringbench's
        // on-demand clients take a fresh scoped thread per window): read on
        // A, move to B with the fixed-file table installed, read, move back.
        let data: Vec<u8> = (0..4096u32).flat_map(|x| x.to_le_bytes()).collect();
        let (path, f) = temp_file(&data);
        let fd = f.as_raw_fd();
        let read_at = move |ring: &mut Ring, fixed: bool, entry: u64| -> [u8; 4] {
            let mut buf = [0u8; 4];
            // SAFETY: buf outlives the completion reaped below; file index
            // 0 is registered before any `fixed` read.
            unsafe {
                let file = if fixed { FileRef::Registered(0) } else { FileRef::Fd(fd) };
                ring.prepare_read(file, buf.as_mut_ptr(), 4, entry * 4, entry).unwrap();
            }
            ring.submit().unwrap();
            let c = ring.wait_completion().unwrap();
            assert_eq!((c.user_data, c.bytes().unwrap()), (entry, 4));
            buf
        };
        let mut ring = Ring::new(8).unwrap();
        let mut got = vec![read_at(&mut ring, false, 7)];
        ring.register_files(&[fd]).unwrap();
        let (mut ring, on_b) = std::thread::spawn(move || {
            let b = [read_at(&mut ring, false, 1000), read_at(&mut ring, true, 2000)];
            (ring, b)
        })
        .join()
        .unwrap();
        got.extend(on_b);
        got.push(read_at(&mut ring, true, 4095));
        let want: Vec<[u8; 4]> = [7u32, 1000, 2000, 4095].iter().map(|x| x.to_le_bytes()).collect();
        assert_eq!(got, want);
        std::fs::remove_file(path).ok();
    }
}
