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

/// Default ring size used across RingSampler (the paper's setting: 512).
pub const DEFAULT_RING_ENTRIES: u32 = 512;

/// A completed I/O request, decoupled from the raw CQE layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    /// The `user_data` tag given at submission.
    pub user_data: u64,
    /// Bytes transferred on success, or the negated errno on failure.
    pub result: i32,
    /// Raw CQE flags. Bit 0 ([`sys::IORING_CQE_F_BUFFER`]) marks a
    /// provided-buffer completion whose buffer id is `flags >> 16`.
    pub flags: u32,
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

/// Builder for [`Ring`] with the tuning knobs RingSampler exposes.
///
/// Methods chain by value: `RingBuilder::new().entries(64).build()`.
#[derive(Debug, Clone)]
pub struct RingBuilder {
    entries: u32,
    sqpoll: bool,
    sqpoll_idle_ms: u32,
    single_issuer: bool,
    defer_taskrun: bool,
    register_ring_fd: bool,
    lazy_submission: bool,
    buf_ring: Option<(u16, u32)>,
}

impl Default for RingBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl RingBuilder {
    /// Starts a builder with the default ring size (512 entries).
    pub fn new() -> Self {
        Self {
            entries: DEFAULT_RING_ENTRIES,
            sqpoll: false,
            sqpoll_idle_ms: 1000,
            single_issuer: false,
            defer_taskrun: false,
            register_ring_fd: false,
            lazy_submission: false,
            buf_ring: None,
        }
    }

    /// Sets the submission-queue size (rounded up to a power of two by the
    /// kernel). Values are clamped to `[1, 32768]`.
    pub fn entries(mut self, entries: u32) -> Self {
        self.entries = entries.clamp(1, 32768);
        self
    }

    /// Enables kernel-side submission polling (`IORING_SETUP_SQPOLL`).
    ///
    /// The paper lists this as future work; we support it behind this flag.
    /// Requires privileges on older kernels; setup falls back to a normal
    /// ring if the kernel refuses.
    pub fn sqpoll(mut self, enable: bool) -> Self {
        self.sqpoll = enable;
        self
    }

    /// Idle time before the SQPOLL kernel thread sleeps, in milliseconds.
    pub fn sqpoll_idle_ms(mut self, ms: u32) -> Self {
        self.sqpoll_idle_ms = ms;
        self
    }

    /// Hints the kernel that only one thread will ever submit
    /// (`IORING_SETUP_SINGLE_ISSUER`); ignored by older kernels.
    ///
    /// The ring is created `R_DISABLED` and armed lazily by the first
    /// submit/wait, so the *using* thread (not the creating one) becomes
    /// the kernel-enforced owner — a worker built on the caller thread can
    /// still be moved into its producer thread before first I/O.
    pub fn single_issuer(mut self, enable: bool) -> Self {
        self.single_issuer = enable;
        self
    }

    /// Defers completion-side task work to `io_uring_enter(GETEVENTS)`
    /// (`IORING_SETUP_DEFER_TASKRUN | IORING_SETUP_COOP_TASKRUN`), so
    /// completions never IPI the submitting thread. Implies
    /// [`RingBuilder::single_issuer`] (the kernel requires it) and the same
    /// lazy-arming ownership rule.
    pub fn defer_taskrun(mut self, enable: bool) -> Self {
        self.defer_taskrun = enable;
        self
    }

    /// Registers the ring fd in the owning task's private table at arm
    /// time, so every `io_uring_enter` passes an index
    /// (`IORING_ENTER_REGISTERED_RING`) and skips the kernel's fdget/fdput
    /// lookup. Falls back to the raw fd if the kernel refuses.
    pub fn register_ring_fd(mut self, enable: bool) -> Self {
        self.register_ring_fd = enable;
        self
    }

    /// Defers the submission syscall: [`Ring::submit`] only publishes the
    /// SQ tail, and the next `GETEVENTS` enter (which the completion side
    /// needs anyway) carries `to_submit`, merging the two syscalls into
    /// one. With a two-groups-in-flight pipeline this halves enters per
    /// group on a warm page cache.
    pub fn lazy_submission(mut self, enable: bool) -> Self {
        self.lazy_submission = enable;
        self
    }

    /// Registers a provided-buffer ring (`IORING_REGISTER_PBUF_RING`) of
    /// `entries` buffers (rounded up to a power of two) of `each_len`
    /// bytes each, enabling [`Ring::prepare_read_select`]. Registration
    /// failure is non-fatal: the ring is built without it and
    /// [`Ring::buf_ring_active`] reports `false`.
    pub fn buf_ring(mut self, entries: u16, each_len: u32) -> Self {
        self.buf_ring = Some((entries, each_len));
        self
    }

    /// Creates the ring.
    ///
    /// # Errors
    /// Fails if the kernel rejects `io_uring_setup` or any of the ring
    /// mmaps. Optional setup flags degrade instead of failing: if the
    /// kernel refuses the DEFER_TASKRUN group (`EPERM`/`EINVAL`), the
    /// builder retries without it, and as a last resort with no flags at
    /// all. [`Ring::setup_flags`] reports what was requested vs granted.
    pub fn build(&self) -> Result<Ring> {
        let mut flags = 0u32;
        if self.sqpoll {
            flags |= sys::IORING_SETUP_SQPOLL;
        }
        if self.single_issuer || self.defer_taskrun {
            flags |= sys::IORING_SETUP_SINGLE_ISSUER | sys::IORING_SETUP_R_DISABLED;
        }
        if self.defer_taskrun {
            flags |= sys::IORING_SETUP_COOP_TASKRUN | sys::IORING_SETUP_DEFER_TASKRUN;
        }
        let requested = flags;
        // Degrade ladder: full request → without the taskrun/ownership
        // group → plain ring. Each rung only runs if it removes something.
        let rungs = [
            flags,
            flags
                & !(sys::IORING_SETUP_COOP_TASKRUN
                    | sys::IORING_SETUP_DEFER_TASKRUN
                    | sys::IORING_SETUP_SINGLE_ISSUER
                    | sys::IORING_SETUP_R_DISABLED),
            0,
        ];
        let mut ring = None;
        let mut last_err = None;
        for (i, &rung) in rungs.iter().enumerate() {
            if i > 0 && rungs.get(i - 1) == Some(&rung) {
                continue;
            }
            match Ring::with_flags(self.entries, rung, self.sqpoll_idle_ms) {
                Ok(r) => {
                    ring = Some(r);
                    break;
                }
                Err(e @ IoEngineError::Ring { .. }) => last_err = Some(e),
                Err(e) => return Err(e),
            }
        }
        let mut ring = match ring {
            Some(r) => r,
            // ringlint: allow(panic-free-hot-path) — `rungs` is a non-empty array, so the loop ran at least once and every non-Ok arm either returned or recorded `last_err`
            None => return Err(last_err.expect("at least one setup attempt ran")),
        };
        ring.flags_requested = requested;
        ring.want_ring_fd = self.register_ring_fd;
        ring.lazy_submit = self.lazy_submission;
        if let Some((entries, each_len)) = self.buf_ring {
            // Best-effort: a refused pbuf ring leaves buf_ring = None and
            // the caller's read ladder falls back to fixed/plain buffers.
            let _ = ring.init_buf_ring(entries, each_len);
        }
        Ok(ring)
    }
}

/// What a ring asked the kernel for vs what it actually runs with.
/// Surfaced through `EpochReport` and ringscope so silent fallbacks
/// (SQPOLL refused, DEFER_TASKRUN unsupported, pbuf ring rejected) are
/// visible instead of silent.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RingSetupInfo {
    /// Setup flags requested of `io_uring_setup`.
    pub requested_flags: u32,
    /// Setup flags the created ring actually carries.
    pub granted_flags: u32,
    /// Whether the ring fd is registered for `ENTER_REGISTERED_RING`
    /// (known only after the ring is armed by its first I/O).
    pub ring_fd_registered: bool,
    /// Whether a provided-buffer ring is registered and serving reads.
    pub buf_ring_active: bool,
    /// Whether submits are deferred into the completion-side enter.
    pub lazy_submission: bool,
}

impl RingSetupInfo {
    /// Human-readable names of the setup flags in `bits`, `|`-separated
    /// (`"none"` when empty). Used by report renderers.
    pub fn flag_names(bits: u32) -> String {
        const NAMES: [(u32, &str); 6] = [
            (sys::IORING_SETUP_SQPOLL, "sqpoll"),
            (sys::IORING_SETUP_SINGLE_ISSUER, "single_issuer"),
            (sys::IORING_SETUP_COOP_TASKRUN, "coop_taskrun"),
            (sys::IORING_SETUP_DEFER_TASKRUN, "defer_taskrun"),
            (sys::IORING_SETUP_R_DISABLED, "r_disabled"),
            (sys::IORING_SETUP_IOPOLL, "iopoll"),
        ];
        let mut out = String::new();
        for (bit, name) in NAMES {
            if bits & bit != 0 {
                if !out.is_empty() {
                    out.push('|');
                }
                out.push_str(name);
            }
        }
        if out.is_empty() {
            out.push_str("none");
        }
        out
    }
}

/// An owned io_uring instance: fd + shared rings + SQE array.
#[derive(Debug)]
pub struct Ring {
    fd: i32,
    sqpoll: bool,
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
    sq_flags: *const AtomicU32,
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
    cq_entries: u32,
    cqes: *const sys::IoUringCqe,

    /// Total SQEs submitted over the ring's lifetime (metrics).
    submitted_total: u64,
    /// Total `io_uring_enter` syscalls issued (metrics).
    enter_calls: u64,

    // Ring-mode ladder state.
    /// Setup flags originally requested (before fallback rungs).
    flags_requested: u32,
    /// Setup flags the kernel actually granted.
    flags_granted: u32,
    /// Ring was created `R_DISABLED` and still needs `ENABLE_RINGS`.
    needs_enable: bool,
    /// Register the ring fd at arm time.
    want_ring_fd: bool,
    /// Registered-ring-fd table index, once granted.
    ring_fd_index: Option<u32>,
    /// Defer submit syscalls into the completion-side enter.
    lazy_submit: bool,
    /// Provided-buffer ring, when registered.
    buf_ring: Option<BufRing>,
}

/// A registered provided-buffer ring: the kernel-shared id ring plus the
/// payload arena the ids point into.
///
/// Both regions are anonymous page-aligned mappings accessed only through
/// raw pointers, so the kernel writing a loaned buffer never aliases a
/// Rust reference.
#[derive(Debug)]
struct BufRing {
    /// Kernel-shared ring of [`sys::IoUringBuf`] descriptors.
    ring: Mmap,
    /// Payload backing store: `entries` slots of `each_len` bytes.
    arena: Mmap,
    entries: u16,
    mask: u16,
    /// Local tail mirror; published with a release store on recycle.
    tail_local: u16,
    each_len: u32,
    bgid: u16,
    /// Buffers currently available to the kernel (userspace mirror used
    /// for admission control — never submit more selects than credits).
    credits: u16,
    /// Lifetime count of buffers recycled back to the kernel.
    recycles: u64,
}

impl BufRing {
    /// Writes descriptor `bid` at ring slot `tail_local & mask` and
    /// advances the local tail (not yet published).
    fn push_desc(&mut self, bid: u16) {
        let idx = (self.tail_local & self.mask) as usize;
        let addr = self.arena.as_ptr() as u64 + bid as u64 * self.each_len as u64;
        // SAFETY: idx < entries so the slot is inside the ring mapping;
        // the kernel does not read it until the tail store below.
        unsafe {
            *(self.ring.as_ptr().cast::<sys::IoUringBuf>()).add(idx) = sys::IoUringBuf {
                addr,
                len: self.each_len,
                bid,
                resv: 0,
            };
        }
        self.tail_local = self.tail_local.wrapping_add(1);
    }

    /// Publishes the local tail to the kernel-shared tail word.
    fn publish_tail(&self) {
        // The tail is the u16 `resv` field of ring entry 0. A u16 atomic
        // store with release ordering publishes the descriptors written
        // before it (mirrors liburing's io_uring_buf_ring_advance).
        let tail = self
            .ring
            .offset_as::<std::sync::atomic::AtomicU16>(sys::IORING_BUF_RING_TAIL_OFFSET as u32);
        // SAFETY: offset 14 is inside the mapping (entry 0 is 16 bytes)
        // and 2-aligned; the kernel reads it with acquire semantics.
        unsafe { (*tail).store(self.tail_local, std::sync::atomic::Ordering::Release) };
    }
}

// SAFETY: a Ring is only ever used by one thread at a time (it is not Sync),
// but moving it across threads is fine: all state is owned.
unsafe impl Send for Ring {}

impl Ring {
    /// Creates a ring with `entries` SQ slots and default settings.
    ///
    /// # Errors
    /// See [`RingBuilder::build`].
    pub fn new(entries: u32) -> Result<Self> {
        RingBuilder::new().entries(entries).build()
    }

    /// Returns a builder for customized rings.
    pub fn builder() -> RingBuilder {
        RingBuilder::new()
    }

    /// Creates a ring with exactly `flags` and **no** fallback ladder —
    /// a refusal surfaces as an error. Used by capability probing, where
    /// the builder's transparent degradation would mask the answer.
    ///
    /// # Errors
    /// Propagates the `io_uring_setup`/mmap errno verbatim.
    pub fn with_setup_flags(entries: u32, flags: u32) -> Result<Self> {
        Self::with_flags(entries, flags, 0)
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
                // ringlint: allow(buffer-loan) — REGISTER_PROBE fills `buf` synchronously during the syscall; the kernel keeps no pointer after return
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

    fn with_flags(entries: u32, flags: u32, sqpoll_idle_ms: u32) -> Result<Self> {
        let mut params = sys::IoUringParams {
            flags,
            sq_thread_idle: sqpoll_idle_ms,
            ..Default::default()
        };
        let fd = sys::io_uring_setup(entries, &mut params).map_err(|source| {
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
            sqpoll: flags & sys::IORING_SETUP_SQPOLL != 0,
            sq_head: sq_ring.offset_as::<AtomicU32>(params.sq_off.head),
            sq_tail: sq_ring.offset_as::<AtomicU32>(params.sq_off.tail),
            sq_mask: {
                // SAFETY: in-bounds per kernel offsets.
                unsafe { *sq_ring.offset_as::<u32>(params.sq_off.ring_mask) }
            },
            sq_entries: params.sq_entries,
            sq_flags: sq_ring.offset_as::<AtomicU32>(params.sq_off.flags),
            sq_dropped: sq_ring.offset_as::<AtomicU32>(params.sq_off.dropped),
            sq_array: sq_ring.offset_as::<u32>(params.sq_off.array),
            sq_tail_local: {
                // SAFETY: tail is a valid AtomicU32 in the mapping.
                // ringlint: allow(atomic-ordering) — setup-time read before the ring is shared; the kernel has published nothing yet
                unsafe { (*sq_ring.offset_as::<AtomicU32>(params.sq_off.tail)).load(Ordering::Relaxed) }
            },
            pending: 0,
            cq_head: cq_base.offset_as::<AtomicU32>(params.cq_off.head),
            cq_tail: cq_base.offset_as::<AtomicU32>(params.cq_off.tail),
            cq_mask: {
                // SAFETY: in-bounds per kernel offsets.
                unsafe { *cq_base.offset_as::<u32>(params.cq_off.ring_mask) }
            },
            cq_entries: params.cq_entries,
            cqes: cq_base.offset_as::<sys::IoUringCqe>(params.cq_off.cqes),
            submitted_total: 0,
            enter_calls: 0,
            flags_requested: flags,
            flags_granted: flags,
            needs_enable: flags & sys::IORING_SETUP_R_DISABLED != 0,
            want_ring_fd: false,
            ring_fd_index: None,
            lazy_submit: false,
            buf_ring: None,
            _sq_ring: sq_ring,
            _cq_ring: cq_ring,
            sqes,
        };
        std::mem::forget(close_on_err);
        Ok(ring)
    }

    /// Number of SQ slots.
    pub fn capacity(&self) -> usize {
        self.sq_entries as usize
    }

    /// Number of CQ slots (usually 2× the SQ).
    pub fn cq_capacity(&self) -> usize {
        self.cq_entries as usize
    }

    /// Free SQ slots available for [`Ring::prepare_read`] right now.
    pub fn sq_space(&self) -> usize {
        // SAFETY: sq_head points into the live mapping.
        let head = unsafe { (*self.sq_head).load(Ordering::Acquire) };
        (self.sq_entries - self.sq_tail_local.wrapping_sub(head)) as usize
    }

    /// Entries pushed but not yet passed to the kernel.
    pub fn pending(&self) -> u32 {
        self.pending
    }

    /// Lifetime count of submitted SQEs.
    pub fn submitted_total(&self) -> u64 {
        self.submitted_total
    }

    /// Lifetime count of `io_uring_enter` syscalls (the paper's async
    /// pipeline aims to minimize these per I/O group).
    pub fn enter_calls(&self) -> u64 {
        self.enter_calls
    }

    /// Whether this ring runs with a kernel SQPOLL thread.
    pub fn is_sqpoll(&self) -> bool {
        self.sqpoll
    }

    /// Requested vs granted setup state for fallback reporting.
    pub fn setup_info(&self) -> RingSetupInfo {
        RingSetupInfo {
            requested_flags: self.flags_requested,
            // R_DISABLED is an arming mechanism, not a granted feature.
            granted_flags: self.flags_granted & !sys::IORING_SETUP_R_DISABLED,
            ring_fd_registered: self.ring_fd_index.is_some(),
            buf_ring_active: self.buf_ring.is_some(),
            lazy_submission: self.lazy_submit,
        }
    }

    /// Requested and granted `io_uring_setup` flags (fallback-visible).
    pub fn setup_flags(&self) -> (u32, u32) {
        let info = self.setup_info();
        (info.requested_flags, info.granted_flags)
    }

    /// Whether a provided-buffer ring is registered.
    pub fn buf_ring_active(&self) -> bool {
        self.buf_ring.is_some()
    }

    /// Provided buffers currently available for [`Ring::prepare_read_select`]
    /// (0 when no buffer ring is registered).
    pub fn buf_ring_credits(&self) -> u16 {
        self.buf_ring.as_ref().map_or(0, |b| b.credits)
    }

    /// Payload capacity of one provided buffer, in bytes.
    pub fn buf_ring_each_len(&self) -> u32 {
        self.buf_ring.as_ref().map_or(0, |b| b.each_len)
    }

    /// Lifetime count of provided buffers recycled back to the kernel.
    pub fn buf_ring_recycles(&self) -> u64 {
        self.buf_ring.as_ref().map_or(0, |b| b.recycles)
    }

    /// One-time arming performed by the thread issuing the first enter:
    /// enables an `R_DISABLED` ring (making *this* task the
    /// SINGLE_ISSUER owner) and registers the ring fd in this task's
    /// private table when requested. Ring-fd registration failure is
    /// non-fatal (the raw fd keeps working); enable failure is fatal.
    fn arm(&mut self) -> Result<()> {
        if self.needs_enable {
            // SAFETY: ENABLE_RINGS takes no argument pointer.
            unsafe {
                sys::io_uring_register(self.fd, sys::IORING_REGISTER_ENABLE_RINGS, std::ptr::null(), 0)
            }
            .map_err(|source| IoEngineError::Ring {
                op: "enable_rings",
                source,
            })?;
            self.needs_enable = false;
        }
        if self.want_ring_fd {
            self.want_ring_fd = false;
            if std::env::var_os("RINGSAMPLER_FAIL_RING_FDS").is_none() {
                let mut upd = sys::IoUringRsrcUpdate {
                    offset: u32::MAX, // kernel picks the slot
                    resv: 0,
                    data: self.fd as u64,
                };
                // SAFETY: `upd` is one valid IoUringRsrcUpdate element, the
                // type REGISTER_RING_FDS expects, live for the call.
                let ok = unsafe {
                    sys::io_uring_register(
                        self.fd,
                        sys::IORING_REGISTER_RING_FDS,
                        // ringlint: allow(buffer-loan) — REGISTER_RING_FDS reads `upd` and writes the slot back synchronously; no pointer outlives the syscall
                        (&mut upd as *mut sys::IoUringRsrcUpdate).cast(),
                        1,
                    )
                };
                if ok.is_ok() {
                    self.ring_fd_index = Some(upd.offset);
                }
            }
        }
        Ok(())
    }

    /// All `io_uring_enter` calls funnel through here: arms the ring on
    /// first use, prefers the registered-ring-fd index, retries `EINTR`,
    /// and counts syscalls.
    fn enter(&mut self, to_submit: u32, min_complete: u32, mut flags: u32) -> Result<u32> {
        self.arm()?;
        let fd = match self.ring_fd_index {
            Some(idx) => {
                flags |= sys::IORING_ENTER_REGISTERED_RING;
                idx as i32
            }
            None => self.fd,
        };
        loop {
            match sys::io_uring_enter(fd, to_submit, min_complete, flags) {
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

    /// Registers a provided-buffer ring of `entries` (rounded up to a
    /// power of two) buffers of `each_len` bytes under group id 0.
    ///
    /// The environment variable `RINGSAMPLER_FAIL_PBUF_RING`, when set,
    /// forces the registration to fail with `EINVAL` — a test hook for
    /// the fallback path an old kernel would trigger.
    fn init_buf_ring(&mut self, entries: u16, each_len: u32) -> Result<()> {
        let entries = entries.max(1).next_power_of_two();
        let each_len = each_len.max(64);
        if std::env::var_os("RINGSAMPLER_FAIL_PBUF_RING").is_some() {
            return Err(IoEngineError::Ring {
                op: "register_pbuf_ring(forced-failure hook)",
                source: io::Error::from_raw_os_error(libc::EINVAL),
            });
        }
        let ring_bytes = entries as usize * std::mem::size_of::<sys::IoUringBuf>();
        let map_err = |op: &'static str| move |source: io::Error| IoEngineError::Ring { op, source };
        // The descriptor ring must be page-aligned; both maps are anonymous
        // so the kernel never aliases Rust-referenced memory.
        let ring = Mmap::map_anonymous(ring_bytes.max(4096)).map_err(map_err("mmap pbuf ring"))?;
        let arena =
            Mmap::map_anonymous(entries as usize * each_len as usize).map_err(map_err("mmap pbuf arena"))?;
        let mut br = BufRing {
            ring,
            arena,
            entries,
            mask: entries - 1,
            tail_local: 0,
            each_len,
            bgid: 0,
            credits: entries,
            recycles: 0,
        };
        // Fill (and thereby fault in) every descriptor *before* handing
        // the ring to the kernel: registration pins the pages as they are
        // mapped at that moment, and writing through a MAP_PRIVATE page
        // only after the pin would CoW onto pages the kernel never sees.
        for bid in 0..entries {
            br.push_desc(bid);
        }
        br.publish_tail();
        let reg = sys::IoUringBufReg {
            ring_addr: br.ring.as_ptr() as u64,
            ring_entries: entries as u32,
            bgid: 0,
            flags: 0,
            resv: [0; 3],
        };
        // SAFETY: `reg` points at one valid IoUringBufReg describing a
        // page-aligned mapping that BufRing keeps alive until unregistered
        // or the ring fd is closed (which tears the registration down).
        unsafe {
            // ringlint: allow(buffer-loan) — the kernel copies `reg` during REGISTER_PBUF_RING; what it retains is the described mapping, which `BufRing` keeps alive until unregistration
            sys::io_uring_register(
                self.fd,
                sys::IORING_REGISTER_PBUF_RING,
                (&reg as *const sys::IoUringBufReg).cast(),
                1,
            )
        }
        .map_err(map_err("register_pbuf_ring"))?;
        self.buf_ring = Some(br);
        Ok(())
    }

    /// Queues a read whose destination buffer the *kernel* picks from the
    /// provided-buffer ring at issue time (`IOSQE_BUFFER_SELECT`). The
    /// matching completion carries the chosen buffer id; read it with
    /// [`Ring::buf_ring_copy`] and hand the buffer back with
    /// [`Ring::buf_ring_recycle`].
    ///
    /// Safe (unlike the other prepare variants) because the destination
    /// memory is the ring-owned arena, never caller memory.
    ///
    /// # Errors
    /// [`IoEngineError::SubmissionQueueFull`] if no SQ slot is free;
    /// [`IoEngineError::BufRingExhausted`] when no buffer ring is
    /// registered, no credits remain, or `len` exceeds a buffer.
    pub fn prepare_read_select(
        &mut self,
        fd: i32,
        fixed_file: bool,
        len: u32,
        offset: u64,
        user_data: u64,
    ) -> Result<()> {
        let bgid = {
            let br = self
                .buf_ring
                .as_mut()
                .filter(|b| b.credits > 0 && len <= b.each_len)
                .ok_or(IoEngineError::BufRingExhausted)?;
            br.credits -= 1;
            br.bgid
        };
        let res = self.push_sqe(sys::IoUringSqe {
            opcode: sys::IORING_OP_READ,
            flags: sys::IOSQE_BUFFER_SELECT | if fixed_file { sys::IOSQE_FIXED_FILE } else { 0 },
            fd,
            off: offset,
            len,
            user_data,
            buf_index: bgid, // buf_group shares this offset in the real ABI
            ..Default::default()
        });
        if res.is_err() {
            // SQE never queued: the credit was not consumed after all.
            if let Some(br) = self.buf_ring.as_mut() {
                br.credits += 1;
            }
        }
        res
    }

    /// Copies the first `len` bytes of provided buffer `bid` into `dst`
    /// and returns how many bytes were copied.
    ///
    /// Call only between reaping a `F_BUFFER` completion naming `bid` and
    /// recycling it — outside that window the kernel may be writing the
    /// buffer concurrently.
    pub fn buf_ring_copy(&self, bid: u16, len: usize, dst: &mut [u8]) -> usize {
        let Some(br) = self.buf_ring.as_ref() else {
            return 0;
        };
        if bid >= br.entries {
            return 0;
        }
        let n = len.min(br.each_len as usize).min(dst.len());
        // SAFETY: bid < entries keeps the source range inside the arena;
        // the loan protocol (CQE reaped, not yet recycled) guarantees the
        // kernel is not writing it now.
        unsafe {
            std::ptr::copy_nonoverlapping(
                br.arena.as_ptr().add(bid as usize * br.each_len as usize),
                dst.as_mut_ptr(),
                n,
            );
        }
        n
    }

    /// Returns provided buffer `bid` to the kernel for reuse (after its
    /// completion was reaped and the payload copied out).
    pub fn buf_ring_recycle(&mut self, bid: u16) {
        if let Some(br) = self.buf_ring.as_mut() {
            if bid < br.entries && br.credits < br.entries {
                br.push_desc(bid);
                br.publish_tail();
                br.credits += 1;
                br.recycles += 1;
            }
        }
    }

    /// Restores a select credit whose completion arrived *without*
    /// `F_BUFFER` (the kernel failed the request before picking a buffer,
    /// e.g. `ENOBUFS`), so admission control stays balanced.
    pub fn buf_ring_return_credit(&mut self) {
        if let Some(br) = self.buf_ring.as_mut() {
            if br.credits < br.entries {
                br.credits += 1;
            }
        }
    }

    /// Unregisters the provided-buffer ring, releasing its group id.
    ///
    /// # Errors
    /// Propagates `io_uring_register` errors (`ENXIO` if none registered).
    pub fn unregister_buf_ring(&mut self) -> Result<()> {
        let Some(br) = self.buf_ring.take() else {
            return Err(IoEngineError::Ring {
                op: "unregister_pbuf_ring",
                // ENXIO (6), matching the kernel's "none registered" errno;
                // the vendored libc stub does not define the constant.
                source: io::Error::from_raw_os_error(6),
            });
        };
        let reg = sys::IoUringBufReg {
            bgid: br.bgid,
            ..Default::default()
        };
        // SAFETY: `reg` is one valid IoUringBufReg naming the group id.
        unsafe {
            // ringlint: allow(buffer-loan) — UNREGISTER_PBUF_RING reads `reg` synchronously and releases the kernel's hold on the mapping; nothing stays lent
            sys::io_uring_register(
                self.fd,
                sys::IORING_UNREGISTER_PBUF_RING,
                (&reg as *const sys::IoUringBufReg).cast(),
                1,
            )
        }
        .map_err(|source| IoEngineError::Ring {
            op: "unregister_pbuf_ring",
            source,
        })
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

    /// Queues a `pread`-style read of `len` bytes from `fd` at byte
    /// `offset` into `buf`.
    ///
    /// # Errors
    /// [`IoEngineError::SubmissionQueueFull`] if no SQ slot is free.
    ///
    /// # Safety
    /// `buf` must point to at least `len` writable bytes that stay valid
    /// (not moved, freed, or aliased mutably) until the matching completion
    /// has been reaped from this ring.
    pub unsafe fn prepare_read(
        &mut self,
        fd: i32,
        buf: *mut u8,
        len: u32,
        offset: u64,
        user_data: u64,
    ) -> Result<()> {
        self.push_sqe(sys::IoUringSqe {
            opcode: sys::IORING_OP_READ,
            fd,
            off: offset,
            addr: buf as u64,
            len,
            user_data,
            ..Default::default()
        })
    }

    /// Queues a read like [`Ring::prepare_read`] but addressing the file
    /// by its **registered-file index** (`IOSQE_FIXED_FILE`), skipping
    /// per-I/O fd refcounting in the kernel. The file table must have been
    /// installed with [`Ring::register_files`].
    ///
    /// # Errors
    /// [`IoEngineError::SubmissionQueueFull`] if no SQ slot is free.
    ///
    /// # Safety
    /// Same contract as [`Ring::prepare_read`]: `buf` must stay valid and
    /// exclusively borrowed until the completion is reaped. Additionally,
    /// `file_index` must refer to a live slot in the registered table.
    pub unsafe fn prepare_read_fixed(
        &mut self,
        file_index: u32,
        buf: *mut u8,
        len: u32,
        offset: u64,
        user_data: u64,
    ) -> Result<()> {
        self.push_sqe(sys::IoUringSqe {
            opcode: sys::IORING_OP_READ,
            flags: sys::IOSQE_FIXED_FILE,
            fd: file_index as i32,
            off: offset,
            addr: buf as u64,
            len,
            user_data,
            ..Default::default()
        })
    }

    /// Queues a `pwrite`-style write (used by tests and the dataset
    /// preprocessor's direct path).
    ///
    /// # Errors
    /// [`IoEngineError::SubmissionQueueFull`] if no SQ slot is free.
    ///
    /// # Safety
    /// `buf` must point to `len` readable bytes valid until completion.
    pub unsafe fn prepare_write(
        &mut self,
        fd: i32,
        buf: *const u8,
        len: u32,
        offset: u64,
        user_data: u64,
    ) -> Result<()> {
        self.push_sqe(sys::IoUringSqe {
            opcode: sys::IORING_OP_WRITE,
            fd,
            off: offset,
            addr: buf as u64,
            len,
            user_data,
            ..Default::default()
        })
    }

    /// Publishes pending SQEs to the kernel without waiting for completions
    /// (one `io_uring_enter` syscall, or zero under SQPOLL).
    ///
    /// # Errors
    /// Propagates `io_uring_enter` errors and reports kernel-dropped SQEs.
    pub fn submit(&mut self) -> Result<usize> {
        self.submit_inner(0)
    }

    /// Publishes pending SQEs and blocks until at least `min_complete`
    /// completions are available.
    ///
    /// # Errors
    /// Propagates `io_uring_enter` errors.
    pub fn submit_and_wait(&mut self, min_complete: u32) -> Result<usize> {
        self.submit_inner(min_complete)
    }

    fn submit_inner(&mut self, min_complete: u32) -> Result<usize> {
        let to_submit = self.pending;
        // Publish the tail so the kernel sees the new entries.
        // SAFETY: sq_tail points into the live mapping.
        unsafe { (*self.sq_tail).store(self.sq_tail_local, Ordering::Release) };

        let mut flags = 0;
        let mut need_enter = to_submit > 0 || min_complete > 0;
        if self.sqpoll {
            // SAFETY: sq_flags points into the live mapping.
            let kflags = unsafe { (*self.sq_flags).load(Ordering::Acquire) };
            if kflags & sys::IORING_SQ_NEED_WAKEUP != 0 {
                flags |= sys::IORING_ENTER_SQ_WAKEUP;
            } else if min_complete == 0 {
                // SQPOLL thread is awake: no syscall needed at all.
                need_enter = false;
            }
        } else if self.lazy_submit && min_complete == 0 {
            // Deferred submission: the published tail rides along with the
            // next GETEVENTS enter (which the completion side needs
            // anyway), merging submit + wait into one syscall. `pending`
            // stays set until that flush.
            return Ok(to_submit as usize);
        }
        if min_complete > 0 {
            flags |= sys::IORING_ENTER_GETEVENTS;
        }

        let mut consumed = to_submit as usize;
        if need_enter {
            consumed = self.enter(to_submit, min_complete, flags)? as usize;
        }

        // SAFETY: sq_dropped points into the live mapping.
        let dropped = unsafe { (*self.sq_dropped).load(Ordering::Acquire) };
        if dropped != 0 {
            return Err(IoEngineError::Dropped(dropped));
        }
        self.pending = 0;
        self.submitted_total += to_submit as u64;
        Ok(consumed)
    }

    /// Non-blocking completion poll: returns the next CQE if one is ready.
    ///
    /// This is the paper's "completion polling mode": the CQ tail is read
    /// from shared memory without any syscall.
    pub fn peek_completion(&mut self) -> Option<Completion> {
        // SAFETY: cq_head/cq_tail/cqes point into the live mapping.
        unsafe {
            // ringlint: allow(atomic-ordering) — cq_head's sole writer is this thread; the kernel only reads it, so no acquire is needed
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
                flags: cqe.flags,
            })
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
            // Flush any deferred submissions with the same syscall (a
            // plain GETEVENTS would not consume published-but-unentered
            // SQEs, and could then wait forever on never-issued reads).
            let to_submit = self.pending;
            if to_submit > 0 {
                // SAFETY: sq_tail points into the live mapping.
                unsafe { (*self.sq_tail).store(self.sq_tail_local, Ordering::Release) };
            }
            self.enter(to_submit, 1, sys::IORING_ENTER_GETEVENTS)?;
            if to_submit > 0 {
                self.pending = 0;
                self.submitted_total += to_submit as u64;
            }
        }
    }

    /// Drains all currently-ready completions into `out`; returns how many
    /// were reaped. Never blocks and never syscalls.
    pub fn drain_completions(&mut self, out: &mut Vec<Completion>) -> usize {
        let mut n = 0;
        while let Some(c) = self.peek_completion() {
            out.push(c);
            n += 1;
        }
        n
    }

    /// Registers `fds` as the ring's fixed-file table, enabling
    /// `IOSQE_FIXED_FILE` submissions that skip per-I/O fd refcounting.
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

    /// Registers `iovecs` as the ring's fixed-buffer table
    /// (`IORING_REGISTER_BUFFERS`), pinning the pages once so that
    /// `IORING_OP_READ_FIXED` submissions skip the per-I/O
    /// `get_user_pages` cost paid by plain reads.
    ///
    /// The environment variable `RINGSAMPLER_FAIL_REGISTER_BUFFERS`, when
    /// set, forces this call to fail with `ENOMEM` without touching the
    /// kernel — a test hook for exercising the graceful-fallback path that
    /// a tiny `RLIMIT_MEMLOCK` would otherwise trigger.
    ///
    /// # Errors
    /// Propagates `io_uring_register` errors (`EBUSY` if buffers are
    /// already registered, `ENOMEM` if the kernel cannot pin the memory
    /// under `RLIMIT_MEMLOCK`, `EINVAL` on pre-5.1 kernels).
    ///
    /// # Safety
    /// Every iovec must describe a valid, uniquely-owned allocation that
    /// stays at a stable address (not moved, freed, or reallocated) until
    /// [`Ring::unregister_buffers`] succeeds or the ring is dropped. The
    /// kernel holds pins on these pages for the lifetime of the
    /// registration.
    pub unsafe fn register_buffers(&mut self, iovecs: &[libc::iovec]) -> Result<()> {
        if std::env::var_os("RINGSAMPLER_FAIL_REGISTER_BUFFERS").is_some() {
            return Err(IoEngineError::Ring {
                op: "register_buffers(forced-failure hook)",
                source: io::Error::from_raw_os_error(libc::ENOMEM),
            });
        }
        sys::io_uring_register(
            self.fd,
            sys::IORING_REGISTER_BUFFERS,
            iovecs.as_ptr().cast(),
            iovecs.len() as u32,
        )
        .map_err(|source| IoEngineError::Ring {
            op: "register_buffers",
            source,
        })
    }

    /// Removes a previously registered fixed-buffer table, releasing the
    /// kernel's page pins.
    ///
    /// # Errors
    /// Propagates `io_uring_register` errors (`ENXIO` if none registered).
    pub fn unregister_buffers(&mut self) -> Result<()> {
        // SAFETY: unregister takes no argument pointer.
        unsafe {
            sys::io_uring_register(self.fd, sys::IORING_UNREGISTER_BUFFERS, std::ptr::null(), 0)
        }
        .map_err(|source| IoEngineError::Ring {
            op: "unregister_buffers",
            source,
        })
    }

    /// Queues a read into a slice of registered fixed buffer `buf_index`
    /// (`IORING_OP_READ_FIXED`). When `fixed_file` is set, `fd` is an index
    /// into the registered-file table instead of a raw descriptor, composing
    /// both fast paths in a single SQE.
    ///
    /// # Errors
    /// [`IoEngineError::SubmissionQueueFull`] if no SQ slot is free.
    ///
    /// # Safety
    /// `buf..buf+len` must lie entirely inside the registered buffer named
    /// by `buf_index` (the kernel validates and fails the CQE with `EFAULT`
    /// otherwise, but the write into the buffer still races with any other
    /// user of that region), and that region must not be read or written by
    /// anything else until the matching completion is reaped. When
    /// `fixed_file` is set, `fd` must be a live registered-file slot.
    // One raw SQE field per parameter; bundling them into a struct would
    // just re-spell IoUringSqe.
    #[allow(clippy::too_many_arguments)]
    pub unsafe fn prepare_read_fixed_buf(
        &mut self,
        fd: i32,
        fixed_file: bool,
        buf: *mut u8,
        len: u32,
        offset: u64,
        buf_index: u16,
        user_data: u64,
    ) -> Result<()> {
        self.push_sqe(sys::IoUringSqe {
            opcode: sys::IORING_OP_READ_FIXED,
            flags: if fixed_file { sys::IOSQE_FIXED_FILE } else { 0 },
            fd,
            off: offset,
            addr: buf as u64,
            len,
            user_data,
            buf_index,
            ..Default::default()
        })
    }

    /// Removes a previously registered fixed-file table.
    ///
    /// # Errors
    /// Propagates `io_uring_register` errors (`ENXIO` if none registered).
    pub fn unregister_files(&mut self) -> Result<()> {
        // SAFETY: unregister takes no argument pointer.
        unsafe {
            sys::io_uring_register(self.fd, sys::IORING_UNREGISTER_FILES, std::ptr::null(), 0)
        }
        .map_err(|source| IoEngineError::Ring {
            op: "unregister_files",
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

/// Serializes tests (across this crate's unit-test modules) that read or
/// write the process-wide `RINGSAMPLER_FAIL_REGISTER_BUFFERS` hook.
#[cfg(test)]
// ringlint: allow(sync-free-hot-path) — cfg(test)-only guard for the env hook; never compiled into the hot path
pub(crate) static TEST_ENV_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

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

    use super::TEST_ENV_LOCK as ENV_LOCK;

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
        assert_eq!(ring.pending(), 1);
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
            ring.prepare_read(f.as_raw_fd(), buf.as_mut_ptr(), 16, 100, 1)
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
                    f.as_raw_fd(),
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
            ring.prepare_read(f.as_raw_fd(), buf.as_mut_ptr(), 8, 1 << 20, 0)
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
            ring.prepare_read(-1, buf.as_mut_ptr(), 4, 0, 0).unwrap();
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
        let mut out = Vec::new();
        // NOPs complete synchronously, so they must all be ready.
        let n = ring.drain_completions(&mut out);
        assert_eq!(n, 10);
        let mut tags: Vec<u64> = out.iter().map(|c| c.user_data).collect();
        tags.sort_unstable();
        assert_eq!(tags, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn register_files_roundtrip() {
        let (path, f) = temp_file(b"0123456789abcdef");
        let mut ring = Ring::new(4).unwrap();
        ring.register_files(&[f.as_raw_fd()]).unwrap();
        ring.unregister_files().unwrap();
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
            ring.prepare_read_fixed(0, buf.as_mut_ptr(), 8, 64, 9).unwrap();
        }
        ring.submit_and_wait(1).unwrap();
        let c = ring.wait_completion().unwrap();
        assert_eq!(c.user_data, 9);
        assert_eq!(c.bytes().unwrap(), 8);
        assert_eq!(&buf[..], &data[64..72]);
        ring.unregister_files().unwrap();
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn register_buffers_roundtrip_and_fixed_read() {
        let _env = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let data: Vec<u8> = (0..2048u32).flat_map(|x| x.to_le_bytes()).collect();
        let (path, f) = temp_file(&data);
        let mut ring = Ring::new(8).unwrap();
        let mut pool = vec![0u8; 4096];
        let iov = libc::iovec {
            iov_base: pool.as_mut_ptr().cast(),
            iov_len: pool.len(),
        };
        // SAFETY: `pool` is uniquely owned and outlives the registration.
        unsafe { ring.register_buffers(&[iov]).unwrap() };
        // SAFETY: the target range lies inside registered buffer 0 and is
        // not touched until the completion is reaped.
        unsafe {
            ring.prepare_read_fixed_buf(f.as_raw_fd(), false, pool.as_mut_ptr(), 16, 128, 0, 5)
                .unwrap();
        }
        ring.submit_and_wait(1).unwrap();
        let c = ring.wait_completion().unwrap();
        assert_eq!(c.user_data, 5);
        assert_eq!(c.bytes().unwrap(), 16);
        assert_eq!(&pool[..16], &data[128..144]);
        ring.unregister_buffers().unwrap();
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn fixed_buf_read_composes_with_fixed_file() {
        let _env = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let data: Vec<u8> = (0..1024u32).flat_map(|x| x.to_le_bytes()).collect();
        let (path, f) = temp_file(&data);
        let mut ring = Ring::new(8).unwrap();
        ring.register_files(&[f.as_raw_fd()]).unwrap();
        let mut pool = vec![0u8; 4096];
        let iov = libc::iovec {
            iov_base: pool.as_mut_ptr().cast(),
            iov_len: pool.len(),
        };
        // SAFETY: `pool` is uniquely owned and outlives the registration.
        unsafe { ring.register_buffers(&[iov]).unwrap() };
        // SAFETY: range inside registered buffer 0; file index 0 is live.
        unsafe {
            // Read into a non-zero offset within the registered buffer.
            ring.prepare_read_fixed_buf(0, true, pool.as_mut_ptr().add(64), 8, 256, 0, 6)
                .unwrap();
        }
        ring.submit_and_wait(1).unwrap();
        let c = ring.wait_completion().unwrap();
        assert_eq!(c.bytes().unwrap(), 8);
        assert_eq!(&pool[64..72], &data[256..264]);
        ring.unregister_buffers().unwrap();
        ring.unregister_files().unwrap();
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn forced_failure_hook_rejects_registration() {
        let _env = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        std::env::set_var("RINGSAMPLER_FAIL_REGISTER_BUFFERS", "1");
        let mut ring = Ring::new(4).unwrap();
        let mut pool = vec![0u8; 4096];
        let iov = libc::iovec {
            iov_base: pool.as_mut_ptr().cast(),
            iov_len: pool.len(),
        };
        // SAFETY: pool outlives the (failing) call.
        let err = unsafe { ring.register_buffers(&[iov]) }.unwrap_err();
        std::env::remove_var("RINGSAMPLER_FAIL_REGISTER_BUFFERS");
        match err {
            IoEngineError::Ring { op, source } => {
                assert!(op.contains("forced-failure"));
                assert_eq!(source.raw_os_error(), Some(libc::ENOMEM));
            }
            other => panic!("unexpected error: {other}"),
        }
    }

    #[test]
    fn enter_call_accounting() {
        let mut ring = Ring::new(8).unwrap();
        let before = ring.enter_calls();
        ring.prepare_nop(0).unwrap();
        ring.submit().unwrap();
        assert_eq!(ring.enter_calls(), before + 1);
        assert_eq!(ring.submitted_total(), 1);
    }

    #[test]
    fn sqpoll_request_builds_a_working_ring() {
        // SQPOLL may be refused by the kernel/sandbox; the builder must
        // fall back to a plain ring and reads must still work either way.
        let data: Vec<u8> = (0..1024u32).flat_map(|x| x.to_le_bytes()).collect();
        let (path, f) = temp_file(&data);
        let mut ring = RingBuilder::new()
            .entries(8)
            .sqpoll(true)
            .sqpoll_idle_ms(100)
            .build()
            .unwrap();
        let mut buf = [0u8; 4];
        // SAFETY: buf outlives the completion.
        unsafe {
            ring.prepare_read(f.as_raw_fd(), buf.as_mut_ptr(), 4, 40, 1)
                .unwrap();
        }
        ring.submit_and_wait(1).unwrap();
        let c = ring.wait_completion().unwrap();
        assert_eq!(c.bytes().unwrap(), 4);
        assert_eq!(u32::from_le_bytes(buf), 10);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn single_issuer_hint_accepted_or_ignored() {
        let mut ring = RingBuilder::new().entries(4).single_issuer(true).build().unwrap();
        ring.prepare_nop(1).unwrap();
        ring.submit_and_wait(1).unwrap();
        assert_eq!(ring.wait_completion().unwrap().user_data, 1);
    }

    #[test]
    fn builder_clamps_entries() {
        let ring = RingBuilder::new().entries(0).build().unwrap();
        assert!(ring.capacity() >= 1);
    }

    #[test]
    fn defer_taskrun_ring_reads_and_reports_grant() {
        let data: Vec<u8> = (0..1024u32).flat_map(|x| x.to_le_bytes()).collect();
        let (path, f) = temp_file(&data);
        let mut ring = RingBuilder::new().entries(8).defer_taskrun(true).build().unwrap();
        let info = ring.setup_info();
        assert_ne!(info.requested_flags & sys::IORING_SETUP_DEFER_TASKRUN, 0);
        let mut buf = [0u8; 4];
        // SAFETY: buf outlives the completion.
        unsafe {
            ring.prepare_read(f.as_raw_fd(), buf.as_mut_ptr(), 4, 12, 3).unwrap();
        }
        ring.submit_and_wait(1).unwrap();
        let c = ring.wait_completion().unwrap();
        assert_eq!(c.user_data, 3);
        assert_eq!(u32::from_le_bytes(buf), 3);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn defer_taskrun_ring_works_after_crossing_threads() {
        // A worker built on one thread may be moved into its producer
        // thread before first I/O (the DataLoader pattern). R_DISABLED +
        // lazy arming makes the using thread the ring owner.
        let ring = RingBuilder::new().entries(4).defer_taskrun(true).build().unwrap();
        let handle = std::thread::spawn(move || {
            let mut ring = ring;
            ring.prepare_nop(11).unwrap();
            ring.submit_and_wait(1).unwrap();
            ring.wait_completion().unwrap().user_data
        });
        assert_eq!(handle.join().unwrap(), 11);
    }

    #[test]
    fn registered_ring_fd_enter_roundtrip() {
        let _env = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let mut ring = RingBuilder::new().entries(4).register_ring_fd(true).build().unwrap();
        ring.prepare_nop(21).unwrap();
        ring.submit_and_wait(1).unwrap();
        assert_eq!(ring.wait_completion().unwrap().user_data, 21);
        // Registration is best-effort, but this kernel grants it.
        assert!(ring.setup_info().ring_fd_registered);
    }

    #[test]
    fn ring_fd_registration_failure_hook_falls_back_to_raw_fd() {
        let _env = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        std::env::set_var("RINGSAMPLER_FAIL_RING_FDS", "1");
        let mut ring = RingBuilder::new().entries(4).register_ring_fd(true).build().unwrap();
        ring.prepare_nop(5).unwrap();
        let r = ring.submit_and_wait(1);
        std::env::remove_var("RINGSAMPLER_FAIL_RING_FDS");
        r.unwrap();
        assert_eq!(ring.wait_completion().unwrap().user_data, 5);
        assert!(!ring.setup_info().ring_fd_registered);
    }

    #[test]
    fn lazy_submission_defers_the_enter() {
        let mut ring = RingBuilder::new().entries(8).lazy_submission(true).build().unwrap();
        let before = ring.enter_calls();
        ring.prepare_nop(1).unwrap();
        ring.submit().unwrap();
        // Tail published, no syscall yet.
        assert_eq!(ring.enter_calls(), before);
        assert_eq!(ring.pending(), 1);
        // The wait flushes and reaps with a single enter.
        let c = ring.wait_completion().unwrap();
        assert_eq!(c.user_data, 1);
        assert_eq!(ring.enter_calls(), before + 1);
        assert_eq!(ring.submitted_total(), 1);
        assert_eq!(ring.pending(), 0);
    }

    #[test]
    fn buf_ring_select_read_roundtrip() {
        let _env = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        if !crate::probe::uring_caps().buf_ring {
            eprintln!("skipping: kernel does not honor IOSQE_BUFFER_SELECT");
            return;
        }
        let data: Vec<u8> = (0..2048u32).flat_map(|x| x.to_le_bytes()).collect();
        let (path, f) = temp_file(&data);
        let mut ring = RingBuilder::new().entries(8).buf_ring(4, 256).build().unwrap();
        assert!(ring.buf_ring_active());
        let credits = ring.buf_ring_credits();
        ring.prepare_read_select(f.as_raw_fd(), false, 16, 512, 7).unwrap();
        assert_eq!(ring.buf_ring_credits(), credits - 1);
        ring.submit_and_wait(1).unwrap();
        let c = ring.wait_completion().unwrap();
        assert_eq!(c.user_data, 7);
        assert_eq!(c.bytes().unwrap(), 16);
        assert_ne!(c.flags & sys::IORING_CQE_F_BUFFER, 0, "kernel must pick a buffer");
        let bid = (c.flags >> sys::IORING_CQE_BUFFER_SHIFT) as u16;
        let mut out = [0u8; 16];
        assert_eq!(ring.buf_ring_copy(bid, 16, &mut out), 16);
        assert_eq!(&out[..], &data[512..528]);
        ring.buf_ring_recycle(bid);
        assert_eq!(ring.buf_ring_credits(), credits);
        assert_eq!(ring.buf_ring_recycles(), 1);
        ring.unregister_buf_ring().unwrap();
        assert!(!ring.buf_ring_active());
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn buf_ring_exhaustion_is_reported_not_queued() {
        let _env = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let (path, f) = temp_file(&[0u8; 4096]);
        let mut ring = RingBuilder::new().entries(8).buf_ring(2, 128).build().unwrap();
        let credits = ring.buf_ring_credits() as usize;
        for i in 0..credits {
            ring.prepare_read_select(f.as_raw_fd(), false, 8, 0, i as u64).unwrap();
        }
        assert!(matches!(
            ring.prepare_read_select(f.as_raw_fd(), false, 8, 0, 99),
            Err(IoEngineError::BufRingExhausted)
        ));
        // Oversized requests are refused up front too.
        assert!(matches!(
            ring.prepare_read_select(f.as_raw_fd(), false, 4096, 0, 98),
            Err(IoEngineError::BufRingExhausted)
        ));
        ring.submit_and_wait(credits as u32).unwrap();
        for _ in 0..credits {
            let c = ring.wait_completion().unwrap();
            let bid = (c.flags >> sys::IORING_CQE_BUFFER_SHIFT) as u16;
            ring.buf_ring_recycle(bid);
        }
        assert_eq!(ring.buf_ring_credits() as usize, credits);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn forced_pbuf_failure_hook_degrades_to_plain_ring() {
        let _env = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        std::env::set_var("RINGSAMPLER_FAIL_PBUF_RING", "1");
        let mut ring = RingBuilder::new().entries(4).buf_ring(4, 256).build().unwrap();
        std::env::remove_var("RINGSAMPLER_FAIL_PBUF_RING");
        assert!(!ring.buf_ring_active());
        assert!(matches!(
            ring.prepare_read_select(-1, false, 8, 0, 0),
            Err(IoEngineError::BufRingExhausted)
        ));
        // The ring itself still works.
        ring.prepare_nop(2).unwrap();
        ring.submit_and_wait(1).unwrap();
        assert_eq!(ring.wait_completion().unwrap().user_data, 2);
    }

    #[test]
    fn setup_info_flag_names_render() {
        assert_eq!(RingSetupInfo::flag_names(0), "none");
        let s = RingSetupInfo::flag_names(
            sys::IORING_SETUP_SINGLE_ISSUER | sys::IORING_SETUP_DEFER_TASKRUN,
        );
        assert_eq!(s, "single_issuer|defer_taskrun");
    }

    #[test]
    fn writes_then_reads_back() {
        let path = crate::test_path("ring-w");
        let f = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)
            .unwrap();
        let mut ring = Ring::new(4).unwrap();
        let data = b"hello ring";
        // SAFETY: data is a static-lifetime array outliving the completion.
        unsafe {
            ring.prepare_write(f.as_raw_fd(), data.as_ptr(), data.len() as u32, 0, 1)
                .unwrap();
        }
        ring.submit_and_wait(1).unwrap();
        let c = ring.wait_completion().unwrap();
        assert_eq!(c.bytes().unwrap() as usize, data.len());
        assert_eq!(std::fs::read(&path).unwrap(), data);
        std::fs::remove_file(path).ok();
    }
}
