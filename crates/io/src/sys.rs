#![cfg_attr(not(test), deny(clippy::disallowed_methods))]
//! Raw io_uring ABI: syscall numbers, shared-memory structure layouts, and
//! constants, transcribed from `<linux/io_uring.h>`; plus the file-state
//! calls a reader opens with (`fadvise64`, `cachestat`, `statx`).
//!
//! This module is deliberately free of any policy: it only defines the
//! kernel interface. The safe wrapper lives in [`crate::ring`].
//!
//! Only the subset of the ABI used by RingSampler is defined (setup, enter,
//! register, the fixed 64-byte SQE, the 16-byte CQE, and the ring offset
//! tables), but the definitions are complete for those structures so that
//! future opcodes can be added without re-deriving layouts.

use std::io;

/// `io_uring_setup(2)` syscall number on x86_64.
pub const SYS_IO_URING_SETUP: libc::c_long = 425;
/// `io_uring_enter(2)` syscall number on x86_64.
pub const SYS_IO_URING_ENTER: libc::c_long = 426;
/// `io_uring_register(2)` syscall number on x86_64.
pub const SYS_IO_URING_REGISTER: libc::c_long = 427;

/// `fadvise64(2)` syscall number.
#[cfg(target_arch = "x86_64")]
pub const SYS_FADVISE64: libc::c_long = 221;
/// `fadvise64(2)` syscall number.
#[cfg(target_arch = "aarch64")]
pub const SYS_FADVISE64: libc::c_long = 223;
/// `posix_fadvise` advice: the file is read at random, so read no pages
/// ahead of the ones asked for.
pub const POSIX_FADV_RANDOM: libc::c_long = 1;
/// `posix_fadvise` advice: drop the file's clean pages from the page cache
/// (what a cold-file test or benchmark does before it reads).
pub const POSIX_FADV_DONTNEED: libc::c_long = 4;

/// `cachestat(2)` syscall number (kernel ≥ 6.5; one number on every
/// architecture).
pub const SYS_CACHESTAT: libc::c_long = 451;
/// `statx(2)` syscall number.
#[cfg(target_arch = "x86_64")]
pub const SYS_STATX: libc::c_long = 332;
/// `statx(2)` syscall number.
#[cfg(target_arch = "aarch64")]
pub const SYS_STATX: libc::c_long = 291;
/// `statx` flag: the path is empty, so the call describes the descriptor.
pub const AT_EMPTY_PATH: libc::c_int = 0x1000;
/// `statx` mask bit: report `stx_dio_mem_align` and `stx_dio_offset_align`.
pub const STATX_DIOALIGN: u32 = 0x2000;
/// `open(2)` flag: reads bypass the page cache.
#[cfg(target_arch = "x86_64")]
pub const O_DIRECT: libc::c_int = 0o40000;
/// `open(2)` flag: reads bypass the page cache.
#[cfg(target_arch = "aarch64")]
pub const O_DIRECT: libc::c_int = 0o200000;

// --- setup flags (io_uring_params.flags) ---

/// App specifies the CQ size (via `cq_entries`).
pub const IORING_SETUP_CQSIZE: u32 = 1 << 3;
/// Clamp ring sizes instead of failing.
pub const IORING_SETUP_CLAMP: u32 = 1 << 4;

// The three flags below are only ever *probed* (see `crate::probe`): rings
// this crate builds carry none of them, because `SINGLE_ISSUER` binds a ring
// to the task that created it and a reader must survive a move between
// threads.

/// Cooperative task running: completions do not IPI the submitting task;
/// they are run the next time it transitions to the kernel anyway.
pub const IORING_SETUP_COOP_TASKRUN: u32 = 1 << 8;
/// Hint: only a single thread submits (enables kernel fast paths).
pub const IORING_SETUP_SINGLE_ISSUER: u32 = 1 << 12;
/// Defer completion-side task work until the owning task calls
/// `io_uring_enter(GETEVENTS)`. Requires `SINGLE_ISSUER`; enter from any
/// other task fails with `EEXIST`.
pub const IORING_SETUP_DEFER_TASKRUN: u32 = 1 << 13;

// --- feature flags (io_uring_params.features) ---

/// SQ and CQ rings live in a single mmap region.
pub const IORING_FEAT_SINGLE_MMAP: u32 = 1 << 0;
/// CQ ring never overflows silently.
pub const IORING_FEAT_NODROP: u32 = 1 << 1;

// --- enter flags ---

/// Wait for `min_complete` completions before returning.
pub const IORING_ENTER_GETEVENTS: u32 = 1 << 0;

// --- SQ ring flags (shared memory, written by kernel) ---

/// CQ ring is overflown.
pub const IORING_SQ_CQ_OVERFLOW: u32 = 1 << 1;

// --- mmap offsets ---

/// `mmap` offset selecting the SQ ring.
pub const IORING_OFF_SQ_RING: libc::off_t = 0;
/// `mmap` offset selecting the CQ ring.
pub const IORING_OFF_CQ_RING: libc::off_t = 0x8000000;
/// `mmap` offset selecting the SQE array.
pub const IORING_OFF_SQES: libc::off_t = 0x10000000;

// --- opcodes (subset) ---

/// No-op request; completes immediately. Used for ring self-tests.
pub const IORING_OP_NOP: u8 = 0;
/// Vectored read (`preadv2` semantics).
pub const IORING_OP_READV: u8 = 1;
/// Vectored write.
pub const IORING_OP_WRITEV: u8 = 2;
/// fsync.
pub const IORING_OP_FSYNC: u8 = 3;
/// Non-vectored read at an offset (`pread` semantics).
pub const IORING_OP_READ: u8 = 22;

// --- SQE flags ---

/// `fd` is an index into the registered-files table.
pub const IOSQE_FIXED_FILE: u8 = 1 << 0;
/// Issue after in-flight I/O drains.
pub const IOSQE_IO_DRAIN: u8 = 1 << 1;
/// Link the next SQE to this one.
pub const IOSQE_IO_LINK: u8 = 1 << 2;

// --- register opcodes ---

/// Register a fixed file table.
pub const IORING_REGISTER_FILES: u32 = 2;
/// Probe supported opcodes (arg = `io_uring_probe` + op array).
pub const IORING_REGISTER_PROBE: u32 = 8;
/// Register the ring fd itself in the calling *task's* private table
/// (probed only: such an index is meaningless on any other thread).
pub const IORING_REGISTER_RING_FDS: u32 = 20;
/// Unregister ring fds from the calling task's table.
pub const IORING_UNREGISTER_RING_FDS: u32 = 21;

/// Offsets of the submission-queue ring fields inside its mmap region.
#[repr(C)]
#[derive(Debug, Default, Clone, Copy)]
#[allow(missing_docs)] // fields mirror <linux/io_uring.h> verbatim
pub struct SqringOffsets {
    pub head: u32,
    pub tail: u32,
    pub ring_mask: u32,
    pub ring_entries: u32,
    pub flags: u32,
    pub dropped: u32,
    pub array: u32,
    pub resv1: u32,
    pub user_addr: u64,
}

/// Offsets of the completion-queue ring fields inside its mmap region.
#[repr(C)]
#[derive(Debug, Default, Clone, Copy)]
#[allow(missing_docs)] // fields mirror <linux/io_uring.h> verbatim
pub struct CqringOffsets {
    pub head: u32,
    pub tail: u32,
    pub ring_mask: u32,
    pub ring_entries: u32,
    pub overflow: u32,
    pub cqes: u32,
    pub flags: u32,
    pub resv1: u32,
    pub user_addr: u64,
}

/// Parameter block exchanged with `io_uring_setup(2)`.
///
/// The caller fills `flags` (and size hints); the kernel fills everything
/// else, in particular the two offset tables needed to mmap the rings.
#[repr(C)]
#[derive(Debug, Default, Clone, Copy)]
#[allow(missing_docs)] // fields mirror <linux/io_uring.h> verbatim
pub struct IoUringParams {
    pub sq_entries: u32,
    pub cq_entries: u32,
    pub flags: u32,
    pub sq_thread_cpu: u32,
    pub sq_thread_idle: u32,
    pub features: u32,
    pub wq_fd: u32,
    pub resv: [u32; 3],
    pub sq_off: SqringOffsets,
    pub cq_off: CqringOffsets,
}

/// Submission-queue entry: one I/O request (fixed 64-byte layout).
#[repr(C)]
#[derive(Debug, Default, Clone, Copy)]
#[allow(missing_docs)] // fields mirror <linux/io_uring.h> verbatim
pub struct IoUringSqe {
    pub opcode: u8,
    pub flags: u8,
    pub ioprio: u16,
    pub fd: i32,
    /// File offset (or `addr2` for some opcodes).
    pub off: u64,
    /// Destination/source buffer address.
    pub addr: u64,
    /// Transfer length in bytes.
    pub len: u32,
    /// Opcode-specific flags (`rw_flags`, `fsync_flags`, ...).
    pub op_flags: u32,
    /// Opaque value passed through to the matching CQE.
    pub user_data: u64,
    /// Fixed-buffer index or buffer-group id (always 0 here).
    pub buf_index: u16,
    pub personality: u16,
    pub splice_fd_in: i32,
    pub addr3: u64,
    pub __pad2: u64,
}

/// Completion-queue entry: the result of one request (fixed 16-byte layout).
#[repr(C)]
#[derive(Debug, Default, Clone, Copy)]
#[allow(missing_docs)] // fields mirror <linux/io_uring.h> verbatim
pub struct IoUringCqe {
    /// The `user_data` of the originating SQE.
    pub user_data: u64,
    /// Result: bytes transferred, or negated errno.
    pub res: i32,
    pub flags: u32,
}

/// One slot of a registration update table, used by
/// `IORING_REGISTER_RING_FDS` (`data` = ring fd, `offset` = desired table
/// index or `u32::MAX` to let the kernel pick; the kernel writes the
/// allocated index back into `offset`).
#[repr(C)]
#[derive(Debug, Default, Clone, Copy)]
#[allow(missing_docs)] // fields mirror <linux/io_uring.h> verbatim
pub struct IoUringRsrcUpdate {
    pub offset: u32,
    pub resv: u32,
    pub data: u64,
}

/// Header of the `IORING_REGISTER_PROBE` result, followed inline by
/// `ops_len` [`IoUringProbeOp`] entries.
#[repr(C)]
#[derive(Debug, Default, Clone, Copy)]
#[allow(missing_docs)] // fields mirror <linux/io_uring.h> verbatim
pub struct IoUringProbe {
    pub last_op: u8,
    pub ops_len: u8,
    pub resv: u16,
    pub resv2: [u32; 3],
}

/// One per-opcode entry of the `IORING_REGISTER_PROBE` result.
#[repr(C)]
#[derive(Debug, Default, Clone, Copy)]
#[allow(missing_docs)] // fields mirror <linux/io_uring.h> verbatim
pub struct IoUringProbeOp {
    pub op: u8,
    pub resv: u8,
    /// `IO_URING_OP_SUPPORTED` (bit 0) when the kernel implements `op`.
    pub flags: u16,
    pub resv2: u32,
}

/// `IoUringProbeOp::flags` bit: the opcode is supported.
pub const IO_URING_OP_SUPPORTED: u16 = 1 << 0;

/// The byte range `cachestat(2)` reports on (`len` 0: to the end of file).
#[repr(C)]
struct CachestatRange {
    off: u64,
    len: u64,
}

/// Page-cache state of a `cachestat(2)` range, in pages.
#[repr(C)]
#[derive(Debug, Default, Clone, Copy)]
#[allow(missing_docs)] // fields mirror <linux/mman.h> verbatim
pub struct Cachestat {
    pub nr_cache: u64,
    pub nr_dirty: u64,
    pub nr_writeback: u64,
    pub nr_evicted: u64,
    pub nr_recently_evicted: u64,
}

/// `struct statx` (fixed 256-byte layout). Only the mask and the two
/// direct-I/O alignments are read here; the fields around them are opaque.
#[repr(C)]
struct Statx {
    stx_mask: u32,
    /// `stx_blksize` through `stx_mnt_id`.
    opaque: [u32; 37],
    stx_dio_mem_align: u32,
    stx_dio_offset_align: u32,
    spare: [u64; 12],
}

/// `cachestat(fd, [off, off + len), ..)`: how many of the range's pages the
/// page cache holds.
///
/// # Errors
/// Propagates the kernel errno (`ENOSYS` before 6.5 or under a seccomp
/// policy that refuses it, `EBADF`, `EOPNOTSUPP` for a hugetlbfs file).
pub fn cachestat(fd: i32, off: u64, len: u64) -> io::Result<Cachestat> {
    let range = CachestatRange { off, len };
    let mut out = Cachestat::default();
    // SAFETY: `range` is read and `out` written by the kernel during the
    // call only; both are valid for their types, and the flags are 0.
    let ret = unsafe {
        libc::syscall(
            SYS_CACHESTAT,
            fd as libc::c_long,
            &range as *const CachestatRange,
            &mut out as *mut Cachestat,
            0 as libc::c_ulong,
        )
    };
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(out)
    }
}

/// The direct-I/O alignment of the file behind `fd`, from
/// `statx(STATX_DIOALIGN)`: `(memory, file offset)` in bytes, `(0, 0)` if
/// the file takes no direct I/O or the kernel does not say.
///
/// # Errors
/// Propagates the kernel errno.
pub fn dio_align(fd: i32) -> io::Result<(u32, u32)> {
    let mut out = Statx { stx_mask: 0, opaque: [0; 37], stx_dio_mem_align: 0, stx_dio_offset_align: 0, spare: [0; 12] };
    // SAFETY: the path is an empty NUL-terminated string and `out` is a
    // valid, writable `struct statx`, written during the call only.
    let ret = unsafe {
        libc::syscall(
            SYS_STATX,
            fd as libc::c_long,
            c"".as_ptr(),
            AT_EMPTY_PATH as libc::c_long,
            STATX_DIOALIGN as libc::c_ulong,
            &mut out as *mut Statx,
        )
    };
    if ret < 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(if out.stx_mask & STATX_DIOALIGN == 0 {
        (0, 0)
    } else {
        (out.stx_dio_mem_align, out.stx_dio_offset_align)
    })
}

/// Thin wrapper over the `io_uring_setup(2)` syscall.
///
/// # Errors
/// Returns the kernel errno as [`io::Error`] (e.g. `ENOSYS` when the kernel
/// or a seccomp policy forbids io_uring, `EPERM` under some sandboxes).
pub fn io_uring_setup(entries: u32, params: &mut IoUringParams) -> io::Result<i32> {
    // SAFETY: `params` is a valid, writable `io_uring_params` and `entries`
    // is passed by value; the kernel only writes within the struct.
    let ret = unsafe {
        libc::syscall(
            SYS_IO_URING_SETUP,
            entries as libc::c_ulong,
            params as *mut IoUringParams,
        )
    };
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret as i32)
    }
}

/// Thin wrapper over the `io_uring_enter(2)` syscall.
///
/// # Errors
/// Propagates the kernel errno. `EINTR`/`EAGAIN` are returned verbatim; the
/// caller decides on retry policy.
pub fn io_uring_enter(
    fd: i32,
    to_submit: u32,
    min_complete: u32,
    flags: u32,
) -> io::Result<u32> {
    // SAFETY: plain value arguments; the signal-mask pointer is null.
    let ret = unsafe {
        libc::syscall(
            SYS_IO_URING_ENTER,
            fd as libc::c_long,
            to_submit as libc::c_ulong,
            min_complete as libc::c_ulong,
            flags as libc::c_ulong,
            std::ptr::null::<libc::sigset_t>(),
            0usize,
        )
    };
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret as u32)
    }
}

/// `posix_fadvise(fd, 0, 0, advice)`: advice on the whole file, for the
/// open file description behind `fd` only.
///
/// # Errors
/// Propagates the kernel errno (`EBADF`, `ESPIPE` for a pipe).
pub fn fadvise(fd: i32, advice: libc::c_long) -> io::Result<()> {
    // SAFETY: fadvise64 takes a descriptor and three integers and touches
    // no user memory.
    let ret = unsafe { libc::syscall(SYS_FADVISE64, fd as libc::c_long, 0i64, 0i64, advice) };
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(())
    }
}

/// Thin wrapper over the `io_uring_register(2)` syscall.
///
/// # Errors
/// Propagates the kernel errno (e.g. `EBUSY` if resources are already
/// registered, `ENOMEM` if the kernel cannot pin memory).
///
/// # Safety
/// `arg` must point to `nr_args` valid elements of the type the `opcode`
/// expects (e.g. `i32` fds for `IORING_REGISTER_FILES`), valid for the
/// duration of the call.
pub unsafe fn io_uring_register(
    fd: i32,
    opcode: u32,
    arg: *const libc::c_void,
    nr_args: u32,
) -> io::Result<()> {
    let ret = libc::syscall(
        SYS_IO_URING_REGISTER,
        fd as libc::c_long,
        opcode as libc::c_ulong,
        arg,
        nr_args as libc::c_ulong,
    );
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::mem::size_of;

    #[test]
    fn fadvise_takes_a_file_and_refuses_a_bad_descriptor() {
        use std::os::fd::AsRawFd;
        let path = crate::test_path("fadvise");
        std::fs::write(&path, [0u8; 64]).unwrap();
        let file = std::fs::File::open(&path).unwrap();
        fadvise(file.as_raw_fd(), POSIX_FADV_RANDOM).unwrap();
        assert!(fadvise(-1, POSIX_FADV_RANDOM).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn cachestat_and_dio_align_describe_a_file() {
        use std::os::fd::AsRawFd;
        let path = crate::test_path("cachestat");
        std::fs::write(&path, vec![7u8; 3 * 4096]).unwrap();
        let file = std::fs::File::open(&path).unwrap();
        // Just written: every page is in the page cache.
        let cs = cachestat(file.as_raw_fd(), 0, 0).unwrap();
        assert_eq!(cs.nr_cache, 3, "{cs:?}");
        assert_eq!(cachestat(file.as_raw_fd(), 4096, 4096).unwrap().nr_cache, 1);
        assert!(cachestat(-1, 0, 0).is_err());
        // An alignment is 0 or a power of two, the two together.
        let (mem, off) = dio_align(file.as_raw_fd()).unwrap();
        assert_eq!(mem == 0, off == 0, "({mem}, {off})");
        assert!(mem == 0 || (mem.is_power_of_two() && off.is_power_of_two()));
        assert!(dio_align(-1).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn statx_layout_is_256_bytes() {
        assert_eq!(size_of::<Statx>(), 256);
        assert_eq!(std::mem::offset_of!(Statx, stx_dio_mem_align), 152);
        assert_eq!(size_of::<Cachestat>(), 40);
    }

    #[test]
    fn sqe_layout_is_64_bytes() {
        assert_eq!(size_of::<IoUringSqe>(), 64);
    }

    #[test]
    fn cqe_layout_is_16_bytes() {
        assert_eq!(size_of::<IoUringCqe>(), 16);
    }

    #[test]
    fn params_layout_is_120_bytes() {
        // 8 leading u32s + resv[3] = 40, sq_off = 40, cq_off = 40.
        assert_eq!(size_of::<IoUringParams>(), 120);
    }

    #[test]
    fn rsrc_update_layout_is_16_bytes() {
        assert_eq!(size_of::<IoUringRsrcUpdate>(), 16);
    }

    #[test]
    fn setup_and_close_roundtrip() {
        let mut p = IoUringParams::default();
        match io_uring_setup(4, &mut p) {
            Ok(fd) => {
                assert!(p.sq_entries >= 4);
                assert!(p.cq_entries >= p.sq_entries);
                // SAFETY: fd was just returned by io_uring_setup.
                unsafe { libc::close(fd) };
            }
            Err(e) => panic!("io_uring_setup failed: {e}"),
        }
    }

    #[test]
    fn setup_rejects_zero_entries() {
        let mut p = IoUringParams::default();
        assert!(io_uring_setup(0, &mut p).is_err());
    }

    #[test]
    fn enter_on_bad_fd_fails() {
        assert!(io_uring_enter(-1, 0, 0, 0).is_err());
    }
}
