//! Runtime capability probing and engine selection.

use std::path::Path;
use std::sync::OnceLock;

use crate::engine::{GroupReader, PreadReader, UringReader};
use crate::error::Result;
use crate::ring::Ring;
use crate::sys;

/// Which read engine backs a reader.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EngineKind {
    /// Real io_uring (the paper's system).
    Uring,
    /// Synchronous `pread` fallback.
    Pread,
}

impl std::fmt::Display for EngineKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineKind::Uring => write!(f, "io_uring"),
            EngineKind::Pread => write!(f, "pread"),
        }
    }
}

/// Returns whether this kernel/sandbox supports io_uring (cached).
pub fn uring_available() -> bool {
    static AVAILABLE: OnceLock<bool> = OnceLock::new();
    *AVAILABLE.get_or_init(|| Ring::new(2).is_ok())
}

/// What the running kernel's io_uring offers, probed once per process by
/// asking it (kernel version checks lie under seccomp/container policies).
/// A host fingerprint for benchmark reports; nothing in the workspace
/// selects behaviour from it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UringCaps {
    /// The kernel accepts `IORING_SETUP_DEFER_TASKRUN | COOP_TASKRUN |
    /// SINGLE_ISSUER` at setup. No ring here asks for it (it binds a ring
    /// to its creating thread); kept because `benchmark/src/host.rs` prints
    /// it — the next benchmark PR should drop this, `registered_ring_fds`
    /// and `buf_ring` from the fingerprint so they can leave this struct.
    pub defer_taskrun: bool,
    /// The kernel accepts `IORING_REGISTER_RING_FDS`. Same status as
    /// `defer_taskrun`: reported, never used.
    pub registered_ring_fds: bool,
    /// Always `false`. Provided-buffer rings only count as present when a
    /// real buffer-select read round-trips, and the machinery that test
    /// needed was removed with the ring-mode ladder; `false` is also what
    /// that test measured on the one kernel this repo has run on.
    pub buf_ring: bool,
    /// `IORING_OP_READ` is implemented per `IORING_REGISTER_PROBE` (every
    /// read goes through this opcode).
    pub read_op: bool,
    /// Raw `io_uring_params.features` bits reported at setup.
    pub features: u32,
}

/// Probes [`UringCaps`] (cached after the first call). All-false when
/// io_uring itself is unavailable.
pub fn uring_caps() -> UringCaps {
    static CAPS: OnceLock<UringCaps> = OnceLock::new();
    *CAPS.get_or_init(|| {
        let mut caps = UringCaps::default();
        if !uring_available() {
            return caps;
        }
        caps.features = Ring::probe_features().unwrap_or(0);
        caps.read_op = Ring::new(4).is_ok_and(|mut r| r.probe_op_supported(sys::IORING_OP_READ));
        let taskrun = sys::IORING_SETUP_SINGLE_ISSUER
            | sys::IORING_SETUP_COOP_TASKRUN
            | sys::IORING_SETUP_DEFER_TASKRUN;
        caps.defer_taskrun = probe_fd(taskrun, |_| true);
        caps.registered_ring_fds = probe_fd(0, |fd| {
            // offset u32::MAX: the kernel picks the slot and writes it back.
            let mut upd = sys::IoUringRsrcUpdate { offset: u32::MAX, resv: 0, data: fd as u64 };
            let call = |op: u32, upd: &mut sys::IoUringRsrcUpdate| {
                let arg = (upd as *mut sys::IoUringRsrcUpdate).cast_const().cast();
                // SAFETY: `arg` points at one valid IoUringRsrcUpdate, the element
                // type both opcodes take, read and written only during the call.
                unsafe { sys::io_uring_register(fd, op, arg, 1) }.is_ok()
            };
            // Unregistering names the slot by `offset` and wants `data` zero.
            call(sys::IORING_REGISTER_RING_FDS, &mut upd) && {
                upd.data = 0;
                call(sys::IORING_UNREGISTER_RING_FDS, &mut upd)
            }
        });
        caps
    })
}

/// Sets up a throwaway 4-entry ring fd with `flags`, asks `check` about it
/// and closes it. `false` when the kernel refuses the setup.
fn probe_fd(flags: u32, check: impl FnOnce(i32) -> bool) -> bool {
    let mut params = sys::IoUringParams { flags, ..Default::default() };
    let Ok(fd) = sys::io_uring_setup(4, &mut params) else {
        return false;
    };
    let ok = check(fd);
    // SAFETY: fd was just returned by io_uring_setup and is closed once.
    unsafe { libc::close(fd) };
    ok
}

/// The best engine available on this system.
pub fn default_engine() -> EngineKind {
    if uring_available() {
        EngineKind::Uring
    } else {
        EngineKind::Pread
    }
}

/// Opens a [`GroupReader`] for `path` using `kind` (or the best available
/// engine if `None`).
///
/// # Errors
/// Fails if the file cannot be opened or the requested engine cannot be
/// initialized.
pub fn open_reader(
    path: &Path,
    queue_depth: u32,
    kind: Option<EngineKind>,
) -> Result<Box<dyn GroupReader>> {
    match kind.unwrap_or_else(default_engine) {
        EngineKind::Uring => Ok(Box::new(UringReader::open(path, queue_depth)?)),
        EngineKind::Pread => Ok(Box::new(PreadReader::open(path, queue_depth)?)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_is_consistent() {
        let a = uring_available();
        let b = uring_available();
        assert_eq!(a, b);
    }

    #[test]
    fn default_engine_matches_probe() {
        if uring_available() {
            assert_eq!(default_engine(), EngineKind::Uring);
        } else {
            assert_eq!(default_engine(), EngineKind::Pread);
        }
    }

    #[test]
    fn open_reader_both_kinds() {
        let path = crate::test_path("probe");
        std::fs::write(&path, [0u8; 64]).unwrap();
        let r = open_reader(&path, 8, Some(EngineKind::Pread)).unwrap();
        assert_eq!(r.engine_name(), "pread");
        if uring_available() {
            let r = open_reader(&path, 8, Some(EngineKind::Uring)).unwrap();
            assert_eq!(r.engine_name(), "io_uring");
        }
        let _ = open_reader(&path, 8, None).unwrap();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn caps_probe_is_cached_and_consistent() {
        let a = uring_caps();
        let b = uring_caps();
        assert_eq!(a, b);
        if !uring_available() {
            assert_eq!(a, UringCaps::default());
        } else {
            // Any kernel with io_uring at all implements IORING_OP_READ
            // (5.6+) if the probe register op works; the two kernel-feature
            // fields are genuinely kernel-dependent.
            assert!(a.features != 0 || !a.read_op);
            assert!(!a.buf_ring);
        }
    }

    #[test]
    fn display_names() {
        assert_eq!(EngineKind::Uring.to_string(), "io_uring");
        assert_eq!(EngineKind::Pread.to_string(), "pread");
    }

    #[test]
    fn missing_file_is_an_error() {
        let path = Path::new("/nonexistent/definitely/missing");
        assert!(open_reader(path, 8, Some(EngineKind::Pread)).is_err());
    }
}
