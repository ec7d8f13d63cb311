//! Runtime capability probing and engine selection.

use std::path::Path;
use std::sync::OnceLock;

use crate::engine::{GroupReader, PreadReader, UringReader};
use crate::error::Result;
use crate::ring::{Ring, RingBuilder};
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

/// Ring-mode ladder capabilities of the running kernel, probed once per
/// process by actually requesting each feature on a throwaway 4-entry
/// ring (kernel version checks lie under seccomp/container policies;
/// asking the kernel does not).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UringCaps {
    /// `IORING_SETUP_DEFER_TASKRUN | IORING_SETUP_COOP_TASKRUN`
    /// (composed with SINGLE_ISSUER) was granted.
    pub defer_taskrun: bool,
    /// `IORING_REGISTER_RING_FDS` succeeded (registered-ring-fd enters).
    pub registered_ring_fds: bool,
    /// Provided buffer rings are *functional*: `IORING_REGISTER_PBUF_RING`
    /// succeeded AND a real `IOSQE_BUFFER_SELECT` read completed with
    /// `IORING_CQE_F_BUFFER` set and the payload in the selected buffer.
    /// (Some sandbox kernels accept the registration but silently ignore
    /// buffer selection, turning every select read into an `EFAULT` read
    /// from address zero — registration success alone proves nothing.)
    pub buf_ring: bool,
    /// `IORING_OP_READ` is implemented per `IORING_REGISTER_PROBE` (the
    /// whole ladder reads through this opcode).
    pub read_op: bool,
    /// Raw `io_uring_params.features` bits reported at setup.
    pub features: u32,
}

/// Probes the ring-mode ladder capabilities (cached after the first call).
/// All-false when io_uring itself is unavailable.
pub fn uring_caps() -> UringCaps {
    static CAPS: OnceLock<UringCaps> = OnceLock::new();
    *CAPS.get_or_init(|| {
        let mut caps = UringCaps::default();
        if !uring_available() {
            return caps;
        }
        caps.features = Ring::probe_features().unwrap_or(0);
        // DEFER_TASKRUN: request the full flag group without the builder's
        // fallback ladder masking a refusal.
        caps.defer_taskrun = Ring::with_setup_flags(
            4,
            sys::IORING_SETUP_SINGLE_ISSUER
                | sys::IORING_SETUP_COOP_TASKRUN
                | sys::IORING_SETUP_DEFER_TASKRUN,
        )
        .is_ok();
        // Registered ring fds + pbuf rings: exercise the registrations on a
        // live throwaway ring and check what actually stuck.
        if let Ok(mut ring) = RingBuilder::new()
            .entries(4)
            .register_ring_fd(true)
            .buf_ring(2, 4096)
            .build()
        {
            caps.read_op = ring.probe_op_supported(sys::IORING_OP_READ);
            // Ring-fd registration happens at arm time (first enter).
            if ring.prepare_nop(0).is_ok() && ring.submit_and_wait(1).is_ok() {
                caps.registered_ring_fds = ring.setup_info().ring_fd_registered;
            }
            caps.buf_ring = ring.buf_ring_active() && buf_select_roundtrip(&mut ring);
        }
        caps
    })
}

/// Performs one real `IOSQE_BUFFER_SELECT` read on `ring` and verifies the
/// kernel actually honored the selection: `IORING_CQE_F_BUFFER` set, the
/// payload delivered into the *selected* arena buffer. Returns `false` on
/// any deviation, which is how lying sandbox kernels are caught.
fn buf_select_roundtrip(ring: &mut Ring) -> bool {
    use std::os::unix::io::AsRawFd;
    const PATTERN: &[u8; 16] = b"ringsampler-pbuf";
    let path = std::env::temp_dir().join(format!("rs-io-capprobe-{}", std::process::id()));
    let ok = (|| -> Option<bool> {
        std::fs::write(&path, PATTERN).ok()?;
        let f = std::fs::File::open(&path).ok()?;
        // ringlint: allow(swallowed-ring-error) — `.ok()?` maps failure to probe-negative; a kernel that rejects BUFFER_SELECT SQEs is exactly what this probe reports
        ring.prepare_read_select(f.as_raw_fd(), false, PATTERN.len() as u32, 0, u64::MAX)
            .ok()?;
        // ringlint: allow(swallowed-ring-error) — `.ok()?` converts failure into a probe-negative return; a refusing kernel is the expected outcome this probe exists to detect
        ring.submit_and_wait(1).ok()?;
        // ringlint: allow(swallowed-ring-error) — same probe-negative conversion: any error here means BUFFER_SELECT is not usable, which is the answer
        let c = ring.wait_completion().ok()?;
        if c.user_data != u64::MAX
            || c.result != PATTERN.len() as i32
            || c.flags & sys::IORING_CQE_F_BUFFER == 0
        {
            return Some(false);
        }
        let bid = (c.flags >> sys::IORING_CQE_BUFFER_SHIFT) as u16;
        let mut out = [0u8; 16];
        let n = ring.buf_ring_copy(bid, out.len(), &mut out);
        ring.buf_ring_recycle(bid);
        Some(n == PATTERN.len() && out == *PATTERN)
    })()
    .unwrap_or(false);
    std::fs::remove_file(&path).ok();
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
            // (5.6+) if the probe register op works; don't assert the
            // ladder features — they are genuinely kernel-dependent.
            assert!(a.features != 0 || !a.read_op);
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
