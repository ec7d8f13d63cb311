//! Error types for the I/O engine crate.

use std::fmt;
use std::io;

/// Errors produced by ring construction, submission, and completion.
#[derive(Debug)]
#[non_exhaustive]
pub enum IoEngineError {
    /// The kernel rejected an io_uring syscall (setup/enter/register/mmap).
    Ring {
        /// Which operation failed, for diagnostics.
        op: &'static str,
        /// The underlying OS error.
        source: io::Error,
    },
    /// The submission queue is full; submit and retry.
    SubmissionQueueFull,
    /// More requests were pushed into one group than the ring can hold.
    GroupTooLarge {
        /// Requested group size.
        requested: usize,
        /// Ring capacity.
        capacity: usize,
    },
    /// A read completed with fewer bytes than requested.
    ShortRead {
        /// File offset of the read.
        offset: u64,
        /// Bytes requested.
        expected: u32,
        /// Bytes returned (0 means EOF).
        got: i32,
    },
    /// A request completed with a kernel error.
    Completion {
        /// File offset of the failing request.
        offset: u64,
        /// The negated errno, converted.
        source: io::Error,
    },
    /// The kernel reported dropped SQEs (should not happen with our
    /// accounting; indicates a ring-state bug).
    Dropped(u32),
    /// A plain file I/O error outside the ring (fallback engine, opens).
    File(io::Error),
    /// A completion token (or CQE `user_data`) that this reader never
    /// issued, or that was already completed. Indicates an accounting bug
    /// surfaced as an error instead of a hot-path panic.
    InvalidToken(u64),
}

impl fmt::Display for IoEngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IoEngineError::Ring { op, source } => {
                write!(f, "io_uring {op} failed: {source}")
            }
            IoEngineError::SubmissionQueueFull => write!(f, "submission queue full"),
            IoEngineError::GroupTooLarge {
                requested,
                capacity,
            } => write!(
                f,
                "I/O group of {requested} requests exceeds ring capacity {capacity}"
            ),
            IoEngineError::ShortRead {
                offset,
                expected,
                got,
            } => write!(
                f,
                "short read at offset {offset}: expected {expected} bytes, got {got}"
            ),
            IoEngineError::Completion { offset, source } => {
                write!(f, "read at offset {offset} failed: {source}")
            }
            IoEngineError::Dropped(n) => write!(f, "kernel dropped {n} submission entries"),
            IoEngineError::File(e) => write!(f, "file I/O error: {e}"),
            IoEngineError::InvalidToken(ud) => {
                write!(f, "completion token {ud} does not belong to this reader")
            }
        }
    }
}

impl std::error::Error for IoEngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            IoEngineError::Ring { source, .. }
            | IoEngineError::Completion { source, .. }
            | IoEngineError::File(source) => Some(source),
            _ => None,
        }
    }
}

impl From<io::Error> for IoEngineError {
    fn from(e: io::Error) -> Self {
        IoEngineError::File(e)
    }
}

/// Convenience alias used across the crate.
pub type Result<T> = std::result::Result<T, IoEngineError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_informative() {
        let e = IoEngineError::ShortRead {
            offset: 128,
            expected: 4,
            got: 0,
        };
        let s = e.to_string();
        assert!(s.contains("short read"));
        assert!(s.contains("128"));

        let e = IoEngineError::GroupTooLarge {
            requested: 1000,
            capacity: 512,
        };
        assert!(e.to_string().contains("1000"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<IoEngineError>();
    }

    #[test]
    fn source_chains() {
        use std::error::Error;
        let e = IoEngineError::Ring {
            op: "setup",
            source: io::Error::from_raw_os_error(libc::ENOSYS),
        };
        assert!(e.source().is_some());
        let e = IoEngineError::SubmissionQueueFull;
        assert!(e.source().is_none());
    }
}
