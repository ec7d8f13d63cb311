//! Error types for the RingSampler core.

use std::fmt;

use ringsampler_graph::GraphError;
use ringsampler_io::IoEngineError;

/// Errors produced by sampler configuration and execution.
#[derive(Debug)]
#[non_exhaustive]
pub enum SamplerError {
    /// I/O engine failure (ring setup, submission, completion).
    Io(IoEngineError),
    /// Graph storage failure.
    Graph(GraphError),
    /// The memory budget was exhausted — the reproduction's equivalent of
    /// the paper's cgroup OOM kill.
    OutOfMemory {
        /// Bytes the failing allocation requested.
        requested: u64,
        /// Bytes available under the budget at that moment.
        available: u64,
        /// What the allocation was for.
        what: &'static str,
    },
    /// Invalid configuration (empty fanouts, zero threads, ...).
    InvalidConfig(String),
    /// A worker thread panicked.
    WorkerPanic(String),
    /// An internal pipeline invariant was violated — an accounting bug
    /// reported as an error instead of a hot-path panic
    /// (the hot-path files deny `unwrap`, `expect`, `panic!` and indexing).
    Internal(&'static str),
}

impl fmt::Display for SamplerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SamplerError::Io(e) => write!(f, "i/o engine error: {e}"),
            SamplerError::Graph(e) => write!(f, "graph error: {e}"),
            SamplerError::OutOfMemory {
                requested,
                available,
                what,
            } => write!(
                f,
                "out of memory allocating {what}: requested {requested} bytes, {available} available"
            ),
            SamplerError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            SamplerError::WorkerPanic(msg) => write!(f, "worker thread panicked: {msg}"),
            SamplerError::Internal(msg) => write!(f, "internal invariant violated: {msg}"),
        }
    }
}

impl std::error::Error for SamplerError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SamplerError::Io(e) => Some(e),
            SamplerError::Graph(e) => Some(e),
            _ => None,
        }
    }
}

impl From<IoEngineError> for SamplerError {
    fn from(e: IoEngineError) -> Self {
        SamplerError::Io(e)
    }
}

impl From<GraphError> for SamplerError {
    fn from(e: GraphError) -> Self {
        SamplerError::Graph(e)
    }
}

/// Convenience alias used across the crate.
pub type Result<T> = std::result::Result<T, SamplerError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_oom() {
        let e = SamplerError::OutOfMemory {
            requested: 1024,
            available: 100,
            what: "neighbor cache",
        };
        let s = e.to_string();
        assert!(s.contains("1024") && s.contains("neighbor cache"));
    }

    #[test]
    fn is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SamplerError>();
    }

    #[test]
    fn source_chain() {
        use std::error::Error;
        let e: SamplerError = IoEngineError::SubmissionQueueFull.into();
        assert!(e.source().is_some());
        assert!(SamplerError::InvalidConfig("x".into()).source().is_none());
    }
}
