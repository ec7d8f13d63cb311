//! # ringsampler-io
//!
//! From-scratch io_uring interface and portable asynchronous read engines,
//! built for the RingSampler GNN sampling system (HotStorage '25).
//!
//! The crate has three layers:
//!
//! 1. [`sys`] — the raw kernel ABI (syscall numbers, SQE/CQE layouts).
//! 2. [`ring`] — a safe single-threaded [`Ring`] owning the
//!    mmap'd submission/completion queues, with userspace completion
//!    polling (the paper's "completion polling mode").
//! 3. [`engine`] — the [`GroupReader`] abstraction the
//!    sampler pipelines against: batched scattered reads submitted as I/O
//!    groups, with an io_uring implementation and a `pread` fallback.
//!
//! ## Example
//!
//! ```rust
//! # use std::error::Error;
//! # fn main() -> Result<(), Box<dyn Error>> {
//! use ringsampler_io::engine::{GroupReader, ReadSlice, UringReader, read_group_blocking};
//!
//! let path = std::env::temp_dir().join("ringsampler-io-doc");
//! std::fs::write(&path, (0u32..100).flat_map(u32::to_le_bytes).collect::<Vec<_>>())?;
//!
//! // Read entries 3 and 40 of the u32 array with one submission.
//! let mut reader = UringReader::open(&path, 16)?;
//! let reqs = [ReadSlice::new(3 * 4, 4), ReadSlice::new(40 * 4, 4)];
//! let buf = read_group_blocking(&mut reader, &reqs, Vec::new())?;
//! assert_eq!(u32::from_le_bytes(buf[0..4].try_into()?), 3);
//! assert_eq!(u32::from_le_bytes(buf[4..8].try_into()?), 40);
//! # std::fs::remove_file(&path).ok();
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]
#![cfg_attr(not(test), deny(clippy::let_underscore_must_use, clippy::unused_result_ok))]

pub mod engine;
pub mod error;
pub mod mmap;
pub mod probe;
pub mod ring;
pub mod sys;

pub use engine::{GroupReader, PreadReader, ReadSlice, ReaderStats, UringReader};
pub use error::{IoEngineError, Result};
pub use probe::{default_engine, open_reader, uring_available, uring_caps, EngineKind, UringCaps};
pub use ring::{Completion, Ring};

/// A temp-file path no other fixture of this test process shares: `cargo
/// test` runs tests on parallel threads, and each removes its file when done.
#[cfg(test)]
pub(crate) fn test_path(tag: &str) -> std::path::PathBuf {
    static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let id = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    std::env::temp_dir().join(format!("rs-io-{tag}-{}-{id}", std::process::id()))
}
