#![warn(missing_docs)]
//! Disk substrate for the IR²-Tree reproduction.
//!
//! The paper's evaluation (Section VI) is entirely I/O-centric: all four
//! index structures (R-Tree, IR²-Tree, MIR²-Tree, inverted index) and the
//! object file are *disk resident*, block size is 4096 bytes, and the
//! figures report **random** vs **sequential** disk block accesses, with
//! execution time "primarily proportional to the random access numbers".
//! This crate provides exactly that substrate:
//!
//! * [`BlockDevice`] — the 4096-byte block abstraction, with a volatile
//!   in-memory implementation ([`MemDevice`]) for deterministic experiments
//!   and a durable file-backed one ([`FileDevice`]).
//! * [`TrackedDevice`] — a transparent wrapper that classifies each block
//!   access as sequential (block id = previously accessed id + 1) or random
//!   and accumulates them in a shared [`IoStats`].
//! * [`CostModel`] — converts an I/O count delta into simulated disk time,
//!   calibrated by default to the paper's hardware class (a 10 000 RPM
//!   drive, circa 2004).
//! * [`BufferPool`] — an LRU block cache layered over any device: a
//!   [`BlockDevice`] face on a [`DecodedCache`] of raw blocks. The paper
//!   runs uncached, so experiments use capacity 0 (a pass-through), and the
//!   buffer-pool ablation (`A2` in `DESIGN.md`) sweeps the capacity.
//! * [`extent`] — multi-block node I/O (IR²/MIR² nodes "occupy two or more
//!   disk blocks"; reading one costs 1 random + (n−1) sequential accesses).
//! * [`RecordFile`] — the append-only record store used as the paper's
//!   "plain text file" of objects that leaf entries point into.
//! * [`MetricsRegistry`] — lock-free named counters/histograms with
//!   snapshot/delta and Prometheus-style export, generalizing the
//!   [`IoStats`]/[`IoScope`] accounting for the layers above.
//! * [`RetryDevice`] — transparent retries with jittered exponential
//!   backoff for transient faults ([`StorageError::is_transient`]) and a
//!   per-block circuit breaker that quarantines persistently failing
//!   blocks ([`StorageError::Quarantined`]).
//! * [`DecodedCache`] — the crate's one sharded LRU, keyed by [`BlockId`]:
//!   of *decoded* nodes above the page layer (warm node visits skip
//!   checksum verification and deserialization), and of raw blocks inside
//!   [`BufferPool`]. A commit invalidates exactly the keys it wrote; a read
//!   that began before an invalidation cannot install what it read after
//!   it.

mod cost;
mod decoded;
mod device;
mod error;
pub mod extent;
pub mod metrics;
pub mod page;
mod pool;
mod records;
mod retry;
mod shadow;
pub mod testing;
mod tracking;

pub use cost::CostModel;
pub use decoded::{DecodedCache, DEFAULT_DECODED_SHARDS};
pub use device::{copy_blocks, diff_blocks, BlockDevice, FileDevice, MemDevice};
pub use error::{IoOp, Result, StorageError};
pub use metrics::{
    ratio, Counter, Histogram, HistogramSummary, MetricValue, MetricsRegistry, MetricsSnapshot,
};
pub use page::{PAGE_PAYLOAD, PAGE_TRAILER_LEN, PAGE_VERSION};
pub use pool::{BufferPool, DEFAULT_POOL_SHARDS};
pub use records::{RecordFile, RecordPtr, RECORD_HEADER_LEN};
pub use retry::{RetryDevice, RetryPolicy, RetryScope, RetryStats};
pub use shadow::ShadowPair;
pub use tracking::{IoScope, IoSnapshot, IoStats, ScopedIo, TrackedDevice};

/// Disk block size in bytes.
///
/// The paper states "the disk block size is 4,096 KB", an evident typo for
/// 4096 *bytes*: a 113-entry R-Tree node only fits a 4 KiB block.
pub const BLOCK_SIZE: usize = 4096;

/// Identifier of a disk block: its ordinal position on the device.
pub type BlockId = u64;

/// A freshly zeroed block-sized buffer.
#[inline]
pub fn zeroed_block() -> Box<[u8; BLOCK_SIZE]> {
    // `vec!` avoids a large stack temporary.
    vec![0u8; BLOCK_SIZE]
        .into_boxed_slice()
        .try_into()
        .expect("exact length")
}
