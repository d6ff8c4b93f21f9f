#![warn(missing_docs)]
//! Signature files: the superimposed-coding substrate of the IR²-Tree.
//!
//! Faloutsos and Christodoulakis \[FC84\] introduced *signature files* as a
//! text access method: each word hashes to a fixed number of bit positions
//! in a fixed-length bit vector; a document's signature is the bitwise OR
//! (superimposition) of its words' signatures. A query word *may* occur in
//! a document iff the document signature contains the word's bits — a test
//! with false positives but no false negatives.
//!
//! The IR²-Tree stores such a signature in every tree entry and superimposes
//! children's signatures into parents, so a single containment test can
//! prune an entire subtree during nearest-neighbor traversal.
//!
//! This crate provides:
//!
//! * [`Signature`] — the bit vector with superimposition and containment;
//! * [`SignatureScheme`] — term hashing plus the optimal-length design
//!   rules ([`optimal_bits`], [`optimal_params`], the paper's \[MC94\]
//!   citation) and the analytic false-positive model
//!   ([`expected_false_positive`]);
//! * [`MultiLevelScheme`] — per-level lengths for the MIR²-Tree
//!   (multi-level superimposed coding [CS89, DR83]);
//! * [`SignatureBlock`] — a node's signatures bit-sliced (one bitmap over
//!   the entries per signature bit, built by 64×64 bit-matrix transposes),
//!   whose one bit-exact containment kernel
//!   ([`SignatureBlock::matches_mask_into`]) ANDs the bitmaps of the bits
//!   the query sets; and [`payloads_mask_into`] / [`payload_contains`],
//!   which give the same verdicts from the page bytes with nothing built,
//!   for a node that is read once. [`Signature::contains`] is the scalar
//!   reference the tests pin every kernel to.

mod block;
mod multilevel;
mod scheme;
mod signature;

pub use block::{kernel_contains, payload_contains, payloads_mask_into, EntryMask, SignatureBlock};
pub use multilevel::MultiLevelScheme;
pub use scheme::{expected_false_positive, optimal_bits, optimal_params, SignatureScheme};
pub use signature::Signature;
