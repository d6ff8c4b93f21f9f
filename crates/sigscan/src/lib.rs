#![warn(missing_docs)]
//! The Sequential Signature File (SSF) — the ancestor of the IR²-Tree's
//! text filter, as a standalone baseline.
//!
//! Faloutsos and Christodoulakis \[FC84\] introduced signature files as a
//! *sequential* access method: all document signatures are stored back to
//! back; a query scans every signature (pure sequential I/O, a fraction of
//! the documents' size), collects the documents whose signatures contain
//! the query signature, and verifies those candidates against the actual
//! text (random I/O).
//!
//! The IR²-Tree is what you get when these signatures are *superimposed up
//! an R-Tree* instead of scanned linearly. Keeping the flat variant around
//! makes the lineage measurable: the SSF touches `O(n)` sequential blocks
//! per query regardless of selectivity or spatial locality, while the tree
//! reads a logarithmic frontier — but the SSF's accesses are all
//! sequential, which a spinning disk forgives. The spatial keyword variant
//! here ([`SignatureFile::topk`]) verifies candidates, computes distances,
//! and returns the k nearest — a third baseline alongside the paper's
//! R-Tree and IIO.

mod ssf;

pub use ssf::{SignatureFile, SsfCounters};
