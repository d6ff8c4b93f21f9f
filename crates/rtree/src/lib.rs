#![warn(missing_docs)]
//! Disk-resident R-Tree \[Gut84\] with per-entry payload augmentation.
//!
//! This crate is both the paper's **R-Tree baseline** and the skeleton of
//! the **IR²-Tree**: Section 4 defines the IR²-Tree's Insert/Delete as
//! "modifications of the corresponding R-Tree operations" that additionally
//! maintain a signature per entry. We capture that with a single tree
//! generic over [`PayloadOps`] — a strategy describing the per-entry byte
//! payload (nothing for a plain R-Tree, fixed-length signatures for the
//! IR²-Tree, per-level signatures for the MIR²-Tree) and how payloads are
//! merged and summarized up the tree.
//!
//! Implemented faithfully to the paper's choices:
//!
//! * **ChooseLeaf / AdjustTree / quadratic split** — "we use the standard
//!   Quadratic Split technique \[Gut84\]"; AdjustTree also maintains payloads
//!   ("if a new bit is set to 1 in a node N, then it must also be set to 1
//!   for N's ancestors").
//! * **FindLeaf / CondenseTree** for deletion, with payload recomputation
//!   on shrink (bits cannot be unset incrementally).
//! * **Incremental nearest neighbor** \[HS99\] (Figure 3 of the paper) via a
//!   best-first priority queue on MINDIST — see [`RTree::nearest`].
//! * **Disk residency**: each node occupies a fixed extent of 4096-byte
//!   blocks on the tree's own [`BlockDevice`](ir2_storage::BlockDevice);
//!   node fanout is chosen so a *plain* R-Tree node fills one block, and
//!   payload-carrying nodes keep that fanout while spilling onto extra
//!   blocks read sequentially — exactly the paper's layout ("we allocate
//!   additional disk block(s) to an IR²-Tree node when needed").
//!
//! Additions beyond the paper, flagged in `DESIGN.md`: an STR bulk loader
//! ([`RTree::bulk_load`]) used to build large experimental trees quickly,
//! and an optional decoded-node cache ([`RTree::set_node_cache`]) that
//! serves warm traversals without re-verifying checksums or re-decoding
//! entries: each commit publishes an image table without the nodes it
//! wrote or freed, and a search reads every node from the table it took
//! when it opened ([`RTree::reader`]).

mod bulk;
mod cached;
mod config;
mod nn;
mod node;
mod payload;
mod search;
mod tree;

pub use cached::{CachedNode, NodeCache, NodeReader};
pub use config::{RTreeConfig, SplitStrategy};
pub use nn::{NnIter, NnResult};
pub use node::{NodeBuf, NodeId};
pub use payload::{PayloadOps, UnitPayload};
pub use search::TreeStats;
pub use tree::RTree;
