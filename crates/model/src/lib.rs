#![warn(missing_docs)]
//! Object model: the paper's spatial objects and the disk file they live in.
//!
//! Section 2: "a (spatial) object T is defined as a pair (T.p, T.t), where
//! T.p is a location descriptor in the multidimensional space, and T.t is a
//! text document". [`SpatialObject`] is that pair plus an application id.
//!
//! Section 6: "the spatial objects are stored in a plain text file and the
//! leaf nodes of the tree data structures store pointers to the object
//! locations in the file". [`ObjectStore`] is that file — a record file on
//! its own block device — and [`ObjPtr`] the pointer stored in leaf
//! entries. Loading an object costs real (tracked) block accesses, which is
//! how "average # disk blocks per object" (Table 1) and the object-access
//! counts of Figures 11/14 arise.
//!
//! [`ObjectSource`] abstracts "something that can load objects by pointer";
//! the query algorithms and the MIR²-Tree's signature recomputation depend
//! on it rather than on the concrete store, and it additionally counts
//! object loads (the paper's object-access metric).
//!
//! [`TopK`] is the one bounded top-k of the engines that meet their
//! candidates out of distance order (IIO, the signature file, the grid and
//! the sharded merge).

mod limits;
mod object;
mod query;
mod region;
mod store;
mod topk;
pub mod tsv;

pub use limits::{ExecOutcome, QueryLimits, TruncateReason};
pub use object::SpatialObject;
pub use query::{normalize_keywords, DistanceFirstQuery};
pub use region::QueryRegion;
pub use store::{ObjectSource, ObjectStore};
pub use topk::TopK;

/// Pointer to an object in the object file — the paper's `ObjPtr`.
pub use ir2_storage::RecordPtr as ObjPtr;
