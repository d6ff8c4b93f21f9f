#![warn(missing_docs)]
//! The IR²-Tree and MIR²-Tree, and the algorithms that answer top-k
//! spatial keyword queries — the paper's contribution (Sections 4 and 5).
//!
//! An IR²-Tree "is a combination of an R-Tree and signature files": every
//! entry of the underlying [`RTree`](ir2_rtree::RTree) carries a signature;
//! a node's signature is the superimposition of its entries', so one
//! containment test prunes a whole subtree during incremental
//! nearest-neighbor traversal. This crate supplies:
//!
//! * [`Ir2Payload`] — uniform signature length at every level (the
//!   IR²-Tree), where parent signatures fold cheaply from children;
//! * [`MirPayload`] — per-level optimal lengths (the MIR²-Tree,
//!   "multi-level superimposed coding"), whose maintenance must re-access
//!   underlying objects across level boundaries — the trade-off Section 4
//!   discusses;
//! * object-level insert/delete/bulk-load helpers that tokenize documents
//!   and maintain signatures ([`insert_object`], [`delete_object`],
//!   [`bulk_load_objects`]);
//! * the **distance-first IR² algorithm** (Figure 8's `IR2TopK` /
//!   `IR2NearestNeighbor`) as an incremental iterator —
//!   [`DistanceFirstIter`] / [`distance_first_topk`];
//! * the **general IR² algorithm** (Section 5.3) ranking by
//!   `f(distance, IRscore)` with sound signature-derived upper bounds —
//!   the same iterator in a [`ScoreOrder`];
//! * the **R-Tree baseline** (Section 5.1) for comparison — the same
//!   iterator over a plain [`RTree`](ir2_rtree::RTree) with
//!   [`UnitPayload`](ir2_rtree::UnitPayload), whose [`EntryFilter`] admits
//!   every entry, so every candidate the NN order surfaces is loaded.
//!
//! Both query algorithms "can also operate on MIR²-Trees with no
//! modification" — they are generic over the payload via [`SigPayload`].
//!
//! # One query plan
//!
//! [`distance_first_topk`] is a shorthand. A search is configured in one
//! way only — on the iterator, each axis by one call:
//!
//! * **anchor**: [`DistanceFirstIter::new`] (a point query) or
//!   [`DistanceFirstIter::with_region`] (a point or an area);
//! * **order**: a [`SearchOrder`] — the two per-visit hooks of the one
//!   best-first loop: the node test with each admitted child's key, and
//!   the candidate check. [`DistanceOrder`] (the default) keys by MINDIST;
//!   [`ScoreOrder`], passed to [`DistanceFirstIter::with_order_sink`],
//!   keys by `−Upper(v)` and re-queues a loaded candidate at its negated
//!   score. Keys ascend either way, so everything below holds for both;
//! * **sink**: the `*_sink` constructors take a [`TraceSink`] that
//!   receives one [`TraceEvent`] per node visit and object fetch, and a
//!   visited node's signature tests in one
//!   [`record_tests`](TraceSink::record_tests) call; the default
//!   [`NopSink`] makes the untraced paths compile to the uninstrumented
//!   code;
//! * **limits**: `.limited(QueryLimits)` — a tripped limit stops the
//!   iterator with the exact top-m prefix emitted.
//!
//! The iterator implements [`BoundedSearch`] — `next_within`,
//! `frontier_bound`, `counters`, `truncation` — the stepping contract the
//! sharded merge pulls on, and [`collect_topk`] is the one k-collector
//! over it (canonical `(key, id)` ties: distance ascending, or score
//! descending; `Complete` or `Truncated`). Every combination of region ×
//! order × sink × limits is therefore the same code path,
//! property-tested cell by cell in `tests/props.rs`.
//!
//! # One signature form per node image
//!
//! Both algorithms test a visited node's entries in one call that fills
//! an [`EntryMask`](ir2_sigfile::EntryMask). What it reads depends on the
//! image the search's [`NodeReader`](ir2_rtree::NodeReader) handed over,
//! never on a setting: an image out of the tree's node cache holds the
//! node's signatures only as the bit-sliced
//! [`SignatureBlock`](ir2_sigfile::SignatureBlock) the payloads'
//! [`slice_payloads`](ir2_rtree::PayloadOps::slice_payloads) built when
//! the image was installed, and the visit ANDs a few of its columns; a
//! node read past the cache (a tree without one, or a miss a full cache
//! does not take) is handed over as the reader's page, and the entries are
//! tested where they lie with nothing built. The masks are equal bit for
//! bit.

mod diagnostics;
mod distance_first;
mod objects;
mod payloads;
mod search;
pub mod trace;

pub use diagnostics::{density_profile, LevelDensity};
pub use distance_first::{
    distance_first_topk, DistanceFirstIter, DistanceOrder, EntryFilter, ScoreOrder, SearchOrder,
};
pub use objects::{bulk_load_objects, delete_object, insert_object};
pub use payloads::{Ir2Payload, MirPayload, SigPayload};
pub use search::{collect_topk, BoundedSearch, BoundedStep, LimitedTopk};
pub use trace::{LevelPruning, NopSink, SearchCounters, TraceEvent, TraceSink, VecSink};
