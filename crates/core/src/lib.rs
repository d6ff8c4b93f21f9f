#![warn(missing_docs)]
//! # ir2tree — Keyword Search on Spatial Databases
//!
//! A complete Rust implementation of *"Keyword Search on Spatial
//! Databases"* (De Felipe, Hristidis, Rishe — ICDE 2008): the **IR²-Tree**
//! and **MIR²-Tree** indexes, the incremental top-k spatial keyword query
//! algorithms, both baselines the paper compares against (plain R-Tree and
//! Inverted-Index-Only), and the disk simulation its evaluation is
//! expressed in (4 KiB blocks, random vs. sequential access counting).
//!
//! ## Quick start
//!
//! ```
//! use ir2tree::{Algorithm, DbConfig, DeviceSet, SpatialKeywordDb};
//! use ir2tree::model::{DistanceFirstQuery, SpatialObject};
//!
//! // Three points of interest.
//! let objects = vec![
//!     SpatialObject::new(1, [25.4, -80.1], "coffee wifi patio"),
//!     SpatialObject::new(2, [25.5, -80.2], "coffee drive through"),
//!     SpatialObject::new(3, [25.6, -80.0], "tapas bar wifi"),
//! ];
//! let db = SpatialKeywordDb::build(DeviceSet::in_memory(), objects, DbConfig::default())
//!     .unwrap();
//!
//! // Nearest object to (25.45, -80.15) containing both keywords:
//! let q = DistanceFirstQuery::new([25.45, -80.15], &["coffee", "wifi"], 1);
//! let report = db.distance_first(Algorithm::Ir2, &q).unwrap();
//! assert_eq!(report.results[0].0.id, 1);
//! // Every query reports its simulated disk I/O:
//! assert!(report.io.total() > 0);
//! ```
//!
//! The facade [`SpatialKeywordDb`] builds all four structures over one
//! object file so any query can be answered by any algorithm and their
//! I/O compared — exactly the paper's experimental setup.
//!
//! ## One request, two methods
//!
//! `distance_first` above is shorthand. A distance-first query is one
//! value, [`TopkRequest`] — algorithm, point *or area* to measure from,
//! keywords, `k`, execution [`QueryLimits`], and how a sharded engine
//! should [`Gather`] — and both engines, [`SpatialKeywordDb`] and the
//! sharded, replicated [`ShardedDb`], answer it through the same two
//! methods: `run(&req)` for one request, `run_batch(&reqs, threads)` for
//! many at once, each failure confined to its own slot.
//!
//! ```
//! # use ir2tree::{Algorithm, DbConfig, DeviceSet, SpatialKeywordDb};
//! # use ir2tree::model::SpatialObject;
//! use ir2tree::geo::{Point, Rect};
//! use ir2tree::{QueryLimits, TopkRequest};
//! # let objects = vec![
//! #     SpatialObject::new(1, [25.4, -80.1], "coffee wifi patio"),
//! #     SpatialObject::new(2, [25.5, -80.2], "coffee drive through"),
//! # ];
//! # let db = SpatialKeywordDb::build(DeviceSet::in_memory(), objects, DbConfig::default())
//! #     .unwrap();
//! // Coffee in or nearest to a map window, reading at most 64 blocks:
//! let window = Rect::from_corners(Point::new([25.3, -80.3]), Point::new([25.45, -80.0]));
//! let req = TopkRequest::new(Algorithm::Ir2, window, &["coffee"], 5)
//!     .limited(QueryLimits::none().with_io_budget(64));
//! let report = db.run(&req).unwrap();
//! // Object 1 lies inside the window: distance zero.
//! assert_eq!((report.results[0].0.id, report.results[0].1), (1, 0.0));
//! assert!(report.outcome.is_none(), "64 blocks were plenty");
//! ```
//!
//! The underlying crates are re-exported for direct use ([`irtree`],
//! [`rtree`], [`invindex`], [`sigfile`], [`storage`], [`text`], [`geo`],
//! [`model`]).

mod config;
mod db;
mod report;
mod request;
pub mod scrub;
mod shard;

pub use config::DbConfig;
pub use db::{DeviceSet, IntegrityReport, SpatialKeywordDb, StructureCheck};
pub use report::{Algorithm, BuildStats, IndexSizes, QueryError, QueryReport};
pub use request::{Gather, Ranking, TopkRequest};
pub use scrub::{scrub_dir, ScrubReport, Scrubber};
pub use shard::{
    shard_layout, sharded_manifest, ReplicaSet, ShardLayout, ShardedDb, SHARD_MANIFEST,
};

pub use ir2_model::{ExecOutcome, QueryLimits, TruncateReason};
pub use ir2_storage::{RetryDevice, RetryPolicy};

pub use ir2_geo as geo;
pub use ir2_invindex as invindex;
pub use ir2_irtree as irtree;
pub use ir2_model as model;
pub use ir2_rtree as rtree;
pub use ir2_sigfile as sigfile;
pub use ir2_storage as storage;
pub use ir2_text as text;
