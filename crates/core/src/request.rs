//! The one distance-first request both engines execute.

use std::time::Duration;

use ir2_model::{normalize_keywords, DistanceFirstQuery, QueryLimits, QueryRegion};
use ir2_storage::{Result, StorageError};

use crate::Algorithm;

/// How a [`ShardedDb`](crate::ShardedDb) gathers its shards' frontiers.
/// A [`SpatialKeywordDb`](crate::SpatialKeywordDb) has one frontier, so
/// there `Parallel` runs exactly like `Sequential`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Gather {
    /// The exact sequential merge: one thread always steps the shard with
    /// the smallest bound. The only gather that runs under
    /// [`QueryLimits`], because its schedule makes truncation
    /// deterministic.
    #[default]
    Sequential,
    /// Up to this many workers drain shard frontiers concurrently under a
    /// shared branch-and-bound threshold. Same answer as `Sequential`; the
    /// point is single-query latency when shards sit on independent
    /// devices.
    Parallel(usize),
    /// One worker per shard, and any shard pull still running after this
    /// delay is raced by a second replica; the first complete drain wins.
    /// Same answer as `Sequential`; the point is tail latency under
    /// stalls. Needs a sharded engine (single-replica shards drain
    /// unhedged).
    Hedged(Duration),
}

/// A distance-first top-k spatial keyword request — the paper's query
/// (`IR2TopK`: the `k` objects nearest the query point containing all the
/// keywords) with every way this workspace can vary its execution carried
/// as a field. [`SpatialKeywordDb`](crate::SpatialKeywordDb) and
/// [`ShardedDb`](crate::ShardedDb) both answer it through `run` (one
/// request) and `run_batch` (many, concurrently and fault-isolated).
///
/// Four requests are refused with [`StorageError::Unsupported`] before
/// anything is read: a region with a NaN or infinite coordinate (every
/// distance from it would be meaningless), an [`Area`](QueryRegion::Area)
/// region on an algorithm without signatures (the plain NN iterator and
/// the inverted index are point-anchored), a `Parallel` or `Hedged` gather
/// under limits, and a `Hedged` gather on a monolithic engine.
#[derive(Debug, Clone)]
pub struct TopkRequest {
    /// Which access method answers.
    pub alg: Algorithm,
    /// What distances are measured from: the query point or — the paper's
    /// "an area could be used instead" — a rectangle, whose inside is at
    /// distance zero.
    pub region: QueryRegion<2>,
    /// Keywords every result must contain, normalized as
    /// [`normalize_keywords`] leaves them ([`new`](Self::new) does it).
    pub keywords: Vec<String>,
    /// Number of results wanted.
    pub k: usize,
    /// Deadline, I/O budget and frontier cap, checked between traversal
    /// steps. A tripped limit is not an error: the report's
    /// [`outcome`](crate::QueryReport::outcome) names it and the results
    /// are the exact top-m prefix of the full answer (empty for IIO, which
    /// is not incremental and degrades all-or-nothing).
    pub limits: QueryLimits,
    /// How a sharded engine gathers.
    pub gather: Gather,
}

impl TopkRequest {
    /// An unlimited, sequentially gathered request.
    pub fn new<W: AsRef<str>>(
        alg: Algorithm,
        region: impl Into<QueryRegion<2>>,
        keywords: &[W],
        k: usize,
    ) -> Self {
        Self {
            alg,
            region: region.into(),
            keywords: normalize_keywords(keywords),
            k,
            limits: QueryLimits::none(),
            gather: Gather::Sequential,
        }
    }

    /// The request a [`DistanceFirstQuery`] stands for (its keywords are
    /// already normalized).
    pub fn from_query(alg: Algorithm, query: &DistanceFirstQuery<2>) -> Self {
        Self {
            alg,
            region: query.point.into(),
            keywords: query.keywords.clone(),
            k: query.k,
            limits: QueryLimits::none(),
            gather: Gather::Sequential,
        }
    }

    /// This request under `limits`.
    pub fn limited(mut self, limits: QueryLimits) -> Self {
        self.limits = limits;
        self
    }

    /// This request gathered as `gather` says.
    pub fn gathered(mut self, gather: Gather) -> Self {
        self.gather = gather;
        self
    }

    /// The rules of the type docs, checked by every engine before it
    /// touches a device.
    pub(crate) fn check(&self, sharded: bool) -> Result<()> {
        let refuse = |msg: &str| Err(StorageError::Unsupported(msg.into()));
        let finite = match &self.region {
            QueryRegion::Point(p) => p.is_finite(),
            QueryRegion::Area(a) => a.is_finite(),
        };
        if !finite {
            return refuse("the query point or area has a non-finite coordinate");
        }
        let on_signature_tree = matches!(self.alg, Algorithm::Ir2 | Algorithm::Mir2);
        if matches!(self.region, QueryRegion::Area(_)) && !on_signature_tree {
            return Err(needs_signature_tree("region queries", self.alg));
        }
        match self.gather {
            Gather::Sequential => Ok(()),
            Gather::Hedged(_) if !sharded => refuse("a hedged gather needs a sharded database"),
            _ if !self.limits.is_unlimited() => refuse(
                "parallel and hedged gathers run unlimited; execution limits need the \
                 sequential gather, whose schedule makes truncation deterministic",
            ),
            _ => Ok(()),
        }
    }
}

pub(crate) fn needs_signature_tree(what: &str, alg: Algorithm) -> StorageError {
    StorageError::Unsupported(format!(
        "{what} are implemented on the signature trees, not {}",
        alg.label()
    ))
}
