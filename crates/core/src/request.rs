//! The one top-k request both engines execute.

use std::fmt;
use std::sync::Arc;
use std::time::Duration;

use ir2_model::{normalize_keywords, DistanceFirstQuery, QueryLimits, QueryRegion};
use ir2_storage::{Result, StorageError};
use ir2_text::{IrScorer, RankingFn};

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

/// What a top-k request ranks its results by.
#[derive(Clone, Default)]
pub enum Ranking {
    /// The paper's distance-first query (`IR2TopK`): the `k` objects
    /// nearest the region that contain every keyword, by ascending
    /// distance.
    #[default]
    Distance,
    /// The general query of Section 5.3: objects with a positive IR score
    /// for the keywords, by descending `rank.combine(distance, IRscore)`,
    /// where `scorer` computes the IR score from the database's term
    /// statistics.
    Scored {
        /// `IRscore(T.t, Q.t)` and its signature-derived upper bound.
        scorer: Arc<dyn IrScorer>,
        /// `f(distance, IRscore)`, decreasing in distance and increasing
        /// in IR score.
        rank: Arc<dyn RankingFn>,
    },
}

impl fmt::Debug for Ranking {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Ranking::Distance => "Distance",
            Ranking::Scored { .. } => "Scored",
        })
    }
}

/// A top-k spatial keyword request — the paper's distance-first query
/// (`IR2TopK`: the `k` objects nearest the query point containing all the
/// keywords) or, by its [`ranking`](Self::ranking), its general query —
/// with every way this workspace can vary its execution carried as a
/// field. [`SpatialKeywordDb`](crate::SpatialKeywordDb) and
/// [`ShardedDb`](crate::ShardedDb) both answer it through `run` (one
/// request) and `run_batch` (many, concurrently and fault-isolated).
///
/// Six requests are refused with [`StorageError::Unsupported`] before
/// anything is read: a region with a NaN or infinite coordinate (every
/// distance from it would be meaningless), an [`Area`](QueryRegion::Area)
/// region on an algorithm without signatures (the plain NN iterator and
/// the inverted index are point-anchored), a [`Scored`](Ranking::Scored)
/// ranking on an algorithm without signatures (its bounds come from them)
/// or on a sharded engine (each shard's vocabulary keeps its own document
/// frequencies, so the shards' scores do not compare), a `Parallel` or
/// `Hedged` gather under limits, and a `Hedged` gather on a monolithic
/// engine.
#[derive(Debug, Clone)]
pub struct TopkRequest {
    /// Which access method answers.
    pub alg: Algorithm,
    /// What distances are measured from: the query point or — the paper's
    /// "an area could be used instead" — a rectangle, whose inside is at
    /// distance zero.
    pub region: QueryRegion<2>,
    /// Keywords every result must contain (under the `Scored` ranking: the
    /// terms the IR score counts), normalized as
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
    /// What the results are ranked by. A report's result carries its
    /// distance under `Distance`, its combined score under `Scored`.
    pub ranking: Ranking,
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
            ranking: Ranking::Distance,
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
            ranking: Ranking::Distance,
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

    /// This request ranked by `rank.combine(distance, IRscore)`, with
    /// `scorer` computing the IR score — the general query of Section 5.3.
    pub fn ranked(
        mut self,
        scorer: impl IrScorer + 'static,
        rank: impl RankingFn + 'static,
    ) -> Self {
        self.ranking = Ranking::Scored {
            scorer: Arc::new(scorer),
            rank: Arc::new(rank),
        };
        self
    }

    /// The rules of the type docs, checked by every engine before it
    /// touches a device.
    pub(crate) fn check(&self, sharded: bool) -> Result<()> {
        let refuse = |msg: &str| Err(StorageError::Unsupported(msg.into()));
        // Every distance from a NaN or infinite coordinate (or every
        // containment test against it) would ignore the bad coordinate.
        let finite = match self.region {
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
        if let Ranking::Scored { .. } = self.ranking {
            if !on_signature_tree {
                return Err(needs_signature_tree("ranked queries", self.alg));
            }
            if sharded {
                return refuse(
                    "ranked queries are not supported on a sharded database: each shard's \
                     vocabulary keeps its own document frequencies, so per-shard scores do \
                     not compare",
                );
            }
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
