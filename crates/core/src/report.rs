//! Query reports: results plus the measurements the paper's figures plot.

use std::fmt;
use std::time::Duration;

use ir2_irtree::SearchCounters;
use ir2_model::{SpatialObject, TruncateReason};
use ir2_storage::{IoSnapshot, StorageError};

/// Which access method answers a query — the four contenders of Section 6.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// Plain R-Tree + post-filter (baseline 1).
    RTree,
    /// Inverted Index Only (baseline 2).
    Iio,
    /// The IR²-Tree.
    Ir2,
    /// The MIR²-Tree.
    Mir2,
}

impl Algorithm {
    /// All four, in the paper's presentation order.
    pub const ALL: [Algorithm; 4] = [
        Algorithm::RTree,
        Algorithm::Iio,
        Algorithm::Ir2,
        Algorithm::Mir2,
    ];

    /// Display label matching the paper's figures.
    pub fn label(&self) -> &'static str {
        match self {
            Algorithm::RTree => "R-Tree",
            Algorithm::Iio => "IIO",
            Algorithm::Ir2 => "IR2-Tree",
            Algorithm::Mir2 => "MIR2-Tree",
        }
    }

    /// Short lowercase identifier, used as the `alg` label value in
    /// metrics and as the CLI's `--alg` argument.
    pub fn key(&self) -> &'static str {
        match self {
            Algorithm::RTree => "rtree",
            Algorithm::Iio => "iio",
            Algorithm::Ir2 => "ir2",
            Algorithm::Mir2 => "mir2",
        }
    }
}

/// The outcome of one top-k query: results plus every metric the paper's
/// evaluation reports.
#[derive(Debug, Clone)]
pub struct QueryReport {
    /// `(object, distance)` in ascending distance — or, for a request
    /// ranked by score ([`Ranking::Scored`](crate::Ranking::Scored)),
    /// `(object, combined score)` in descending score. Ties are by
    /// ascending id either way.
    pub results: Vec<(SpatialObject<2>, f64)>,
    /// Block accesses on the index structure used.
    pub index_io: IoSnapshot,
    /// Block accesses on the object file.
    pub object_io: IoSnapshot,
    /// Combined block accesses (what Figures 9b/12b plot).
    pub io: IoSnapshot,
    /// Objects loaded (Figures 11b/14b plot object accesses).
    pub object_loads: u64,
    /// Everything the search counted: nodes read (and how many the node
    /// cache served), entries scanned, the largest frontier, signature
    /// tests and matches per tree level, candidates checked and the false
    /// positives among them. The search keeps them as it works, so every
    /// report carries them, however it was run: `run`, `run_batch` and
    /// `run_traced` on either engine. A [`ShardedDb`](crate::ShardedDb)
    /// report adds up every shard's and every failed-over attempt's counts
    /// (`max_heap` is the largest of theirs). The R-Tree baseline tests no
    /// signature, so its `per_level` is empty; IIO traverses no tree and
    /// leaves every count at zero.
    pub counters: SearchCounters,
    /// Simulated disk time under the configured cost model — the
    /// hardware-independent stand-in for the paper's execution time.
    pub simulated: Duration,
    /// Wall-clock time of the in-memory run (CPU-bound component).
    pub wall: Duration,
    /// `None` when the query ran to completion; otherwise the execution
    /// limit that truncated it. A truncated report's `results` are still
    /// the exact top-m prefix of the full answer (empty for IIO, which
    /// degrades all-or-nothing).
    pub outcome: Option<TruncateReason>,
    /// Transient device faults absorbed by retry while this query ran
    /// (counted in the same [`IoScope`](ir2_storage::IoScope)s as the I/O;
    /// 0 when the devices have no retry layer).
    pub retries: u64,
    /// Total time the query spent sleeping in retry backoff.
    pub backoff: Duration,
}

/// Why one request of a
/// [`run_batch`](crate::SpatialKeywordDb::run_batch) failed. Failures are
/// per-request: siblings in the batch are unaffected.
#[derive(Debug)]
pub enum QueryError {
    /// The storage layer returned an error retries could not absorb.
    Storage(StorageError),
    /// The query panicked; carries the panic payload's message.
    Panic(String),
}

impl QueryError {
    /// `"storage"` or `"panic"` — the `kind` label of the engines'
    /// failure counters.
    pub fn kind(&self) -> &'static str {
        match self {
            QueryError::Storage(_) => "storage",
            QueryError::Panic(_) => "panic",
        }
    }
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::Storage(e) => write!(f, "storage error: {e}"),
            QueryError::Panic(msg) => write!(f, "query panicked: {msg}"),
        }
    }
}

impl std::error::Error for QueryError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            QueryError::Storage(e) => Some(e),
            QueryError::Panic(_) => None,
        }
    }
}

impl From<StorageError> for QueryError {
    fn from(e: StorageError) -> Self {
        QueryError::Storage(e)
    }
}

/// Sizes of every structure in bytes — the reproduction of Table 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndexSizes {
    /// Inverted index (postings + dictionary).
    pub iio: u64,
    /// Plain R-Tree.
    pub rtree: u64,
    /// IR²-Tree.
    pub ir2: u64,
    /// MIR²-Tree.
    pub mir2: u64,
    /// The object file itself (Table 1's dataset size).
    pub objects: u64,
}

impl IndexSizes {
    /// Formats a size in MB with one decimal, as the paper's tables do.
    pub fn mb(bytes: u64) -> f64 {
        bytes as f64 / 1_048_576.0
    }
}

/// Statistics recorded while building the database — the reproduction of
/// Table 1's columns.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BuildStats {
    /// Total number of objects.
    pub objects: u64,
    /// Average distinct words per object.
    pub avg_unique_words: f64,
    /// Vocabulary size.
    pub unique_words: u64,
    /// Object file bytes.
    pub object_file_bytes: u64,
    /// Average disk blocks spanned per object record.
    pub avg_blocks_per_object: f64,
    /// Wall time spent building all four structures.
    pub build_time: Duration,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn algorithm_labels_match_the_paper() {
        assert_eq!(Algorithm::ALL.len(), 4);
        let labels: Vec<&str> = Algorithm::ALL.iter().map(|a| a.label()).collect();
        assert_eq!(labels, ["R-Tree", "IIO", "IR2-Tree", "MIR2-Tree"]);
    }

    #[test]
    fn megabyte_conversion() {
        assert_eq!(IndexSizes::mb(0), 0.0);
        assert_eq!(IndexSizes::mb(1_048_576), 1.0);
        assert!((IndexSizes::mb(55_200_000) - 52.64).abs() < 0.01);
    }
}
