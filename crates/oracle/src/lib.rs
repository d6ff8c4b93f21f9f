#![warn(missing_docs)]
//! Differential oracle harness for the spatial keyword engines.
//!
//! Every query path in the workspace — the facade's four algorithms over
//! cold, warm (node cache 64), flaky (fault-injected), and
//! incrementally mutated databases, the sharded scatter-gather merge at
//! several shard counts, the uniform grid, and the flat signature file —
//! claims to answer the same distance-first top-k query with the same
//! canonical `(distance, id)`-ordered result list. This crate checks
//! that claim mechanically:
//!
//! - [`mod@reference`] is a brute-force engine: a linear scan with an
//!   independent keyword matcher, sorted by the canonical order. It is
//!   the ground truth every engine is compared against, byte-for-byte
//!   (`f64::to_bits` on distances — every engine derives distances from
//!   the same per-axis accumulation, so bitwise equality is the spec).
//! - [`scenario`] derives a deterministic dataset + query stream
//!   (inserts and deletes interleaved) from a `(seed, iteration)` pair.
//!   Coordinates live on a small integer grid so exact distance ties are
//!   common, and object ids are a shuffled permutation so append order
//!   never coincides with id order — the two ingredients that surface
//!   tie-breaking divergences.
//! - [`run_fuzz`] drives the config-matrix sweep and checks, besides
//!   oracle equality, the metamorphic invariants: top-k is an exact
//!   prefix of top-(k+1); truncated results are a tie-aware prefix of
//!   the full ranking; counter conservation
//!   `nodes_read == cache_hits + cache_misses` on every report; and
//!   delete + reinsert leaves answers unchanged. The general (ranked)
//!   query of §5.3 is checked on the IR²/MIR² trees of the cold, warm and
//!   mutated databases, at the query point and at an area, against
//!   [`reference::reference_general`] (`oracle-ranked`), and a
//!   one-keyword query ranked by distance alone must answer like
//!   distance-first (`ranked-equals-distance-first`). Each commit of the
//!   insert/delete tail must also have cost the mutated (warm) database's
//!   node cache exactly the nodes it wrote.
//! - A failing case is shrunk by the minimizer to the smallest
//!   reproducing caps and reported as a one-line `ir2 fuzz …` repro
//!   command (see [`Divergence::repro_command`]).

mod harness;
mod minimize;
pub mod reference;
pub mod scenario;

pub use harness::{run_fuzz, Divergence, FuzzOptions, FuzzOutcome};
