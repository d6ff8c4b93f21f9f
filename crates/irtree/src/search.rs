//! The stepping contract shared by the incremental distance-first
//! searches, and the one top-k collector built on it.

use ir2_model::{ExecOutcome, SpatialObject, TruncateReason};
use ir2_rtree::CachedNode;
use ir2_sigfile::{payloads_mask_into, EntryMask, Signature, SignatureBlock};
use ir2_storage::Result;

/// Counters the incremental search maintains, matching the metrics the
/// paper's figures report per query.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SearchCounters {
    /// Tree nodes read from disk.
    pub nodes_read: u64,
    /// Entries (node or object) pruned by a failed signature match.
    pub pruned_by_signature: u64,
    /// Candidate objects loaded and checked against the keywords.
    pub candidates_checked: u64,
    /// Candidates whose text did not actually contain all keywords —
    /// signature false positives (line 21 of `IR2TopK` caught them).
    pub false_positives: u64,
    /// Of [`nodes_read`](SearchCounters::nodes_read), visits served from
    /// the tree's decoded-node cache (no device I/O, no CRC verification,
    /// no entry decode). Always 0 without an attached cache. `nodes_read`
    /// keeps counting *visits* either way, so I/O budgets are deterministic
    /// regardless of cache state.
    pub cache_hits: u64,
    /// Of [`nodes_read`](SearchCounters::nodes_read), visits that had to
    /// decode the node (device read + CRC + entry decode) — including every
    /// visit on a tree with no cache attached. The conservation identity
    /// `nodes_read == cache_hits + cache_misses` holds for every report.
    pub cache_misses: u64,
}

/// Cache hits a node image must have served before its bit-sliced
/// [`SignatureBlock`] is built.
///
/// Transposing a Hotels-sized node (≈ 100 entries × 1 512 bits) costs
/// 8–13 µs, five to eight times an in-place pass over it, and a block pass
/// saves ≈ 1.5 µs per later visit — but an image's life ends at the next
/// commit, which nothing here can foresee. Building on the first hit moved
/// the p99 of a tree that commits every hundred queries by +31 %: its
/// leaves see about eleven visits per commit, and the transposes of a
/// thousand of them land in single queries (EXPERIMENTS.md, "Why the block
/// waits for 24 hits", has the sweep over this constant). Two dozen hits
/// are reuse no such tree shows below its top levels, and cost a
/// read-mostly tree ≈ 35 µs of in-place passes per node, once.
pub const BLOCK_AFTER_HITS: u32 = 24;

/// "if s matches w" for every entry of a visited node at once: bit `i` of
/// `out` says whether entry `i`'s signature contains `query` (the query
/// signature of the node's level).
///
/// An image that has been served from the node cache
/// [`BLOCK_AFTER_HITS`] times is read again and again: its payloads are
/// transposed into a bit-sliced [`SignatureBlock`] once, kept on the image,
/// and this and every later visit ANDs a handful of its columns. Until then
/// — on every visit of a tree without a cache, where an image never counts
/// a hit, and on the first visits after a commit emptied the cache — the
/// entries are tested where they lie on the page and nothing is built. Both
/// give the same mask.
pub(crate) fn signature_mask_into<const N: usize>(
    node: &CachedNode<N>,
    query: &Signature,
    out: &mut EntryMask,
) {
    if node.hits() >= BLOCK_AFTER_HITS {
        node.decorations(|n| SignatureBlock::from_payloads(query.bits(), n.payloads()))
            .matches_mask_into(query, out);
    } else {
        payloads_mask_into(node.payloads(), query, out);
    }
}

/// What [`collect_topk`] returns: the complete-or-truncated results plus
/// the search counters of the run.
pub type LimitedTopk<const N: usize> = (ExecOutcome<Vec<(SpatialObject<N>, f64)>>, SearchCounters);

/// Outcome of one bounded best-first step ([`BoundedSearch::next_within`]).
#[derive(Debug)]
pub enum BoundedStep<const N: usize> {
    /// A verified result at distance ≤ the step's limit.
    Hit(SpatialObject<N>, f64),
    /// The frontier minimum now exceeds the limit: every remaining result
    /// is farther than the limit, and no work beyond it was performed.
    /// `frontier_bound()` holds the new, tighter bound.
    Pending,
    /// The frontier is drained — or an execution limit truncated the
    /// search (`truncation()` tells which).
    Done,
}

impl<const N: usize> BoundedStep<N> {
    /// The verified result of a [`Hit`](BoundedStep::Hit), `None` otherwise.
    pub fn into_hit(self) -> Option<(SpatialObject<N>, f64)> {
        match self {
            Self::Hit(obj, d) => Some((obj, d)),
            Self::Pending | Self::Done => None,
        }
    }
}

/// An incremental distance-first search that emits verified results in
/// non-decreasing distance and can be advanced under a distance bound —
/// what [`collect_topk`] and the scatter-gather shard merge are written
/// against. [`DistanceFirstIter`](crate::DistanceFirstIter) and
/// [`RtreeBaselineIter`](crate::RtreeBaselineIter) implement it; region,
/// sink and limits are chosen when the iterator is built, so every
/// combination of them runs through the same four calls.
pub trait BoundedSearch<const N: usize> {
    /// Advances to the next verified result, performing no work beyond
    /// `limit`; the search resumes where it stopped when called again with
    /// a larger limit.
    fn next_within(&mut self, limit: f64) -> Result<BoundedStep<N>>;

    /// Lower bound on the distance of every result still to come; `None`
    /// once the frontier is drained.
    fn frontier_bound(&self) -> Option<f64>;

    /// The search counters so far.
    fn counters(&self) -> SearchCounters;

    /// Which execution limit stopped the search, if one did.
    fn truncation(&self) -> Option<TruncateReason>;
}

/// Collects the top `k` results of `search` in the workspace-wide canonical
/// `(distance, id)` order. A search stopped by its limits yields
/// [`ExecOutcome::Truncated`] whose results are the exact top-m prefix of
/// the full answer; an unlimited search never sets
/// [`truncation`](BoundedSearch::truncation), so it always comes back
/// [`ExecOutcome::Complete`].
///
/// Two distinct situations need the canonicalizing sort:
///
/// - the stream produced `k` results: every further result *at the k-th
///   distance* must first be drained (the bound is inclusive and the
///   stream is non-decreasing, so `next_within` touches only the tied
///   group) so the cut keeps the id-smallest tied members;
/// - the stream exhausted below `k`: no drain is needed, but *interior*
///   equal-distance groups still sit in traversal order — the
///   differential fuzzer caught exactly this against the brute-force
///   oracle (`ir2 fuzz`, seed 42 iter 1: k past the match count left
///   tied pairs swapped).
///
/// Both end with the same full `(distance, id)` sort, so it runs
/// unconditionally.
pub fn collect_topk<const N: usize>(
    search: &mut (impl BoundedSearch<N> + ?Sized),
    k: usize,
) -> Result<LimitedTopk<N>> {
    let mut out = Vec::with_capacity(k.min(1024));
    while out.len() < k {
        match search.next_within(f64::INFINITY)?.into_hit() {
            Some(hit) => out.push(hit),
            None => break,
        }
    }
    if out.len() == k && k > 0 && search.truncation().is_none() {
        // The tie drain runs under the same limits as the search proper; a
        // budget that trips mid-drain reports `Truncated` (the tied tail
        // could not be canonicalized, so the choice of tied members is not
        // guaranteed to be the `(distance, id)`-smallest).
        let kth = out[k - 1].1;
        while let BoundedStep::Hit(obj, d) = search.next_within(kth)? {
            out.push((obj, d));
        }
    }
    out.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.id.cmp(&b.0.id)));
    out.truncate(k);
    let counters = search.counters();
    let outcome = match search.truncation() {
        Some(reason) => ExecOutcome::Truncated {
            reason,
            results_so_far: out,
        },
        None => ExecOutcome::Complete(out),
    };
    Ok((outcome, counters))
}
