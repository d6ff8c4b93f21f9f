//! The R-Tree baseline algorithm (Section 5.1).

use ir2_geo::Point;
use ir2_model::{
    DistanceFirstQuery, ObjPtr, ObjectSource, QueryLimits, SpatialObject, TruncateReason,
};
use ir2_rtree::{NnIter, RTree, UnitPayload};
use ir2_storage::{BlockDevice, Result};

use crate::search::{collect_topk, BoundedSearch, BoundedStep, SearchCounters};
use crate::trace::{NopSink, TraceEvent, TraceSink};

/// Incremental form of the paper's first baseline: plain Hjaltason–Samet
/// nearest neighbor over an unaugmented R-Tree, loading **every** candidate
/// object to post-filter it against the query keywords.
///
/// Its weakness — the reason the IR²-Tree exists — is that "it has to
/// retrieve every object returned by the NN algorithm until the top-k
/// result objects are found"; with selective keywords that is a long march
/// of useless object loads, and "in the worst case … the entire tree has to
/// be traversed".
pub struct RtreeBaselineIter<'a, const N: usize, D, S: TraceSink = NopSink> {
    nn: NnIter<'a, N, D, UnitPayload>,
    objects: &'a dyn ObjectSource<N>,
    keywords: Vec<String>,
    counters: SearchCounters,
    limits: QueryLimits,
    truncated: Option<TruncateReason>,
    /// Reusable buffer a candidate record that spans blocks is assembled in.
    scratch: Vec<u8>,
    sink: S,
}

impl<'a, const N: usize, D: BlockDevice> RtreeBaselineIter<'a, N, D> {
    /// Starts the incremental baseline search.
    pub fn new(
        tree: &'a RTree<N, D, UnitPayload>,
        objects: &'a dyn ObjectSource<N>,
        query: &DistanceFirstQuery<N>,
    ) -> Self {
        Self::with_sink(tree, objects, query.point, query.keywords.clone(), NopSink)
    }
}

impl<'a, const N: usize, D: BlockDevice, S: TraceSink> RtreeBaselineIter<'a, N, D, S> {
    /// Starts the incremental baseline search, reporting each object fetch
    /// to `sink`. The baseline has no signatures and its node visits
    /// happen inside the plain NN iterator, so the trace records
    /// [`TraceEvent::ObjectFetched`] only — which is exactly its cost
    /// story: the march of candidate loads. `keywords` must already be
    /// normalized, as in
    /// [`DistanceFirstIter::with_region_sink`](crate::DistanceFirstIter::with_region_sink).
    pub fn with_sink(
        tree: &'a RTree<N, D, UnitPayload>,
        objects: &'a dyn ObjectSource<N>,
        point: Point<N>,
        keywords: Vec<String>,
        sink: S,
    ) -> Self {
        Self {
            nn: tree.nearest(point),
            objects,
            keywords,
            counters: SearchCounters::default(),
            limits: QueryLimits::none(),
            truncated: None,
            scratch: Vec::new(),
            sink,
        }
    }

    /// Applies execution limits; see
    /// [`DistanceFirstIter::limited`](crate::DistanceFirstIter::limited).
    pub fn limited(mut self, limits: QueryLimits) -> Self {
        self.limits = limits;
        self
    }

    /// The search counters so far (`pruned_by_signature` is always 0 — the
    /// baseline has no signatures; its `false_positives` count the loaded
    /// objects that failed the keyword check). Node visits happen inside
    /// the plain NN iterator and are not part of the baseline's *trace*,
    /// but they are surfaced here as `nodes_read` / `cache_hits` /
    /// `cache_misses` so the conservation identity
    /// `nodes_read == cache_hits + cache_misses` holds for every report
    /// (the old convention of reporting `nodes_read == 0` alongside a
    /// nonzero `cache_hits` broke it).
    pub fn counters(&self) -> SearchCounters {
        let mut c = self.counters;
        c.nodes_read = self.nn.nodes_read();
        c.cache_hits = self.nn.cache_hits();
        c.cache_misses = self.nn.cache_misses();
        c
    }

    /// Which limit stopped the search, if one did.
    pub fn truncation(&self) -> Option<TruncateReason> {
        self.truncated
    }

    /// Lower bound on the distance of every result this iterator can still
    /// emit; see [`NnIter::frontier_bound`]. (The inner NN frontier holds
    /// both node MINDISTs and exact object distances — both lower-bound
    /// what the keyword post-filter can still surface.)
    pub fn frontier_bound(&self) -> Option<f64> {
        self.nn.frontier_bound()
    }

    /// Like the iterator's `next`, but performs no work beyond `limit`;
    /// see [`DistanceFirstIter::next_within`](
    /// crate::DistanceFirstIter::next_within). The bound applies to the
    /// inner NN frontier, so neither node reads nor candidate object loads
    /// happen past the limit.
    pub fn next_within(&mut self, limit: f64) -> Result<BoundedStep<N>> {
        loop {
            // A drained NN frontier means the candidate stream is finished
            // and everything already emitted is the complete answer —
            // established *before* the limit check, so a deadline or
            // budget that trips after the last candidate cannot misreport
            // a finished query as truncated.
            if self.nn.frontier_len() == 0 {
                return Ok(BoundedStep::Done);
            }
            // Cooperative limit check between candidates. Node reads happen
            // inside the NN iterator, so the charged I/O is its node count
            // plus the objects this wrapper loaded.
            if self.truncated.is_none() && !self.limits.is_unlimited() {
                let io_used = self.nn.nodes_read() + self.counters.candidates_checked;
                self.truncated = self.limits.check(io_used, self.nn.frontier_len());
            }
            if self.truncated.is_some() {
                return Ok(BoundedStep::Done);
            }
            let Some(nn) = self.nn.next_within(limit)? else {
                return Ok(if self.nn.frontier_len() > 0 {
                    // Still work to do, but the frontier head is beyond
                    // the limit.
                    BoundedStep::Pending
                } else {
                    BoundedStep::Done
                });
            };
            self.counters.candidates_checked += 1;
            let verified = self.objects.load_if_contains_all(
                ObjPtr(nn.child),
                &self.keywords,
                &mut self.scratch,
            )?;
            self.sink.record(&TraceEvent::ObjectFetched {
                ptr: nn.child,
                distance: nn.dist,
                matched: verified.is_some(),
            });
            if let Some(obj) = verified {
                return Ok(BoundedStep::Hit(obj, nn.dist));
            }
            self.counters.false_positives += 1;
        }
    }
}

impl<const N: usize, D: BlockDevice, S: TraceSink> BoundedSearch<N>
    for RtreeBaselineIter<'_, N, D, S>
{
    fn next_within(&mut self, limit: f64) -> Result<BoundedStep<N>> {
        RtreeBaselineIter::next_within(self, limit)
    }

    fn frontier_bound(&self) -> Option<f64> {
        RtreeBaselineIter::frontier_bound(self)
    }

    fn counters(&self) -> SearchCounters {
        RtreeBaselineIter::counters(self)
    }

    fn truncation(&self) -> Option<TruncateReason> {
        RtreeBaselineIter::truncation(self)
    }
}

impl<const N: usize, D: BlockDevice, S: TraceSink> Iterator for RtreeBaselineIter<'_, N, D, S> {
    type Item = Result<(SpatialObject<N>, f64)>;

    fn next(&mut self) -> Option<Self::Item> {
        self.next_within(f64::INFINITY)
            .map(BoundedStep::into_hit)
            .transpose()
    }
}

/// Answers a distance-first top-k spatial keyword query with the R-Tree
/// baseline, returning `(object, distance)` pairs in ascending distance and
/// the search counters.
pub fn rtree_baseline_topk<const N: usize, D: BlockDevice>(
    tree: &RTree<N, D, UnitPayload>,
    objects: &dyn ObjectSource<N>,
    query: &DistanceFirstQuery<N>,
) -> Result<(Vec<(SpatialObject<N>, f64)>, SearchCounters)> {
    let mut iter = RtreeBaselineIter::new(tree, objects, query);
    let (outcome, counters) = collect_topk(&mut iter, query.k)?;
    Ok((outcome.into_results(), counters))
}
