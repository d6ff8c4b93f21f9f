//! The distance-first IR²-Tree algorithm (paper Figure 8: `IR2TopK` on top
//! of `IR2NearestNeighbor`), and on a plain R-Tree the paper's R-Tree
//! baseline (Section 5.1).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use ir2_geo::OrderedF64;
use ir2_model::{
    normalize_keywords, DistanceFirstQuery, ObjPtr, ObjectSource, QueryLimits, QueryRegion,
    SpatialObject, TruncateReason,
};
use ir2_rtree::{CachedNode, NodeReader, PayloadOps, RTree, UnitPayload};
use ir2_sigfile::{EntryMask, Signature};
use ir2_storage::{BlockDevice, Result};

use crate::search::{collect_topk, level_entry, signature_mask_into, BoundedSearch, BoundedStep};
use crate::trace::{NopSink, SearchCounters, TraceEvent, TraceSink};
use crate::SigPayload;

/// The node test of a [`DistanceFirstIter`], picked by the tree's payload
/// type: which of a visited node's entries go on the frontier.
///
/// A signature tree ([`SigPayload`]: the IR²- and MIR²-Tree) tests every
/// entry against the query signature of the node's level — Figure 8's "if
/// s matches w" — and the search counts the node's tests, and reports them
/// to its sink, in one tally from the mask. The plain R-Tree
/// ([`UnitPayload`]) has no signatures: it admits every entry and tests
/// nothing, so the search is Figure 3's incremental NN with the keyword
/// check done on each loaded candidate — the paper's R-Tree baseline.
pub trait EntryFilter: PayloadOps {
    /// Writes into `mask` one verdict per entry of `node` (set: admitted)
    /// and returns whether the verdicts are signature tests — false when
    /// every entry is admitted untested. `query_sigs` is the search's query
    /// signature per level, built from `keywords` on first use.
    fn admit_into<const N: usize>(
        &self,
        node: &CachedNode<N>,
        keywords: &[String],
        query_sigs: &mut Vec<Option<Signature>>,
        mask: &mut EntryMask,
    ) -> bool;
}

impl<P: SigPayload> EntryFilter for P {
    #[inline]
    fn admit_into<const N: usize>(
        &self,
        node: &CachedNode<N>,
        keywords: &[String],
        query_sigs: &mut Vec<Option<Signature>>,
        mask: &mut EntryMask,
    ) -> bool {
        let level = node.level();
        // Borrow the cached query signature for this level instead of
        // cloning it per node (signatures are heap buffers; at hundreds of
        // bits each, a clone per node read dominated small-query
        // allocations).
        let qsig = level_entry(query_sigs, level, || {
            self.scheme_at(level)
                .sign_terms(keywords.iter().map(String::as_str))
        });
        // Every entry's containment verdict, into the reusable bitmask.
        signature_mask_into(node, qsig, mask);
        true
    }
}

impl EntryFilter for UnitPayload {
    #[inline]
    fn admit_into<const N: usize>(
        &self,
        node: &CachedNode<N>,
        _keywords: &[String],
        _query_sigs: &mut Vec<Option<Signature>>,
        mask: &mut EntryMask,
    ) -> bool {
        mask.reset_all_set(node.len());
        false
    }
}

#[derive(PartialEq, Eq)]
enum Item {
    Node(u64),
    Object(u64),
}

/// Incremental distance-first top-k spatial keyword search over an
/// IR²-Tree, a MIR²-Tree or a plain R-Tree.
///
/// This is the paper's `IR2NearestNeighbor` (Figure 8) wrapped as an
/// iterator: a best-first traversal ordered by MINDIST in which every
/// entry must additionally pass the signature containment test against the
/// query signature *of that node's level* ("if s matches w"). Each
/// candidate object the traversal surfaces is loaded and verified against
/// the actual keywords — signatures have false positives but no false
/// negatives, so verified results emerge in exact distance order. The test
/// is the payload type's [`EntryFilter`]: over a plain R-Tree every entry
/// passes and the iterator is the R-Tree baseline, which loads every
/// candidate the NN order surfaces.
///
/// With an empty keyword list the query signature is empty, every entry
/// matches, and the iterator degenerates to plain incremental NN — the
/// IR²-Tree "facilitates both top-k spatial queries and top-k spatial
/// keyword queries".
///
/// The iterator keeps the query's [`SearchCounters`] itself, traced or
/// not. The `S` parameter is a [`TraceSink`] receiving one event per node
/// visit and object fetch, and one
/// [`record_tests`](TraceSink::record_tests) call per node visit with that
/// node's containment mask; the default [`NopSink`] monomorphizes every
/// call to an inlined empty body.
pub struct DistanceFirstIter<'a, const N: usize, D, P: EntryFilter, S: TraceSink = NopSink> {
    tree: &'a RTree<N, D, P>,
    objects: &'a dyn ObjectSource<N>,
    region: QueryRegion<N>,
    keywords: Vec<String>,
    /// Query signature per node level, indexed by level and built lazily
    /// (levels differ only in the MIR²-Tree).
    query_sigs: Vec<Option<Signature>>,
    heap: BinaryHeap<Reverse<(OrderedF64, u64, Item)>>,
    seq: u64,
    /// The query's one account, kept as the work happens.
    counters: SearchCounters,
    limits: QueryLimits,
    truncated: Option<TruncateReason>,
    /// Reusable per-node containment bitmask: every entry's verdict is
    /// written here in one pass, so steady-state pruning allocates nothing.
    mask: EntryMask,
    /// Reusable buffer a candidate record that spans blocks is assembled
    /// in; one that ends inside its first block is checked where it lies.
    scratch: Vec<u8>,
    /// The search's nodes: the tree's root and image table as of the
    /// search's start, and the one page every node no image serves is read
    /// into, so a cold search allocates no node buffer after its first.
    nodes: NodeReader<'a, N, D, P>,
    sink: S,
}

impl Ord for Item {
    fn cmp(&self, _other: &Self) -> std::cmp::Ordering {
        std::cmp::Ordering::Equal
    }
}
impl PartialOrd for Item {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl<'a, const N: usize, D: BlockDevice, P: EntryFilter> DistanceFirstIter<'a, N, D, P> {
    /// Starts the incremental search (`U.Enqueue(R.RootNode, 0)`).
    pub fn new(
        tree: &'a RTree<N, D, P>,
        objects: &'a dyn ObjectSource<N>,
        query: DistanceFirstQuery<N>,
    ) -> Self {
        Self::with_region_sink(
            tree,
            objects,
            QueryRegion::Point(query.point),
            query.keywords,
            NopSink,
        )
    }

    /// Starts an incremental search anchored at an arbitrary region — the
    /// paper's "an area could be used instead" of the query point. Results
    /// inside an area region come out at distance zero, then in increasing
    /// distance from the area's boundary. Keywords are normalized like
    /// [`DistanceFirstQuery::new`] does.
    pub fn with_region<W: AsRef<str>>(
        tree: &'a RTree<N, D, P>,
        objects: &'a dyn ObjectSource<N>,
        region: QueryRegion<N>,
        keywords: &[W],
    ) -> Self {
        Self::with_region_sink(tree, objects, region, normalize_keywords(keywords), NopSink)
    }
}

impl<'a, const N: usize, D: BlockDevice, P: EntryFilter, S: TraceSink>
    DistanceFirstIter<'a, N, D, P, S>
{
    /// Starts an incremental search that reports every step to `sink`
    /// (pass `&mut sink` to keep ownership — sinks are usable by
    /// reference). This is the full-form constructor the others delegate
    /// to: `keywords` are taken as given, so they must already be
    /// normalized ([`normalize_keywords`]; a [`DistanceFirstQuery`]'s are).
    pub fn with_region_sink(
        tree: &'a RTree<N, D, P>,
        objects: &'a dyn ObjectSource<N>,
        region: QueryRegion<N>,
        keywords: Vec<String>,
        sink: S,
    ) -> Self {
        let nodes = tree.reader();
        let mut heap = BinaryHeap::new();
        if let Some(root) = nodes.root() {
            heap.push(Reverse((OrderedF64(0.0), 0, Item::Node(root))));
        }
        Self {
            tree,
            objects,
            region,
            keywords,
            query_sigs: Vec::new(),
            heap,
            seq: 1,
            counters: SearchCounters::default(),
            limits: QueryLimits::none(),
            truncated: None,
            mask: EntryMask::new(),
            scratch: Vec::new(),
            nodes,
            sink,
        }
    }

    /// Applies execution limits: once a limit trips, the iterator stops
    /// yielding ([`truncation`](Self::truncation) reports why). Everything
    /// yielded before the cut is still the exact top-m prefix of the full
    /// answer, because the traversal emits verified results in distance
    /// order.
    pub fn limited(mut self, limits: QueryLimits) -> Self {
        self.limits = limits;
        self
    }

    /// The search counters so far.
    pub fn counters(&self) -> SearchCounters {
        self.counters.clone()
    }

    /// Which limit stopped the search, if one did.
    pub fn truncation(&self) -> Option<TruncateReason> {
        self.truncated
    }

    /// Lower bound on the distance of every result this iterator can still
    /// emit: the MINDIST key at the head of the frontier. The best-first
    /// heap minimum is non-decreasing and MINDIST lower-bounds everything
    /// inside an MBR, so nothing closer can appear later — this is the
    /// per-shard bound a scatter-gather merge compares against its current
    /// k-th distance. `None` once the frontier is drained (and, for a
    /// truncated search, the bound at the moment of the cut is the radius
    /// within which the emitted prefix is exact).
    pub fn frontier_bound(&self) -> Option<f64> {
        self.heap.peek().map(|Reverse((d, _, _))| d.0)
    }

    /// Consumes the iterator, returning the trace sink.
    pub fn into_sink(self) -> S {
        self.sink
    }

    /// Like the iterator's `next`, but performs no work beyond `limit`:
    /// each unit of work (node expansion or candidate verification) runs
    /// only while the frontier head's MINDIST key is ≤ `limit`. A caller
    /// holding a tighter bound — a scatter-gather merge comparing shards
    /// against its current k-th distance, say — never pays for reads whose
    /// results it would discard. [`BoundedStep::Pending`] means the head
    /// now exceeds the limit; the search resumes exactly where it stopped
    /// when called again with a larger limit.
    pub fn next_within(&mut self, limit: f64) -> Result<BoundedStep<N>> {
        loop {
            // A drained frontier means everything already emitted is the
            // complete answer — established *before* the limit check, so a
            // deadline or budget that trips after the last unit of work
            // cannot misreport a finished query as truncated.
            if self.heap.is_empty() {
                return Ok(BoundedStep::Done);
            }
            if matches!(self.heap.peek(), Some(Reverse((d, _, _))) if d.0 > limit) {
                return Ok(BoundedStep::Pending);
            }
            // Cooperative limit check before each unit of work; charged
            // I/O is nodes read plus objects loaded, so an `io_budget` of
            // zero stops the search before it touches the disk at all.
            if self.truncated.is_none() && !self.limits.is_unlimited() {
                let io_used = self.counters.nodes_read + self.counters.candidates_checked;
                self.truncated = self.limits.check(io_used, self.heap.len());
            }
            if self.truncated.is_some() {
                return Ok(BoundedStep::Done);
            }
            let Some(Reverse((dist, _, item))) = self.heap.pop() else {
                return Ok(BoundedStep::Done);
            };
            match item {
                Item::Object(child) => {
                    // Line 20-21 of IR2TopK: load and verify (false
                    // positives are possible).
                    self.counters.candidates_checked += 1;
                    let verified = self.objects.load_if_contains_all(
                        ObjPtr(child),
                        &self.keywords,
                        &mut self.scratch,
                    )?;
                    self.sink.record(&TraceEvent::ObjectFetched {
                        ptr: child,
                        distance: dist.0,
                        matched: verified.is_some(),
                    });
                    if let Some(obj) = verified {
                        return Ok(BoundedStep::Hit(obj, dist.0));
                    }
                    self.counters.false_positives += 1;
                }
                Item::Node(id) => {
                    let (node, hit) = self.nodes.read(id)?;
                    let level = node.level();
                    self.counters.visit(node.len(), self.heap.len(), hit);
                    self.sink.record(&TraceEvent::NodeVisited {
                        node: id,
                        level,
                        mindist: dist.0,
                        entries: node.len(),
                        heap_size: self.heap.len(),
                    });
                    // The payload type's node test: "if s matches w" on a
                    // signature tree, every entry on the plain R-Tree. A
                    // tested node is counted and reported in one tally.
                    let tested = self.tree.ops().admit_into(
                        node,
                        &self.keywords,
                        &mut self.query_sigs,
                        &mut self.mask,
                    );
                    if tested {
                        self.counters.record_tests(level, &self.mask);
                        self.sink.record_tests(level, &self.mask);
                    }
                    // Only admitted entries go on the frontier, in entry
                    // order.
                    let is_leaf = node.is_leaf();
                    for i in self.mask.ones() {
                        let child = node.child(i);
                        let d = OrderedF64(self.region.min_dist(&node.rect(i)));
                        let item = if is_leaf {
                            Item::Object(child)
                        } else {
                            Item::Node(child)
                        };
                        self.heap.push(Reverse((d, self.seq, item)));
                        self.seq += 1;
                    }
                }
            }
        }
    }
}

impl<const N: usize, D: BlockDevice, P: EntryFilter, S: TraceSink> BoundedSearch<N>
    for DistanceFirstIter<'_, N, D, P, S>
{
    fn next_within(&mut self, limit: f64) -> Result<BoundedStep<N>> {
        DistanceFirstIter::next_within(self, limit)
    }

    fn frontier_bound(&self) -> Option<f64> {
        DistanceFirstIter::frontier_bound(self)
    }

    fn counters(&self) -> SearchCounters {
        DistanceFirstIter::counters(self)
    }

    fn truncation(&self) -> Option<TruncateReason> {
        DistanceFirstIter::truncation(self)
    }
}

impl<const N: usize, D: BlockDevice, P: EntryFilter, S: TraceSink> Iterator
    for DistanceFirstIter<'_, N, D, P, S>
{
    type Item = Result<(SpatialObject<N>, f64)>;

    fn next(&mut self) -> Option<Self::Item> {
        self.next_within(f64::INFINITY)
            .map(BoundedStep::into_hit)
            .transpose()
    }
}

/// Answers a distance-first top-k spatial keyword query over an IR²- or
/// MIR²-Tree (the paper's `IR2TopK(R, Q)`) or, on a plain R-Tree, with the
/// R-Tree baseline, returning `(object, distance)` pairs in ascending
/// distance together with the search counters.
///
/// ```
/// use std::sync::Arc;
/// use ir2_irtree::{distance_first_topk, insert_object, Ir2Payload};
/// use ir2_model::{DistanceFirstQuery, ObjectStore, SpatialObject};
/// use ir2_rtree::{RTree, RTreeConfig};
/// use ir2_sigfile::SignatureScheme;
/// use ir2_storage::MemDevice;
///
/// let store = Arc::new(ObjectStore::<2, _>::create(MemDevice::new()));
/// let tree = RTree::create(
///     MemDevice::new(),
///     RTreeConfig::with_max(4),
///     Ir2Payload::new(SignatureScheme::from_bytes_len(8, 3, 7)),
/// )?;
/// for (i, text) in ["cafe wifi", "cafe garden", "bar pool"].iter().enumerate() {
///     let obj = SpatialObject::new(i as u64, [i as f64, 0.0], *text);
///     insert_object(&tree, store.append(&obj)?, &obj)?;
/// }
/// let q = DistanceFirstQuery::new([0.0, 0.0], &["cafe"], 2);
/// let (hits, _) = distance_first_topk(&tree, store.as_ref(), &q)?;
/// assert_eq!(hits.len(), 2);
/// assert_eq!(hits[0].0.id, 0); // the nearest cafe first
/// # Ok::<(), ir2_storage::StorageError>(())
/// ```
pub fn distance_first_topk<const N: usize, D: BlockDevice, P: EntryFilter>(
    tree: &RTree<N, D, P>,
    objects: &dyn ObjectSource<N>,
    query: &DistanceFirstQuery<N>,
) -> Result<(Vec<(SpatialObject<N>, f64)>, SearchCounters)> {
    let mut iter = DistanceFirstIter::new(tree, objects, query.clone());
    let (outcome, counters) = collect_topk(&mut iter, query.k)?;
    Ok((outcome.into_results(), counters))
}
