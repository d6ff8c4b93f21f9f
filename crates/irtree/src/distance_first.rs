//! The one best-first search of the IR²-Tree: the distance-first
//! algorithm (paper Figure 8: `IR2TopK` on top of `IR2NearestNeighbor`), on
//! a plain R-Tree the paper's R-Tree baseline (Section 5.1), and the
//! general algorithm of Section 5.3, which is the same traversal keyed by
//! a score bound instead of a distance.

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
use ir2_text::{IrScorer, RankingFn, TermId, Vocabulary};

use crate::search::{collect_topk, level_entry, signature_mask_into, BoundedSearch, BoundedStep};
use crate::trace::{NopSink, SearchCounters, TraceEvent, TraceSink};
use crate::SigPayload;

/// The node test of a distance-ordered [`DistanceFirstIter`], picked by the
/// tree's payload type: which of a visited node's entries go on the
/// frontier.
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

/// What a [`DistanceFirstIter`] orders its frontier by: the search pops the
/// smallest key first, and a key never falls below the key of the item it
/// was pushed from, so results come out in ascending key. An order is the
/// search's two per-visit hooks.
///
/// * [`DistanceOrder`] (the default): a key is MINDIST from the query
///   region, an entry is admitted by the payload's [`EntryFilter`], and a
///   candidate is a result when its text contains every keyword — its key
///   is its distance.
/// * [`ScoreOrder`]: Section 5.3's general algorithm. A key is `−Upper(v)`,
///   the negated bound on `f(distance, IRscore)` of everything under the
///   entry; a candidate's exact key is its negated score, and a candidate
///   whose exact key lies past the frontier head goes back on the frontier
///   to be emitted in its turn.
pub trait SearchOrder<const N: usize, P> {
    /// The root's key.
    fn root_key(&self) -> f64;

    /// The node test: writes into `mask` one verdict per entry of `node`
    /// (set: the entry goes on the frontier) and returns whether the
    /// verdicts are signature tests, which the search then counts and
    /// reports.
    fn admit_into(&mut self, ops: &P, node: &CachedNode<N>, mask: &mut EntryMask) -> bool;

    /// The key of entry `i` of `node`, admitted by the last
    /// [`admit_into`](SearchOrder::admit_into); `key` is the node's own.
    fn child_key(&mut self, node: &CachedNode<N>, i: usize, key: f64) -> f64;

    /// The candidate check: the object at `ptr`, popped at `key`, and its
    /// exact key if it is a result; `None` if it is not (a signature false
    /// positive).
    fn check(
        &mut self,
        objects: &dyn ObjectSource<N>,
        ptr: ObjPtr,
        key: f64,
    ) -> Result<Option<(SpatialObject<N>, f64)>>;
}

/// The distance-first order: MINDIST from the query region, the payload's
/// node test, and a conjunctive keyword check on each candidate.
pub struct DistanceOrder<const N: usize> {
    region: QueryRegion<N>,
    keywords: Vec<String>,
    /// Query signature per node level, indexed by level and built lazily
    /// (levels differ only in the MIR²-Tree).
    query_sigs: Vec<Option<Signature>>,
    /// Reusable buffer a candidate record that spans blocks is assembled
    /// in; one that ends inside its first block is checked where it lies.
    scratch: Vec<u8>,
}

impl<const N: usize, P: EntryFilter> SearchOrder<N, P> for DistanceOrder<N> {
    #[inline]
    fn root_key(&self) -> f64 {
        0.0
    }

    #[inline]
    fn admit_into(&mut self, ops: &P, node: &CachedNode<N>, mask: &mut EntryMask) -> bool {
        ops.admit_into(node, &self.keywords, &mut self.query_sigs, mask)
    }

    #[inline]
    fn child_key(&mut self, node: &CachedNode<N>, i: usize, _key: f64) -> f64 {
        self.region.min_dist(&node.rect(i))
    }

    /// Line 20-21 of IR2TopK: load and verify (false positives are
    /// possible). A verified candidate's key is the distance it was pushed
    /// at.
    #[inline]
    fn check(
        &mut self,
        objects: &dyn ObjectSource<N>,
        ptr: ObjPtr,
        key: f64,
    ) -> Result<Option<(SpatialObject<N>, f64)>> {
        let verified = objects.load_if_contains_all(ptr, &self.keywords, &mut self.scratch)?;
        Ok(verified.map(|obj| (obj, key)))
    }
}

/// The general order of Section 5.3: results ranked by
/// `f(distance(T.p, Q.p), IRscore(T.t, Q.t))`, highest first.
///
/// Keywords are *preferences*, not a conjunctive filter: an object
/// containing only some of them may rank highly if it is close enough. One
/// containing none is not a result.
///
/// * Each query keyword has its own signature `Signature(wᵢ)`, and a
///   visited node is tested against each of them to find every entry's
///   *matched subset*; an entry matching no keyword is pruned — "check if
///   there can be an object T with non-zero IR score". The node's tests
///   are counted and reported as the union of the keywords' verdicts.
/// * An entry's key is `−Upper(v)`, with
///   `Upper(v) = min(f(MINDIST(v), UpperBound(IRscore)), Upper(parent))`,
///   the IR bound coming from the "imaginary object" that contains every
///   matched keyword ([`IrScorer::upper_bound`]).
/// * A candidate is loaded and scored; its exact key is `−f(distance,
///   IRscore)`, and a candidate scoring no more than the best bound left
///   on the frontier is put back on it "to be considered later".
///
/// Soundness rests on two monotonicities, both property-tested in this
/// workspace: signatures have no false negatives (a node's matched set
/// contains every descendant's) and `f` is decreasing in distance /
/// increasing in IR score. So keys ascend, and the search's limits, tie
/// drain and frontier bound hold as they do for distances.
pub struct ScoreOrder<'a, const N: usize> {
    region: QueryRegion<N>,
    vocab: &'a Vocabulary,
    scorer: &'a dyn IrScorer,
    rank: &'a dyn RankingFn,
    /// Query terms present in the corpus (absent terms can never
    /// contribute to any document's score).
    terms: Vec<TermId>,
    /// Per-keyword query signatures, indexed by level and built lazily.
    keyword_sigs: Vec<Option<Vec<Signature>>>,
    /// One reusable verdict mask per keyword, filled once per visit.
    keyword_masks: Vec<EntryMask>,
    /// An entry's matched keywords, reused entry to entry.
    matched: Vec<TermId>,
}

impl<'a, const N: usize> ScoreOrder<'a, N> {
    /// The order of a general query anchored at `region` (a point, or an
    /// area whose inside is at distance zero) over `keywords` (normalized
    /// here), scored by `scorer` with `vocab`'s term statistics and ranked
    /// by `rank`.
    pub fn new<W: AsRef<str>>(
        region: impl Into<QueryRegion<N>>,
        keywords: &[W],
        vocab: &'a Vocabulary,
        scorer: &'a dyn IrScorer,
        rank: &'a dyn RankingFn,
    ) -> Self {
        let terms: Vec<TermId> = normalize_keywords(keywords)
            .iter()
            .filter_map(|w| vocab.term_id(w))
            .collect();
        Self {
            region: region.into(),
            vocab,
            scorer,
            rank,
            keyword_masks: vec![EntryMask::new(); terms.len()],
            matched: Vec::with_capacity(terms.len()),
            terms,
            keyword_sigs: Vec::new(),
        }
    }
}

impl<const N: usize, P: SigPayload> SearchOrder<N, P> for ScoreOrder<'_, N> {
    fn root_key(&self) -> f64 {
        f64::NEG_INFINITY
    }

    fn admit_into(&mut self, ops: &P, node: &CachedNode<N>, mask: &mut EntryMask) -> bool {
        let level = node.level();
        let (terms, vocab) = (&self.terms, self.vocab);
        let sigs = level_entry(&mut self.keyword_sigs, level, || {
            let scheme = ops.scheme_at(level);
            terms
                .iter()
                .map(|&t| scheme.sign_term(vocab.name(t)))
                .collect()
        });
        mask.reset_none_set(node.len());
        for (sig, m) in sigs.iter().zip(&mut self.keyword_masks) {
            signature_mask_into(node, sig, m);
            mask.union_with(m);
        }
        true
    }

    fn child_key(&mut self, node: &CachedNode<N>, i: usize, key: f64) -> f64 {
        self.matched.clear();
        for (&t, m) in self.terms.iter().zip(&self.keyword_masks) {
            if m.get(i) {
                self.matched.push(t);
            }
        }
        let bound = self.scorer.upper_bound(self.vocab, &self.matched);
        let dist = self.region.min_dist(&node.rect(i));
        let upper = self.rank.combine(dist, bound).min(-key);
        -upper
    }

    /// The verify-step analog of IR2TopK line 21: a signature false
    /// positive may surface an object that matches no query keyword; it is
    /// not a result.
    fn check(
        &mut self,
        objects: &dyn ObjectSource<N>,
        ptr: ObjPtr,
        _key: f64,
    ) -> Result<Option<(SpatialObject<N>, f64)>> {
        let obj = objects.load(ptr)?;
        let ir_score = self
            .scorer
            .score(self.vocab, &self.terms, &obj.token_counts());
        if ir_score <= 0.0 {
            return Ok(None);
        }
        let score = self
            .rank
            .combine(self.region.distance(&obj.point), ir_score);
        Ok(Some((obj, -score)))
    }
}

enum Item<const N: usize> {
    Node(u64),
    Object(u64),
    /// A result whose exact key lay past the frontier head when it was
    /// checked.
    Loaded(Box<SpatialObject<N>>),
}

// Items only compare through (key, seq), and seq is unique per push.
impl<const N: usize> PartialEq for Item<N> {
    fn eq(&self, _other: &Self) -> bool {
        true
    }
}
impl<const N: usize> Eq for Item<N> {}
impl<const N: usize> Ord for Item<N> {
    fn cmp(&self, _other: &Self) -> std::cmp::Ordering {
        std::cmp::Ordering::Equal
    }
}
impl<const N: usize> PartialOrd for Item<N> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// The best-first top-k spatial keyword search over an IR²-Tree, a
/// MIR²-Tree or a plain R-Tree, as an incremental iterator.
///
/// In its default [`DistanceOrder`] this is the paper's
/// `IR2NearestNeighbor` (Figure 8): a best-first traversal ordered by
/// MINDIST in which every entry must additionally pass the signature
/// containment test against the query signature *of that node's level*
/// ("if s matches w"). Each candidate object the traversal surfaces is
/// loaded and verified against the actual keywords — signatures have false
/// positives but no false negatives, so verified results emerge in exact
/// distance order. The test is the payload type's [`EntryFilter`]: over a
/// plain R-Tree every entry passes and the iterator is the R-Tree baseline,
/// which loads every candidate the NN order surfaces.
///
/// With an empty keyword list the query signature is empty, every entry
/// matches, and the iterator degenerates to plain incremental NN — the
/// IR²-Tree "facilitates both top-k spatial queries and top-k spatial
/// keyword queries".
///
/// In a [`ScoreOrder`] ([`with_order_sink`](Self::with_order_sink)) it is
/// the general algorithm of Section 5.3 on a signature tree: the same loop,
/// keyed by `−Upper(v)`, yielding `(object, −f(distance, IRscore))` in
/// descending score. Whatever the order, a yielded key is the object's
/// exact key, and keys never decrease.
///
/// The iterator keeps the query's [`SearchCounters`] itself, traced or
/// not. The `S` parameter is a [`TraceSink`] receiving one event per node
/// visit and object fetch, and one
/// [`record_tests`](TraceSink::record_tests) call per node visit with that
/// node's containment mask; the default [`NopSink`] monomorphizes every
/// call to an inlined empty body.
pub struct DistanceFirstIter<'a, const N: usize, D, P, S = NopSink, O = DistanceOrder<N>> {
    tree: &'a RTree<N, D, P>,
    objects: &'a dyn ObjectSource<N>,
    order: O,
    heap: BinaryHeap<Reverse<(OrderedF64, u64, Item<N>)>>,
    seq: u64,
    /// The query's one account, kept as the work happens.
    counters: SearchCounters,
    limits: QueryLimits,
    truncated: Option<TruncateReason>,
    /// Reusable per-node containment bitmask: every entry's verdict is
    /// written here in one pass, so steady-state pruning allocates nothing.
    mask: EntryMask,
    /// The search's nodes: the tree's root and image table as of the
    /// search's start, and the one page every node no image serves is read
    /// into, so a cold search allocates no node buffer after its first.
    nodes: NodeReader<'a, N, D, P>,
    sink: S,
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
    /// reference). `keywords` are taken as given, so they must already be
    /// normalized ([`normalize_keywords`]; a [`DistanceFirstQuery`]'s are).
    pub fn with_region_sink(
        tree: &'a RTree<N, D, P>,
        objects: &'a dyn ObjectSource<N>,
        region: QueryRegion<N>,
        keywords: Vec<String>,
        sink: S,
    ) -> Self {
        let order = DistanceOrder {
            region,
            keywords,
            query_sigs: Vec::new(),
            scratch: Vec::new(),
        };
        Self::with_order_sink(tree, objects, order, sink)
    }
}

impl<'a, const N: usize, D: BlockDevice, P: PayloadOps, S: TraceSink, O: SearchOrder<N, P>>
    DistanceFirstIter<'a, N, D, P, S, O>
{
    /// Starts a search in `order` that reports every step to `sink` — the
    /// full-form constructor the others delegate to, and the one that
    /// starts a [`ScoreOrder`] search.
    pub fn with_order_sink(
        tree: &'a RTree<N, D, P>,
        objects: &'a dyn ObjectSource<N>,
        order: O,
        sink: S,
    ) -> Self {
        let nodes = tree.reader();
        let mut heap = BinaryHeap::new();
        if let Some(root) = nodes.root() {
            heap.push(Reverse((OrderedF64(order.root_key()), 0, Item::Node(root))));
        }
        Self {
            tree,
            objects,
            order,
            heap,
            seq: 1,
            counters: SearchCounters::default(),
            limits: QueryLimits::none(),
            truncated: None,
            mask: EntryMask::new(),
            nodes,
            sink,
        }
    }

    /// Applies execution limits: once a limit trips, the iterator stops
    /// yielding ([`truncation`](Self::truncation) reports why). Everything
    /// yielded before the cut is still the exact top-m prefix of the full
    /// answer, because the traversal emits results in key order.
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

    /// Lower bound on the key of every result this iterator can still
    /// emit — under [`DistanceOrder`], on its distance: the key at the
    /// head of the frontier. The best-first heap minimum is non-decreasing
    /// and MINDIST lower-bounds everything inside an MBR, so nothing closer
    /// can appear later — this is the per-shard bound a scatter-gather
    /// merge compares against its current k-th distance. `None` once the
    /// frontier is drained (and, for a truncated search, the bound at the
    /// moment of the cut is the radius within which the emitted prefix is
    /// exact).
    pub fn frontier_bound(&self) -> Option<f64> {
        self.heap.peek().map(|Reverse((d, _, _))| d.0)
    }

    /// Consumes the iterator, returning the trace sink.
    pub fn into_sink(self) -> S {
        self.sink
    }

    /// Like the iterator's `next`, but performs no work beyond `limit`:
    /// each unit of work (node expansion or candidate check) runs only
    /// while the frontier head's key is ≤ `limit`, and a result is yielded
    /// only at a key ≤ `limit`. A caller holding a tighter bound — a
    /// scatter-gather merge comparing shards against its current k-th
    /// distance, say — never pays for reads whose results it would
    /// discard. [`BoundedStep::Pending`] means the head now exceeds the
    /// limit; the search resumes exactly where it stopped when called
    /// again with a larger limit.
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
            let Some(Reverse((key, _, item))) = self.heap.pop() else {
                return Ok(BoundedStep::Done);
            };
            match item {
                Item::Object(child) => {
                    self.counters.candidates_checked += 1;
                    let checked = self.order.check(self.objects, ObjPtr(child), key.0)?;
                    self.sink.record(&TraceEvent::ObjectFetched {
                        ptr: child,
                        distance: key.0,
                        matched: checked.is_some(),
                    });
                    let Some((obj, exact)) = checked else {
                        self.counters.false_positives += 1;
                        continue;
                    };
                    // A result is yielded once nothing left on the frontier
                    // can come before it: at once if its exact key is the
                    // key it was popped at (always, under `DistanceOrder`),
                    // which no head or limit is below; otherwise it waits on
                    // the frontier, loaded, until it is the head.
                    let first = || {
                        let head = self.heap.peek();
                        head.is_none_or(|Reverse((head, _, _))| exact <= head.0)
                    };
                    if exact <= key.0 || exact <= limit && first() {
                        return Ok(BoundedStep::Hit(obj, exact));
                    }
                    let item = Item::Loaded(Box::new(obj));
                    self.heap.push(Reverse((OrderedF64(exact), self.seq, item)));
                    self.seq += 1;
                }
                Item::Loaded(obj) => return Ok(BoundedStep::Hit(*obj, key.0)),
                Item::Node(id) => {
                    let (node, hit) = self.nodes.read(id)?;
                    let level = node.level();
                    self.counters.visit(node.len(), self.heap.len(), hit);
                    self.sink.record(&TraceEvent::NodeVisited {
                        node: id,
                        level,
                        mindist: key.0,
                        entries: node.len(),
                        heap_size: self.heap.len(),
                    });
                    // The order's node test: "if s matches w" on a
                    // signature tree, every entry on the plain R-Tree, any
                    // keyword's signature under the general order. A tested
                    // node is counted and reported in one tally.
                    let tested = self.order.admit_into(self.tree.ops(), node, &mut self.mask);
                    if tested {
                        self.counters.record_tests(level, &self.mask);
                        self.sink.record_tests(level, &self.mask);
                    }
                    // Only admitted entries go on the frontier, in entry
                    // order.
                    let is_leaf = node.is_leaf();
                    for i in self.mask.ones() {
                        let child = node.child(i);
                        let k = OrderedF64(self.order.child_key(node, i, key.0));
                        let item = if is_leaf {
                            Item::Object(child)
                        } else {
                            Item::Node(child)
                        };
                        self.heap.push(Reverse((k, self.seq, item)));
                        self.seq += 1;
                    }
                }
            }
        }
    }
}

impl<const N: usize, D: BlockDevice, P: PayloadOps, S: TraceSink, O: SearchOrder<N, P>>
    BoundedSearch<N> for DistanceFirstIter<'_, N, D, P, S, O>
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

impl<const N: usize, D: BlockDevice, P: PayloadOps, S: TraceSink, O: SearchOrder<N, P>> Iterator
    for DistanceFirstIter<'_, N, D, P, S, O>
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
