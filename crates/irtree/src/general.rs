//! The general IR²-Tree algorithm (Section 5.3): results ranked by
//! `f(distance(T.p, Q.p), IRscore(T.t, Q.t))`.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use ir2_geo::{OrderedF64, Point};
use ir2_model::{
    normalize_keywords, ExecOutcome, ObjPtr, ObjectSource, QueryLimits, SpatialObject,
};
use ir2_rtree::RTree;
use ir2_sigfile::{EntryMask, Signature};
use ir2_storage::{BlockDevice, Result};
use ir2_text::{IrScorer, RankingFn, TermId, Vocabulary};

use crate::search::{level_entry, signature_mask_into};
use crate::trace::{NopSink, TraceEvent, TraceSink};
use crate::SigPayload;

/// A general top-k spatial keyword query: keywords are *preferences*, not a
/// conjunctive filter — an object containing only some of them may rank
/// highly if it is close enough. One containing none is not a result: an
/// entry whose signature matches no query keyword is pruned — "check if
/// there can be an object T with non-zero IR score".
#[derive(Debug, Clone)]
pub struct GeneralQuery<const N: usize> {
    /// `Q.p`: the query point.
    pub point: Point<N>,
    /// `Q.t`: the query keywords (normalized through the tokenizer).
    pub keywords: Vec<String>,
    /// `Q.k`: number of requested results.
    pub k: usize,
}

impl<const N: usize> GeneralQuery<N> {
    /// Builds a query with normalized, deduplicated keywords.
    pub fn new<S: AsRef<str>>(point: impl Into<Point<N>>, keywords: &[S], k: usize) -> Self {
        Self {
            point: point.into(),
            keywords: normalize_keywords(keywords),
            k,
        }
    }
}

/// One ranked result of the general algorithm.
#[derive(Debug, Clone, PartialEq)]
pub struct ScoredResult<const N: usize> {
    /// The result object.
    pub object: SpatialObject<N>,
    /// Its combined `f(distance, IRscore)` value (higher is better).
    pub score: f64,
    /// Its spatial distance to the query point.
    pub distance: f64,
    /// Its text relevance `IRscore(T.t, Q.t)`.
    pub ir_score: f64,
}

enum GItem<const N: usize> {
    Node(u64),
    Candidate(u64),
    Loaded(Box<ScoredResult<N>>),
}

// Items only compare through (upper, seq), and seq is unique per push.
impl<const N: usize> PartialEq for GItem<N> {
    fn eq(&self, _other: &Self) -> bool {
        true
    }
}
impl<const N: usize> Eq for GItem<N> {}
impl<const N: usize> Ord for GItem<N> {
    fn cmp(&self, _other: &Self) -> std::cmp::Ordering {
        std::cmp::Ordering::Equal
    }
}
impl<const N: usize> PartialOrd for GItem<N> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Answers a general top-k spatial keyword query over an IR²- or MIR²-Tree
/// per Section 5.3:
///
/// * individual signatures `Signature(wᵢ)` per query keyword (no AND
///   semantics — the node signature is probed per keyword to find the
///   *matched subset*);
/// * the priority queue is ordered by
///   `Upper(v) = f(MINDIST(v), UpperBound(IRscore))`, the upper bound
///   coming from the "imaginary object" that contains every
///   signature-matched keyword (see
///   [`IrScorer::upper_bound`]);
/// * a candidate object is emitted only once its *actual* score is at
///   least the best upper bound left in the queue; otherwise it is
///   re-enqueued with its actual score "to be considered later".
///
/// Soundness rests on two monotonicities, both property-tested in this
/// workspace: signatures have no false negatives (a node's matched set
/// contains every descendant's) and `f` is decreasing in distance /
/// increasing in IR score.
pub fn general_topk<const N: usize, D: BlockDevice, P: SigPayload>(
    tree: &RTree<N, D, P>,
    objects: &dyn ObjectSource<N>,
    vocab: &Vocabulary,
    scorer: &dyn IrScorer,
    rank: &dyn RankingFn,
    query: &GeneralQuery<N>,
) -> Result<Vec<ScoredResult<N>>> {
    general_topk_with(
        tree,
        objects,
        vocab,
        scorer,
        rank,
        query,
        QueryLimits::none(),
        NopSink,
    )
    .map(ExecOutcome::into_results)
}

/// The full form of [`general_topk`]: execution limits and a trace sink.
///
/// Limits are checked cooperatively before each heap pop. Results are
/// emitted only when their actual score dominates every remaining upper
/// bound, i.e. in final rank order — so a truncated run's results are the
/// exact top-m prefix of the full answer.
///
/// Signature tests are recorded per *keyword* probe (the general algorithm
/// tests each query keyword's signature individually to find the matched
/// subset), and a visited node's `mindist` field carries its pop priority
/// — the score upper bound `Upper(v)`, infinite for the root — since the
/// traversal is ordered by score, not distance.
#[allow(clippy::too_many_arguments)]
pub fn general_topk_with<const N: usize, D: BlockDevice, P: SigPayload, S: TraceSink>(
    tree: &RTree<N, D, P>,
    objects: &dyn ObjectSource<N>,
    vocab: &Vocabulary,
    scorer: &dyn IrScorer,
    rank: &dyn RankingFn,
    query: &GeneralQuery<N>,
    limits: QueryLimits,
    mut sink: S,
) -> Result<ExecOutcome<Vec<ScoredResult<N>>>> {
    // Query terms present in the corpus (absent terms can never contribute
    // to any document's score).
    let term_ids: Vec<TermId> = query
        .keywords
        .iter()
        .filter_map(|w| vocab.term_id(w))
        .collect();
    let terms: Vec<&str> = term_ids.iter().map(|&t| vocab.name(t)).collect();

    // Per-keyword query signatures, indexed by level and built lazily.
    let mut keyword_sigs: Vec<Option<Vec<Signature>>> = Vec::new();
    // One reusable containment bitmask per keyword, filled in a single pass
    // over a node's signatures, and one reusable list of an entry's matched
    // keywords, so steady-state per-keyword pruning allocates nothing.
    let mut keyword_masks: Vec<EntryMask> = (0..term_ids.len()).map(|_| EntryMask::new()).collect();
    let mut matched: Vec<TermId> = Vec::with_capacity(term_ids.len());
    // The search's nodes, read as `DistanceFirstIter` reads them.
    let mut nodes = tree.reader();

    // Highest upper bound first, then the earliest push.
    let mut heap: BinaryHeap<(OrderedF64, Reverse<u64>, GItem<N>)> = BinaryHeap::new();
    let mut seq: u64 = 0;
    if let Some(root) = nodes.root() {
        heap.push((OrderedF64(f64::INFINITY), Reverse(seq), GItem::Node(root)));
        seq += 1;
    }

    let mut out: Vec<ScoredResult<N>> = Vec::with_capacity(query.k);
    let mut nodes_read: u64 = 0;
    let mut objects_loaded: u64 = 0;
    let mut truncated = None;
    while out.len() < query.k {
        // A drained heap means everything already emitted is the complete
        // answer — established *before* the limit check, so a deadline or
        // budget that trips after the last unit of work cannot misreport a
        // finished query as truncated.
        if heap.is_empty() {
            break;
        }
        // Cooperative limit check; charged I/O is nodes read plus objects
        // loaded, mirroring `DistanceFirstIter`.
        if !limits.is_unlimited() {
            truncated = limits.check(nodes_read + objects_loaded, heap.len());
            if truncated.is_some() {
                break;
            }
        }
        let (upper, _, item) = heap.pop().expect("the heap is not empty");
        match item {
            GItem::Loaded(res) => out.push(*res),
            GItem::Candidate(child) => {
                objects_loaded += 1;
                let obj = objects.load(ObjPtr(child))?;
                let distance = obj.point.distance(&query.point);
                let ir_score = scorer.score(vocab, &term_ids, &obj.token_counts());
                sink.record(&TraceEvent::ObjectFetched {
                    ptr: child,
                    distance,
                    matched: ir_score > 0.0,
                });
                // The verify-step analog of IR2TopK line 21: a signature
                // false positive may surface an object that matches no
                // query keyword; it is not a result.
                if ir_score <= 0.0 {
                    continue;
                }
                let score = rank.combine(distance, ir_score);
                let res = ScoredResult {
                    object: obj,
                    score,
                    distance,
                    ir_score,
                };
                // Emit if the actual score dominates everything unseen.
                let best_remaining = heap
                    .peek()
                    .map(|(u, _, _)| u.0)
                    .unwrap_or(f64::NEG_INFINITY);
                if score >= best_remaining {
                    out.push(res);
                } else {
                    let item = GItem::Loaded(Box::new(res));
                    heap.push((OrderedF64(score), Reverse(seq), item));
                    seq += 1;
                }
            }
            GItem::Node(node_id) => {
                nodes_read += 1;
                let (node, _) = nodes.read(node_id)?;
                let level = node.level();
                sink.record(&TraceEvent::NodeVisited {
                    node: node_id,
                    level,
                    mindist: upper.0,
                    entries: node.len(),
                    heap_size: heap.len(),
                });
                let ops = tree.ops();
                // Borrowed for the whole entry loop — per-node signature
                // clones would allocate on every node read (the bug fixed
                // in `DistanceFirstIter::step`).
                let sigs = level_entry(&mut keyword_sigs, level, || {
                    terms
                        .iter()
                        .map(|t| ops.scheme_at(level).sign_term(t))
                        .collect()
                });
                // One pass per keyword fills that keyword's reusable
                // bitmask with every entry's verdict (a cached node's block
                // is shared with `DistanceFirstIter`).
                for (s, m) in sigs.iter().zip(keyword_masks.iter_mut()) {
                    signature_mask_into(node, s, m);
                }
                for i in 0..node.len() {
                    // One event per (entry, keyword) probe, entry-major.
                    matched.clear();
                    for (&t, m) in term_ids.iter().zip(&keyword_masks) {
                        let hit = m.get(i);
                        sink.record(&TraceEvent::SignatureTest {
                            level,
                            matched: hit,
                        });
                        if hit {
                            matched.push(t);
                        }
                    }
                    if matched.is_empty() {
                        continue;
                    }
                    let child = node.child(i);
                    let ub_ir = scorer.upper_bound(vocab, &matched);
                    let dist = node.rect(i).min_dist(&query.point);
                    let child_upper = rank.combine(dist, ub_ir).min(upper.0);
                    let item = if node.is_leaf() {
                        GItem::Candidate(child)
                    } else {
                        GItem::Node(child)
                    };
                    heap.push((OrderedF64(child_upper), Reverse(seq), item));
                    seq += 1;
                }
            }
        }
    }
    Ok(match truncated {
        Some(reason) => ExecOutcome::Truncated {
            reason,
            results_so_far: out,
        },
        None => ExecOutcome::Complete(out),
    })
}
