//! Property tests for the decoded-node cache: a cached traversal must
//! return **byte-identical** results to the uncached one, across arbitrary
//! insert/delete/reinsert/flush interleavings — a commit invalidates only
//! the nodes it wrote, and that may never leave a stale node to be served.

use std::sync::Arc;

use ir2_geo::Point;
use ir2_irtree::{
    collect_topk, delete_object, distance_first_topk, insert_object, DistanceFirstIter, Ir2Payload,
    NopSink, ScoreOrder, SearchCounters, TraceEvent, TraceSink, VecSink,
};
use ir2_model::{DistanceFirstQuery, ObjPtr, ObjectStore, QueryRegion, SpatialObject};
use ir2_rtree::{NodeCache, RTree, RTreeConfig};
use ir2_sigfile::{SignatureBlock, SignatureScheme};
use ir2_storage::MemDevice;
use ir2_text::{tokenize, LinearRank, SaturatingTfIdf, Vocabulary};
use proptest::prelude::*;

const WORDS: [&str; 10] = [
    "internet", "pool", "spa", "pets", "golf", "sauna", "suite", "gym", "bar", "wifi",
];

#[derive(Debug, Clone)]
struct Doc {
    point: [f64; 2],
    words: Vec<usize>,
}

fn arb_doc() -> impl Strategy<Value = Doc> {
    (
        prop::array::uniform2(-50.0f64..50.0),
        prop::collection::vec(0..WORDS.len(), 0..5),
    )
        .prop_map(|(point, words)| Doc { point, words })
}

/// One mutation step applied identically to both trees.
#[derive(Debug, Clone)]
enum Step {
    Delete(usize),   // delete objects[i % len] if still present
    Reinsert(usize), // re-add a previously deleted object
    Flush,           // checkpoint: extents freed so far become reusable
    Query([f64; 2], usize),
}

fn arb_steps() -> impl Strategy<Value = Vec<Step>> {
    prop::collection::vec(
        prop_oneof![
            (0usize..64).prop_map(Step::Delete),
            (0usize..64).prop_map(Step::Reinsert),
            Just(Step::Flush),
            ((prop::array::uniform2(-60.0f64..60.0)), 0usize..WORDS.len())
                .prop_map(|(p, w)| Step::Query(p, w)),
        ],
        1..24,
    )
}

/// `distance_first_topk` with the search's counters.
fn counted_topk(
    tree: &RTree<2, MemDevice, Ir2Payload>,
    store: &ObjectStore<2, MemDevice>,
    q: &DistanceFirstQuery<2>,
) -> (Vec<(SpatialObject<2>, f64)>, SearchCounters) {
    let mut iter = DistanceFirstIter::new(tree, store, q.clone());
    let (outcome, counters) = collect_topk(&mut iter, q.k).unwrap();
    (outcome.into_results(), counters)
}

struct Fixture {
    store: Arc<ObjectStore<2, MemDevice>>,
    objects: Vec<(ObjPtr, SpatialObject<2>)>,
    vocab: Vocabulary,
    /// Node cache attached.
    warm: RTree<2, MemDevice, Ir2Payload>,
    /// No cache — ground truth.
    cold: RTree<2, MemDevice, Ir2Payload>,
}

/// The general (ranked) top-k of Section 5.3 on `tree` — the best-first
/// search in a [`ScoreOrder`] — as `(id, score bits)` by descending score,
/// with the search's counters and its sink.
fn general<S: TraceSink>(
    fx: &Fixture,
    tree: &RTree<2, MemDevice, Ir2Payload>,
    point: [f64; 2],
    keywords: &[&str],
    k: usize,
    sink: S,
) -> (Vec<(u64, u64)>, SearchCounters, S) {
    let rank = LinearRank {
        ir_weight: 1.0,
        dist_weight: 0.02,
    };
    let order = ScoreOrder::new(point, keywords, &fx.vocab, &SaturatingTfIdf, &rank);
    let mut search = DistanceFirstIter::with_order_sink(tree, fx.store.as_ref(), order, sink);
    let (outcome, counters) = collect_topk(&mut search, k).unwrap();
    let results = outcome.into_results();
    let bits = results.iter().map(|(o, key)| (o.id, (-key).to_bits()));
    (bits.collect(), counters, search.into_sink())
}

fn build_fixture(docs: &[Doc], seed: u64) -> Fixture {
    let store = Arc::new(ObjectStore::<2, _>::create(MemDevice::new()));
    let mut objects = Vec::new();
    let mut vocab = Vocabulary::new();
    for (i, d) in docs.iter().enumerate() {
        let text = d
            .words
            .iter()
            .map(|&w| WORDS[w])
            .collect::<Vec<_>>()
            .join(" ");
        let obj = SpatialObject::new(i as u64, d.point, text);
        let ptr = store.append(&obj).unwrap();
        let mut terms: Vec<String> = tokenize(&obj.text).collect();
        terms.sort_unstable();
        terms.dedup();
        vocab.add_document(terms.iter().map(String::as_str));
        objects.push((ptr, obj));
    }
    store.flush().unwrap();
    let tree = |cache: bool| {
        let mut t = RTree::create(
            MemDevice::new(),
            RTreeConfig::with_max(4),
            Ir2Payload::new(SignatureScheme::from_bytes_len(2, 3, seed)),
        )
        .unwrap();
        if cache {
            t.set_node_cache(Arc::new(NodeCache::new(256)));
        }
        for (ptr, obj) in &objects {
            insert_object(&t, *ptr, obj).unwrap();
        }
        t
    };
    Fixture {
        warm: tree(true),
        cold: tree(false),
        store,
        objects,
        vocab,
    }
}

/// Results must match bit-for-bit: same ids, same distance bits.
fn assert_identical(warm: &[(SpatialObject<2>, f64)], cold: &[(SpatialObject<2>, f64)]) {
    assert_eq!(warm.len(), cold.len(), "result count");
    for ((wo, wd), (co, cd)) in warm.iter().zip(cold.iter()) {
        assert_eq!(wo.id, co.id, "object id");
        assert_eq!(wd.to_bits(), cd.to_bits(), "distance bits");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Under an arbitrary interleaving of deletes, reinserts, and queries,
    /// the cached tree answers every query byte-identically to the
    /// uncached tree — including the *warm* repeat of each query,
    /// which on the cached tree is served largely from decoded images.
    #[test]
    fn cached_topk_is_byte_identical_across_mutations(
        docs in prop::collection::vec(arb_doc(), 5..40),
        steps in arb_steps(),
        seed in 0u64..500,
    ) {
        let fx = build_fixture(&docs, seed);
        let mut present: Vec<bool> = vec![true; fx.objects.len()];
        let run_query = |p: [f64; 2], w: usize| {
            let q = DistanceFirstQuery::new(p, &[WORDS[w]], 8);
            // Cold pass and warm repeat on the cached tree; single pass on
            // the ground-truth tree.
            let (warm1, c1) = counted_topk(&fx.warm, &fx.store, &q);
            let (warm2, c2) = counted_topk(&fx.warm, &fx.store, &q);
            let (cold, _) = distance_first_topk(&fx.cold, fx.store.as_ref(), &q).unwrap();
            assert_identical(&warm1, &cold);
            assert_identical(&warm2, &cold);
            // Visit counts are deterministic: the cache changes *where*
            // bytes come from, never how many nodes the search touches.
            assert_eq!(c1.nodes_read, c2.nodes_read, "visit count must not depend on cache state");
        };
        for step in &steps {
            match *step {
                Step::Delete(i) => {
                    let i = i % fx.objects.len();
                    if present[i] {
                        let (ptr, ref obj) = fx.objects[i];
                        prop_assert!(delete_object(&fx.warm, ptr, obj).unwrap());
                        prop_assert!(delete_object(&fx.cold, ptr, obj).unwrap());
                        present[i] = false;
                    }
                }
                Step::Reinsert(i) => {
                    let i = i % fx.objects.len();
                    if !present[i] {
                        let (ptr, ref obj) = fx.objects[i];
                        insert_object(&fx.warm, ptr, obj).unwrap();
                        insert_object(&fx.cold, ptr, obj).unwrap();
                        present[i] = true;
                    }
                }
                // From here on a mutation writes over extents whose
                // previous nodes may still be cached: the reuse hazard.
                Step::Flush => {
                    fx.warm.flush().unwrap();
                    fx.cold.flush().unwrap();
                }
                Step::Query(p, w) => run_query(p, w),
            }
        }
        // Final sweep: several queries on the post-mutation trees, all warm.
        for w in 0..WORDS.len() {
            run_query([0.0, 0.0], w);
        }
    }

    /// The general (ranked) algorithm over a node cache matches its
    /// uncached self score-for-score.
    #[test]
    fn cached_general_topk_is_identical(
        docs in prop::collection::vec(arb_doc(), 5..40),
        qpoint in prop::array::uniform2(-60.0f64..60.0),
        kw in prop::collection::vec(0..WORDS.len(), 1..4),
        k in 1usize..8,
        seed in 0u64..500,
    ) {
        let fx = build_fixture(&docs, seed);
        let kws: Vec<&str> = kw.iter().map(|&i| WORDS[i]).collect();
        let (cold, _, _) = general(&fx, &fx.cold, qpoint, &kws, k, NopSink);
        for _pass in 0..2 {
            let (warm, _, _) = general(&fx, &fx.warm, qpoint, &kws, k, NopSink);
            prop_assert_eq!(&warm, &cold);
        }
    }
}

/// Deterministic (non-property) check that the invalidation is actually
/// exercised, and is per key: a warm query hits the cache, a mutation
/// advances the cache's epoch and evicts the nodes it wrote, and the next
/// query misses those — at most those — is served the rest, and sees the
/// new object.
#[test]
fn epoch_bump_evicts_stale_nodes_and_serves_new_truth() {
    let docs: Vec<Doc> = (0..30)
        .map(|i| Doc {
            point: [f64::from(i % 6), f64::from(i / 6)],
            words: vec![i as usize % WORDS.len()],
        })
        .collect();
    let fx = build_fixture(&docs, 42);
    let q = DistanceFirstQuery::new([2.0, 2.0], &[WORDS[1]], 30);

    let (_, cold_pass) = counted_topk(&fx.warm, &fx.store, &q);
    assert_eq!(cold_pass.cache_hits, 0, "first pass fills the cache");
    let (before, warm_pass) = counted_topk(&fx.warm, &fx.store, &q);
    assert_eq!(
        warm_pass.cache_hits, warm_pass.nodes_read,
        "repeat pass is fully cache-served"
    );

    // Mutate: add one more object matching the query keyword.
    let obj = SpatialObject::new(999, [2.1, 2.1], WORDS[1].to_owned());
    let ptr = fx.store.append(&obj).unwrap();
    fx.store.flush().unwrap();
    let cache = fx.warm.node_cache().expect("the warm tree has a cache");
    let old_nodes = fx.warm.node_ids().unwrap();
    let epoch = cache.epoch();
    insert_object(&fx.warm, ptr, &obj).unwrap();
    assert!(cache.epoch() > epoch, "a commit advances the epoch");
    let written = fx
        .warm
        .node_ids()
        .unwrap()
        .into_iter()
        .filter(|id| !old_nodes.contains(id))
        .count() as u64;

    let (after, post) = counted_topk(&fx.warm, &fx.store, &q);
    assert!(
        post.cache_misses >= 1 && post.cache_misses <= written,
        "only nodes the insert wrote can miss: {} of {written}",
        post.cache_misses
    );
    assert_eq!(post.cache_hits, post.nodes_read - post.cache_misses);
    assert!(post.cache_hits > 0, "the commit kept the rest of the cache");
    assert!(
        after.iter().any(|(o, _)| o.id == 999),
        "post-mutation query must see the new object"
    );
    assert_eq!(after.len(), before.len() + 1);
}

/// The ids of the nodes a traced run visited.
fn visited(sink: &VecSink) -> Vec<u64> {
    sink.events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::NodeVisited { node, .. } => Some(*node),
            _ => None,
        })
        .collect()
}

/// The two ways a visited node's entries are tested — in place on the page
/// (a tree without a cache), through the bit-sliced block a cached image
/// holds from its install on — are the same search: every query answered
/// with no cache, by a cached tree on its first pass (all misses) and on
/// its next passes (all hits) gives bit-identical results, identical trace
/// statistics and identical counters apart from `cache_hits` /
/// `cache_misses`. Every cached image holds the block and not the page;
/// every image of the uncached tree is the page.
#[test]
fn in_place_and_block_masks_run_the_same_search() {
    let docs: Vec<Doc> = (0..90)
        .map(|i| Doc {
            point: [f64::from(i % 10) * 1.5, f64::from(i / 10)],
            words: vec![i as usize % WORDS.len(), (i as usize * 7 + 3) % WORDS.len()],
        })
        .collect();
    let fx = build_fixture(&docs, 7);
    let cache = fx.warm.node_cache().expect("the warm tree has a cache");
    let assert_forms = |ids: &[u64]| {
        for &id in ids {
            let image = cache.get(id).expect("visited node is cached");
            assert!(image.sliced::<SignatureBlock>().is_some() && image.page().is_none());
            let (plain, _) = fx.cold.read_node_cached(id).unwrap();
            assert!(plain.page().is_some(), "nothing is built without a cache");
        }
    };
    let points = [[0.0, 0.0], [7.0, 4.0], [13.5, 8.0], [-3.0, 11.0]];
    let level = |c: &SearchCounters| SearchCounters {
        cache_hits: 0,
        cache_misses: 0,
        ..c.clone()
    };

    let distance_first = |tree, q: &DistanceFirstQuery<2>| {
        let mut iter = DistanceFirstIter::with_region_sink(
            tree,
            fx.store.as_ref(),
            QueryRegion::Point(q.point),
            q.keywords.clone(),
            VecSink::new(),
        );
        let (outcome, counters) = collect_topk(&mut iter, q.k).unwrap();
        (outcome.into_results(), counters, iter.into_sink())
    };
    for (qi, point) in points.iter().enumerate() {
        for kws in [
            &[WORDS[qi]][..],
            &[WORDS[qi], WORDS[(qi * 7 + 3) % 10]],
            &[],
        ] {
            let q = DistanceFirstQuery::new(*point, kws, 6);
            let (plain, pc, psink) = distance_first(&fx.cold, &q);
            assert_eq!((pc.cache_hits, pc.cache_misses), (0, pc.nodes_read));
            assert!(pc.nodes_read > 1, "the query descends");
            assert_eq!(
                psink.counters(),
                level(&pc),
                "the events fold to the counters"
            );

            cache.clear();
            for pass in 0..3 {
                let (got, c, sink) = distance_first(&fx.warm, &q);
                let hits = if pass == 0 { 0 } else { c.nodes_read };
                assert_eq!((c.cache_hits, c.cache_misses), (hits, c.nodes_read - hits));
                assert_identical(&got, &plain);
                assert_eq!(level(&c), level(&pc), "pass {pass}");
                assert_eq!(sink.counters(), psink.counters(), "pass {pass}");
                assert_forms(&visited(&sink));
            }
        }
    }

    for (qi, point) in points.iter().enumerate() {
        let kws = [WORDS[qi], WORDS[qi + 4], WORDS[qi + 5]];
        let (plain, pc, psink) = general(&fx, &fx.cold, *point, &kws, 5, VecSink::new());
        assert!(!plain.is_empty() && visited(&psink).len() > 1);
        assert_eq!(
            psink.counters(),
            level(&pc),
            "the events fold to the counters"
        );
        cache.clear();
        for pass in 0..3 {
            let (got, c, sink) = general(&fx, &fx.warm, *point, &kws, 5, VecSink::new());
            assert_eq!(got, plain, "pass {pass}");
            assert_eq!(level(&c), level(&pc), "pass {pass}");
            assert_eq!(sink.counters(), psink.counters(), "pass {pass}");
            assert_forms(&visited(&sink));
        }
    }

    // The plain nearest-neighbor scan reads the same images and never
    // looks at a signature.
    for point in points {
        let nn = |tree: &RTree<2, MemDevice, Ir2Payload>| -> Vec<(u64, u64)> {
            tree.nearest(Point::new(point))
                .map(|r| r.unwrap())
                .map(|r| (r.child, r.dist.to_bits()))
                .collect()
        };
        let plain = nn(&fx.cold);
        assert_eq!(plain.len(), docs.len());
        cache.clear();
        for pass in 0..2 {
            assert_eq!(nn(&fx.warm), plain, "pass {pass}");
        }
    }
}

/// A cold search reads every node into its one reused buffer and tests the
/// page word by query word; a cached one ANDs the columns of the images it
/// installed. On a three-level tree of three-block nodes that fill one to
/// three of their blocks, with 189 B signatures (23 full words and a short
/// one), both give the same results and the same counters, the cache split
/// aside — from a cold cache and from a warm one.
#[test]
fn cold_and_cached_searches_agree_on_a_three_level_tree_of_multi_block_nodes() {
    let store = Arc::new(ObjectStore::<2, _>::create(MemDevice::new()));
    let scheme = SignatureScheme::from_bytes_len(189, 3, 11);
    let tree = |cache: bool| {
        let mut t = RTree::create(
            MemDevice::new(),
            RTreeConfig::with_max(40),
            Ir2Payload::new(scheme),
        )
        .unwrap();
        if cache {
            t.set_node_cache(Arc::new(NodeCache::new(4096)));
        }
        t
    };
    let (cold, warm) = (tree(false), tree(true));
    for i in 0..1500u64 {
        let words = [WORDS[i as usize % 10], WORDS[(i as usize * 7 + 3) % 10]];
        let point = [(i % 50) as f64 * 1.5, (i / 50) as f64];
        let obj = SpatialObject::new(i, point, words.join(" "));
        let ptr = store.append(&obj).unwrap();
        insert_object(&cold, ptr, &obj).unwrap();
        insert_object(&warm, ptr, &obj).unwrap();
    }
    store.flush().unwrap();
    assert!(cold.height() >= 3, "height {}", cold.height());
    assert_eq!(cold.node_blocks(0), 3);

    let split_aside = |c: &SearchCounters| SearchCounters {
        cache_hits: 0,
        cache_misses: 0,
        ..c.clone()
    };
    for (qi, point) in [[0.0, 0.0], [37.0, 12.5], [80.0, 31.0], [-5.0, 40.0]]
        .iter()
        .enumerate()
    {
        for kws in [
            &[WORDS[qi]][..],
            &[WORDS[qi], WORDS[(qi * 7 + 3) % 10]],
            &[WORDS[qi], WORDS[qi + 1]],
            &[],
        ] {
            let q = DistanceFirstQuery::new(*point, kws, 8);
            let (plain, pc) = counted_topk(&cold, &store, &q);
            assert_eq!((pc.cache_hits, pc.cache_misses), (0, pc.nodes_read));
            assert!(pc.nodes_read > 3, "the query descends");
            for pass in 0..2 {
                let (got, c) = counted_topk(&warm, &store, &q);
                assert_identical(&got, &plain);
                assert_eq!(split_aside(&c), split_aside(&pc), "{kws:?} pass {pass}");
            }
        }
    }
}

/// Two readers query while a writer inserts, each insert a commit that
/// publishes a new image table — with a cache that holds the tree and with
/// one that holds a few of its nodes. Every answer equals the brute-force
/// answer over the objects some commit between the query's start and end
/// had inserted, and every query's visits split into hits and misses.
/// (No flush: freed extents stay pending, so each committed tree stays
/// whole on the device while a reader may still be inside it.)
#[test]
fn readers_racing_commits_see_a_committed_tree() {
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

    const INITIAL: usize = 150;
    const TOTAL: usize = 300;
    // Distinct coordinates, so no two objects tie on distance.
    let objects: Vec<SpatialObject<2>> = (0..TOTAL)
        .map(|i| {
            let (x, y) = (
                (i * 37 % 101) as f64,
                (i * 53 % 97) as f64 + i as f64 / 1000.0,
            );
            let words = [WORDS[i % 10], WORDS[(i * 3 + 1) % 10]];
            SpatialObject::new(i as u64, [x, y], words.join(" "))
        })
        .collect();
    let store = Arc::new(ObjectStore::<2, _>::create(MemDevice::new()));
    let ptrs: Vec<ObjPtr> = objects.iter().map(|o| store.append(o).unwrap()).collect();
    store.flush().unwrap();
    let queries: Vec<DistanceFirstQuery<2>> = (0..12)
        .map(|i| {
            let point = [(i * 29 % 100) as f64, (i * 17 % 90) as f64];
            DistanceFirstQuery::new(point, &[WORDS[i % 10]], 5)
        })
        .collect();
    // The answer over the first `n` objects: (id, distance bits) in order.
    let brute = |q: &DistanceFirstQuery<2>, n: usize| -> Vec<(u64, u64)> {
        let region = QueryRegion::Point(q.point);
        let mut hits: Vec<(f64, u64)> = objects[..n]
            .iter()
            .filter(|o| o.contains_all(&q.keywords))
            .map(|o| (region.min_dist(&ir2_geo::Rect::from_point(o.point)), o.id))
            .collect();
        hits.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        hits.truncate(q.k);
        hits.into_iter().map(|(d, id)| (id, d.to_bits())).collect()
    };

    for capacity in [4096, 6] {
        let mut tree = RTree::create(
            MemDevice::new(),
            RTreeConfig::with_max(6),
            Ir2Payload::new(SignatureScheme::from_bytes_len(4, 3, 5)),
        )
        .unwrap();
        tree.set_node_cache(Arc::new(NodeCache::new(capacity)));
        for (ptr, obj) in ptrs.iter().zip(&objects).take(INITIAL) {
            insert_object(&tree, *ptr, obj).unwrap();
        }
        let committed = AtomicUsize::new(INITIAL);
        let done = AtomicBool::new(false);
        let answered = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for reader in 0..2 {
                let (tree, store, queries) = (&tree, &store, &queries);
                let (committed, done, answered) = (&committed, &done, &answered);
                s.spawn(move || {
                    let mut asked = 0;
                    while !done.load(Ordering::Acquire) || asked < 2 * queries.len() {
                        let q = &queries[(reader + asked) % queries.len()];
                        asked += 1;
                        let lo = committed.load(Ordering::Acquire);
                        let (got, c) = counted_topk(tree, store, q);
                        let hi = (committed.load(Ordering::Acquire) + 1).min(TOTAL);
                        assert_eq!(
                            c.nodes_read,
                            c.cache_hits + c.cache_misses,
                            "capacity {capacity}"
                        );
                        let got: Vec<(u64, u64)> =
                            got.iter().map(|(o, d)| (o.id, d.to_bits())).collect();
                        assert!(
                            (lo..=hi).any(|n| brute(q, n) == got),
                            "capacity {capacity}: {got:?} is no commit's answer in {lo}..={hi}"
                        );
                        answered.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
            // The commits start once both readers are inside the tree.
            while answered.load(Ordering::Relaxed) < 2 {
                std::thread::yield_now();
            }
            for (ptr, obj) in ptrs.iter().zip(&objects).skip(INITIAL) {
                insert_object(&tree, *ptr, obj).unwrap();
                committed.fetch_add(1, Ordering::Release);
            }
            done.store(true, Ordering::Release);
        });
        assert!(answered.load(Ordering::Relaxed) >= 4 * queries.len());
        let cache = tree.node_cache().unwrap();
        assert!(cache.len() <= capacity);
        let (hits, misses) = cache.hit_stats();
        assert!(
            hits > 0 && misses > 0,
            "capacity {capacity}: {hits} / {misses}"
        );
        // After the last commit, a full pass agrees with the whole data.
        for q in &queries {
            let (got, _) = counted_topk(&tree, &store, q);
            let got: Vec<(u64, u64)> = got.iter().map(|(o, d)| (o.id, d.to_bits())).collect();
            assert_eq!(got, brute(q, TOTAL));
        }
    }
}
