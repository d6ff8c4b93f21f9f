//! Property tests: IR²-Tree and MIR²-Tree query algorithms against a
//! brute-force model on random datasets — the correctness core of the
//! reproduction (signature pruning must never lose a result).

use std::sync::Arc;

use ir2_geo::{Point, Rect};
use ir2_irtree::{
    bulk_load_objects, collect_topk, delete_object, distance_first_topk, insert_object,
    BoundedStep, DistanceFirstIter, EntryFilter, Ir2Payload, LimitedTopk, MirPayload, NopSink,
    ScoreOrder, SearchCounters, SigPayload, TraceSink, VecSink,
};
use ir2_model::{DistanceFirstQuery, ObjPtr, ObjectStore, QueryLimits, QueryRegion, SpatialObject};
use ir2_rtree::{NodeCache, RTree, RTreeConfig};
use ir2_sigfile::{MultiLevelScheme, SignatureScheme};
use ir2_storage::MemDevice;
use ir2_text::{tokenize, IrScorer, LinearRank, RankingFn, SaturatingTfIdf, Vocabulary};
use proptest::prelude::*;

const WORDS: [&str; 12] = [
    "internet", "pool", "spa", "pets", "golf", "sauna", "suite", "gym", "bar", "wifi", "beach",
    "parking",
];

#[derive(Debug, Clone)]
struct Doc {
    point: [f64; 2],
    words: Vec<usize>, // indexes into WORDS
}

fn arb_doc() -> impl Strategy<Value = Doc> {
    (
        prop::array::uniform2(-50.0f64..50.0),
        prop::collection::vec(0..WORDS.len(), 0..6),
    )
        .prop_map(|(point, words)| Doc { point, words })
}

fn arb_docs() -> impl Strategy<Value = Vec<Doc>> {
    prop::collection::vec(arb_doc(), 1..60)
}

struct Db {
    store: Arc<ObjectStore<2, MemDevice>>,
    objects: Vec<(ObjPtr, SpatialObject<2>)>,
    vocab: Vocabulary,
}

fn build_db(docs: &[Doc]) -> Db {
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
    Db {
        store,
        objects,
        vocab,
    }
}

fn ir2_of(db: &Db, sig_bytes: usize, seed: u64) -> RTree<2, MemDevice, Ir2Payload> {
    let tree = RTree::create(
        MemDevice::new(),
        RTreeConfig::with_max(4),
        Ir2Payload::new(SignatureScheme::from_bytes_len(sig_bytes, 3, seed)),
    )
    .unwrap();
    for (ptr, obj) in &db.objects {
        insert_object(&tree, *ptr, obj).unwrap();
    }
    tree
}

/// Sorted ids of every result an area search over `tree` yields at
/// distance 0, stepped with `next_within(0.0)` until it stops.
fn ids_within_zero<P: EntryFilter>(
    tree: &RTree<2, MemDevice, P>,
    db: &Db,
    region: QueryRegion<2>,
    kws: &[String],
) -> Vec<u64> {
    let mut search = DistanceFirstIter::with_region(tree, db.store.as_ref(), region, kws);
    let mut ids = Vec::new();
    while let BoundedStep::Hit(obj, d) = search.next_within(0.0).unwrap() {
        assert_eq!(d, 0.0);
        ids.push(obj.id);
    }
    ids.sort_unstable();
    ids
}

/// An object a gap of 1e-200 outside an area — a gap whose square
/// underflows to zero — is not at distance 0 from it: stepping to
/// distance 0 leaves it out, and the search yields it next, at that gap.
#[test]
fn an_object_just_outside_an_area_is_not_inside_it() {
    fn check<P: EntryFilter>(tree: &RTree<2, MemDevice, P>, db: &Db) {
        let window = Rect::new(Point::new([-1.0, -1.0]), Point::new([0.0, 0.0]));
        let region = QueryRegion::Area(window);
        let kws = [WORDS[1].to_string()];
        assert_eq!(ids_within_zero(tree, db, region, &kws), [1]);
        let mut search = DistanceFirstIter::with_region(tree, db.store.as_ref(), region, &kws);
        assert!(matches!(search.next_within(0.0).unwrap(), BoundedStep::Hit(o, _) if o.id == 1));
        assert!(matches!(
            search.next_within(0.0).unwrap(),
            BoundedStep::Pending
        ));
        match search.next_within(f64::INFINITY).unwrap() {
            BoundedStep::Hit(obj, d) => assert_eq!((obj.id, d), (0, 1e-200)),
            other => panic!("the outside object did not come back: {other:?}"),
        }
    }
    let docs = [
        Doc {
            point: [1e-200, -0.5],
            words: vec![1],
        },
        Doc {
            point: [-0.5, -0.5],
            words: vec![1, 2],
        },
    ];
    let db = build_db(&docs);
    check(&ir2_of(&db, 2, 7), &db);
    check(&mir2_of(&db, 2, 7), &db);
}

fn mir2_of(db: &Db, sig_bytes: usize, seed: u64) -> RTree<2, MemDevice, MirPayload<2>> {
    let schemes = MultiLevelScheme::new(sig_bytes, 3, seed, 4, 3.0, WORDS.len());
    let tree = RTree::create(
        MemDevice::new(),
        RTreeConfig::with_max(4),
        MirPayload::new(
            schemes,
            Arc::clone(&db.store) as Arc<dyn ir2_model::ObjectSource<2>>,
        ),
    )
    .unwrap();
    for (ptr, obj) in &db.objects {
        insert_object(&tree, *ptr, obj).unwrap();
    }
    tree
}

/// Brute-force distance-first: ids of objects containing all keywords,
/// sorted by (distance, id).
/// The general (ranked) top-k of Section 5.3 — the best-first search in a
/// [`ScoreOrder`] — as `(id, score)` by descending score.
fn ranked_topk<P: SigPayload>(
    tree: &RTree<2, MemDevice, P>,
    db: &Db,
    rank: &dyn RankingFn,
    qpoint: [f64; 2],
    keywords: &[&str],
    k: usize,
) -> Vec<(u64, f64)> {
    let order = ScoreOrder::new(qpoint, keywords, &db.vocab, &SaturatingTfIdf, rank);
    let mut search = DistanceFirstIter::with_order_sink(tree, db.store.as_ref(), order, NopSink);
    let (outcome, _) = collect_topk(&mut search, k).unwrap();
    outcome
        .results()
        .iter()
        .map(|(o, key)| (o.id, -key))
        .collect()
}

fn brute_distance_first(db: &Db, q: &DistanceFirstQuery<2>) -> Vec<(u64, f64)> {
    let mut v: Vec<(u64, f64)> = db
        .objects
        .iter()
        .filter(|(_, o)| o.token_set().contains_all(&q.keywords))
        .map(|(_, o)| (o.id, o.point.distance(&q.point)))
        .collect();
    v.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
    v.truncate(q.k);
    v
}

fn assert_distance_first_matches(
    got: &[(SpatialObject<2>, f64)],
    want: &[(u64, f64)],
    keywords: &[String],
) {
    assert_eq!(got.len(), want.len(), "result count");
    for ((obj, d), (_, wd)) in got.iter().zip(want.iter()) {
        // Distances must agree exactly (ties may permute ids).
        assert!((d - wd).abs() < 1e-9, "distance {d} vs {wd}");
        assert!(obj.token_set().contains_all(keywords), "conjunctive filter");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The distance-first IR² algorithm equals brute force for every query
    /// — signature pruning loses nothing, verification admits nothing false.
    #[test]
    fn ir2_distance_first_equals_brute_force(
        docs in arb_docs(),
        qpoint in prop::array::uniform2(-60.0f64..60.0),
        kw in prop::collection::vec(0..WORDS.len(), 0..3),
        k in 1usize..12,
        sig_bytes in 1usize..6,
        seed in 0u64..1000,
    ) {
        let db = build_db(&docs);
        let tree = ir2_of(&db, sig_bytes, seed);
        let kws: Vec<&str> = kw.iter().map(|&i| WORDS[i]).collect();
        let q = DistanceFirstQuery::new(qpoint, &kws, k);
        let (got, _) = distance_first_topk(&tree, db.store.as_ref(), &q).unwrap();
        let want = brute_distance_first(&db, &q);
        assert_distance_first_matches(&got, &want, &q.keywords);
    }

    /// Same for the MIR²-Tree — the multi-level schemes must preserve the
    /// no-false-negative guarantee across levels.
    #[test]
    fn mir2_distance_first_equals_brute_force(
        docs in arb_docs(),
        qpoint in prop::array::uniform2(-60.0f64..60.0),
        kw in prop::collection::vec(0..WORDS.len(), 1..3),
        k in 1usize..10,
        seed in 0u64..1000,
    ) {
        let db = build_db(&docs);
        let tree = mir2_of(&db, 2, seed);
        let kws: Vec<&str> = kw.iter().map(|&i| WORDS[i]).collect();
        let q = DistanceFirstQuery::new(qpoint, &kws, k);
        let (got, _) = distance_first_topk(&tree, db.store.as_ref(), &q).unwrap();
        let want = brute_distance_first(&db, &q);
        assert_distance_first_matches(&got, &want, &q.keywords);
    }

    /// Deletions keep signatures conservative: after deleting a random
    /// subset, queries still equal brute force over the survivors.
    #[test]
    fn ir2_queries_survive_deletions(
        docs in arb_docs(),
        delete_mask in prop::collection::vec(any::<bool>(), 60),
        kw in prop::collection::vec(0..WORDS.len(), 1..3),
        seed in 0u64..1000,
    ) {
        let mut db = build_db(&docs);
        let tree = ir2_of(&db, 2, seed);
        let mut kept = Vec::new();
        for (i, (ptr, obj)) in db.objects.iter().enumerate() {
            if delete_mask[i % delete_mask.len()] {
                prop_assert!(delete_object(&tree, *ptr, obj).unwrap());
            } else {
                kept.push((*ptr, obj.clone()));
            }
        }
        db.objects = kept;
        let kws: Vec<&str> = kw.iter().map(|&i| WORDS[i]).collect();
        let q = DistanceFirstQuery::new([0.0, 0.0], &kws, 8);
        let (got, _) = distance_first_topk(&tree, db.store.as_ref(), &q).unwrap();
        let want = brute_distance_first(&db, &q);
        assert_distance_first_matches(&got, &want, &q.keywords);

        // Structural + signature-containment invariants still hold.
        let contains = |_l: u16, parent: &[u8], summary: &[u8]| {
            parent.iter().zip(summary.iter()).all(|(p, s)| p & s == *s)
        };
        tree.check_invariants(contains).unwrap();
    }

    /// The general algorithm returns the true top-k by combined score.
    #[test]
    fn general_topk_equals_brute_force(
        docs in arb_docs(),
        qpoint in prop::array::uniform2(-60.0f64..60.0),
        kw in prop::collection::vec(0..WORDS.len(), 1..4),
        k in 1usize..8,
        seed in 0u64..1000,
    ) {
        let db = build_db(&docs);
        let tree = ir2_of(&db, 3, seed);
        let scorer = SaturatingTfIdf;
        let rank = LinearRank { ir_weight: 1.0, dist_weight: 0.02 };
        let kws: Vec<&str> = kw.iter().map(|&i| WORDS[i]).collect();
        let got = ranked_topk(&tree, &db, &rank, qpoint, &kws, k);

        // Brute force: score every object with ≥1 matching keyword.
        let keywords = ir2_model::normalize_keywords(&kws);
        let term_ids: Vec<_> = keywords.iter().filter_map(|w| db.vocab.term_id(w)).collect();
        let qp = Point::new(qpoint);
        let mut brute: Vec<f64> = db.objects.iter().filter_map(|(_, o)| {
            let ir = scorer.score(&db.vocab, &term_ids, &o.token_counts());
            if ir <= 0.0 { return None; }
            Some(rank.combine(o.point.distance(&qp), ir))
        }).collect();
        brute.sort_by(|a, b| b.total_cmp(a));
        brute.truncate(k);

        prop_assert_eq!(got.len(), brute.len());
        for (g, w) in got.iter().zip(brute.iter()) {
            prop_assert!((g.1 - w).abs() < 1e-9, "score {} vs {}", g.1, w);
        }
        // Emitted in non-increasing score order.
        for pair in got.windows(2) {
            prop_assert!(pair[0].1 >= pair[1].1 - 1e-12);
        }
    }

    /// IR² and MIR² always agree (they implement the same query semantics).
    #[test]
    fn ir2_and_mir2_agree(
        docs in arb_docs(),
        qpoint in prop::array::uniform2(-60.0f64..60.0),
        kw in prop::collection::vec(0..WORDS.len(), 1..3),
        seed in 0u64..500,
    ) {
        let db = build_db(&docs);
        let ir2 = ir2_of(&db, 2, seed);
        let mir2 = mir2_of(&db, 2, seed);
        let kws: Vec<&str> = kw.iter().map(|&i| WORDS[i]).collect();
        let q = DistanceFirstQuery::new(qpoint, &kws, 10);
        let (a, _) = distance_first_topk(&ir2, db.store.as_ref(), &q).unwrap();
        let (b, _) = distance_first_topk(&mir2, db.store.as_ref(), &q).unwrap();
        let da: Vec<f64> = a.iter().map(|(_, d)| *d).collect();
        let db_: Vec<f64> = b.iter().map(|(_, d)| *d).collect();
        prop_assert_eq!(da.len(), db_.len());
        for (x, y) in da.iter().zip(db_.iter()) {
            prop_assert!((x - y).abs() < 1e-9);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// A window keyword query — the area search stepped to distance 0 —
    /// equals brute force for any window and keyword set on both tree
    /// variants.
    #[test]
    fn window_query_equals_brute_force(
        docs in arb_docs(),
        corners in prop::array::uniform4(-70.0f64..70.0),
        kw in prop::collection::vec(0..WORDS.len(), 0..3),
        seed in 0u64..500,
    ) {
        let db = build_db(&docs);
        let tree = ir2_of(&db, 2, seed);
        let window = Rect::from_corners(
            Point::new([corners[0], corners[1]]),
            Point::new([corners[2], corners[3]]),
        );
        let kws: Vec<String> = kw.iter().map(|&i| WORDS[i].to_string()).collect();
        let mut want: Vec<u64> = db
            .objects
            .iter()
            .filter(|(_, o)| window.contains_point(&o.point) && o.token_set().contains_all(&kws))
            .map(|(_, o)| o.id)
            .collect();
        want.sort_unstable();
        let region = QueryRegion::Area(window);
        prop_assert_eq!(&ids_within_zero(&tree, &db, region, &kws), &want);
        let mir2 = mir2_of(&db, 2, seed);
        prop_assert_eq!(&ids_within_zero(&mir2, &db, region, &kws), &want);
    }

    /// The signature density profile is monotone non-decreasing by level
    /// for the uniform-scheme IR²-Tree, on any dataset.
    #[test]
    fn density_profile_is_monotone_for_ir2(docs in arb_docs(), seed in 0u64..500) {
        let db = build_db(&docs);
        let tree = ir2_of(&db, 2, seed);
        let profile = ir2_irtree::density_profile(&tree).unwrap();
        for w in profile.windows(2) {
            prop_assert!(w[1].mean_density >= w[0].mean_density - 1e-9);
        }
        prop_assert_eq!(profile[0].entries, docs.len() as u64);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The general ranked algorithm agrees across IR² and MIR² trees on
    /// every dataset: the score sequences coincide.
    #[test]
    fn general_topk_agrees_across_tree_variants(
        docs in arb_docs(),
        qpoint in prop::array::uniform2(-60.0f64..60.0),
        kw in prop::collection::vec(0..WORDS.len(), 1..4),
        k in 1usize..8,
        seed in 0u64..300,
    ) {
        let db = build_db(&docs);
        let ir2 = ir2_of(&db, 2, seed);
        let mir2 = mir2_of(&db, 2, seed);
        let rank = LinearRank { ir_weight: 1.0, dist_weight: 0.02 };
        let kws: Vec<&str> = kw.iter().map(|&i| WORDS[i]).collect();
        let a = ranked_topk(&ir2, &db, &rank, qpoint, &kws, k);
        let b = ranked_topk(&mir2, &db, &rank, qpoint, &kws, k);
        // The canonical order makes the answers equal, ties included.
        prop_assert_eq!(a, b);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Signature maintenance under random insert/delete interleavings: on
    /// the IR²-Tree every ancestor signature stays *exactly* the OR of its
    /// descendants (CondenseTree recomputes, it does not merely shrink),
    /// and on the MIR²-Tree the lifted signatures stay conservative.
    /// `action` per document: 0 = keep, 1 = delete, 2 = delete then
    /// reinsert.
    #[test]
    fn signatures_stay_exact_under_interleaving(
        docs in arb_docs(),
        actions in prop::collection::vec(0u8..3, 60),
        seed in 0u64..500,
    ) {
        let db = build_db(&docs);
        let ir2 = ir2_of(&db, 2, seed);
        let mir2 = mir2_of(&db, 2, seed);

        let exact = |_l: u16, parent: &[u8], summary: &[u8]| parent == summary;
        let contains = |_l: u16, parent: &[u8], summary: &[u8]| {
            parent.iter().zip(summary.iter()).all(|(p, s)| p & s == *s)
        };
        prop_assert_eq!(ir2.check_invariants(exact).unwrap(), docs.len() as u64);

        // Phase 1: delete every document whose action is nonzero.
        for (i, (ptr, obj)) in db.objects.iter().enumerate() {
            if actions[i % actions.len()] != 0 {
                prop_assert!(delete_object(&ir2, *ptr, obj).unwrap());
                prop_assert!(delete_object(&mir2, *ptr, obj).unwrap());
            }
        }
        ir2.check_invariants(exact).unwrap();
        mir2.check_invariants(contains).unwrap();

        // Phase 2: reinsert the action-2 documents.
        let mut survivors = Vec::new();
        for (i, (ptr, obj)) in db.objects.iter().enumerate() {
            match actions[i % actions.len()] {
                0 => survivors.push((*ptr, obj.clone())),
                2 => {
                    insert_object(&ir2, *ptr, obj).unwrap();
                    insert_object(&mir2, *ptr, obj).unwrap();
                    survivors.push((*ptr, obj.clone()));
                }
                _ => {}
            }
        }
        let n = survivors.len() as u64;
        prop_assert_eq!(ir2.check_invariants(exact).unwrap(), n);
        prop_assert_eq!(mir2.check_invariants(contains).unwrap(), n);
    }

    /// Every MIR²-Tree entry is *exactly* the superimposition of its
    /// subtree's objects under its own level's scheme, whether the tree was
    /// packed by the bulk loader (summaries signed from the run of items a
    /// node was packed from) or grown by insertion (lifted signatures
    /// merged on the way up, summaries re-derived on splits). Equality, not
    /// containment: a build that set one bit too many would pass every
    /// query test and fail here.
    #[test]
    fn mir2_summaries_are_exact_bulk_loaded_and_grown(docs in arb_docs(), seed in 0u64..500) {
        let db = build_db(&docs);
        let exact = |_l: u16, parent: &[u8], summary: &[u8]| parent == summary;
        let n = docs.len() as u64;

        let grown = mir2_of(&db, 2, seed);
        prop_assert_eq!(grown.check_invariants(exact).unwrap(), n);

        let schemes = MultiLevelScheme::new(2, 3, seed, 4, 3.0, WORDS.len());
        let packed = RTree::create(
            MemDevice::new(),
            RTreeConfig::with_max(4),
            MirPayload::new(schemes, Arc::clone(&db.store) as Arc<dyn ir2_model::ObjectSource<2>>),
        )
        .unwrap();
        bulk_load_objects(&packed, db.objects.iter().cloned()).unwrap();
        // Packing leaves an under-full tail, so the fill check is off.
        prop_assert_eq!(packed.check_invariants_with(false, exact).unwrap(), n);
    }

    /// Delete + reinsert round-trips query results: after removing a random
    /// subset and putting it back, both trees answer distance-first queries
    /// exactly as brute force over the full collection.
    #[test]
    fn delete_reinsert_roundtrips_query_results(
        docs in arb_docs(),
        delete_mask in prop::collection::vec(any::<bool>(), 60),
        qpoint in prop::array::uniform2(-60.0f64..60.0),
        kw in prop::collection::vec(0..WORDS.len(), 1..3),
        k in 1usize..10,
        seed in 0u64..500,
    ) {
        let db = build_db(&docs);
        let ir2 = ir2_of(&db, 2, seed);
        let mir2 = mir2_of(&db, 2, seed);

        for (i, (ptr, obj)) in db.objects.iter().enumerate() {
            if delete_mask[i % delete_mask.len()] {
                prop_assert!(delete_object(&ir2, *ptr, obj).unwrap());
                prop_assert!(delete_object(&mir2, *ptr, obj).unwrap());
            }
        }
        for (i, (ptr, obj)) in db.objects.iter().enumerate() {
            if delete_mask[i % delete_mask.len()] {
                insert_object(&ir2, *ptr, obj).unwrap();
                insert_object(&mir2, *ptr, obj).unwrap();
            }
        }

        let kws: Vec<&str> = kw.iter().map(|&i| WORDS[i]).collect();
        let q = DistanceFirstQuery::new(qpoint, &kws, k);
        let want = brute_distance_first(&db, &q);
        let (got_ir2, _) = distance_first_topk(&ir2, db.store.as_ref(), &q).unwrap();
        assert_distance_first_matches(&got_ir2, &want, &q.keywords);
        let (got_mir2, _) = distance_first_topk(&mir2, db.store.as_ref(), &q).unwrap();
        assert_distance_first_matches(&got_mir2, &want, &q.keywords);
    }
}

/// One cell of the plan matrix: the iterator built for `region` in the
/// distance order or, `ranked`, the general order, with `sink` and
/// `limits`, drained by the one collector.
fn run_plan<S: TraceSink>(
    tree: &RTree<2, MemDevice, Ir2Payload>,
    db: &Db,
    (region, ranked): (QueryRegion<2>, bool),
    keywords: &[&str],
    k: usize,
    limits: QueryLimits,
    sink: S,
) -> LimitedTopk<2> {
    let store = db.store.as_ref();
    if ranked {
        let rank = LinearRank {
            ir_weight: 1.0,
            dist_weight: 0.02,
        };
        let order = ScoreOrder::new(region, keywords, &db.vocab, &SaturatingTfIdf, &rank);
        let mut iter = DistanceFirstIter::with_order_sink(tree, store, order, sink).limited(limits);
        return collect_topk(&mut iter, k).unwrap();
    }
    let keywords = ir2_model::normalize_keywords(keywords);
    let mut iter =
        DistanceFirstIter::with_region_sink(tree, store, region, keywords, sink).limited(limits);
    collect_topk(&mut iter, k).unwrap()
}

/// `c` without its cache split — what the folded event stream of the same
/// search gives, since no event says where a node came from.
fn uncached(c: &SearchCounters) -> SearchCounters {
    SearchCounters {
        cache_hits: 0,
        cache_misses: 0,
        ..c.clone()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every way of configuring a search is the same search: each cell of
    /// {point, area} × {distance order, general order} × {no limits,
    /// generous limits, small I/O budget} × {no cache, node cache} ×
    /// {`NopSink`, `VecSink`} returns the plain run's results — or, when
    /// the budget truncates it, a tie-aware exact prefix of the full
    /// ranking (by key: distance, or negated score) — with the node-visit
    /// conservation identity intact and the counters the traced run's
    /// events fold to.
    #[test]
    fn every_plan_cell_matches_the_plain_run(
        docs in arb_docs(),
        qpoint in prop::array::uniform2(-60.0f64..60.0),
        extent in prop::array::uniform2(0.0f64..40.0),
        kw in prop::collection::vec(0..WORDS.len(), 0..3),
        (k, budget) in (1usize..10, 0u64..40),
        seed in 0u64..500,
    ) {
        let db = build_db(&docs);
        let cold = ir2_of(&db, 2, seed);
        let mut cached = ir2_of(&db, 2, seed);
        cached.set_node_cache(Arc::new(NodeCache::new(64)));
        let kws: Vec<&str> = kw.iter().map(|&i| WORDS[i]).collect();
        let corner = [qpoint[0] + extent[0], qpoint[1] + extent[1]];
        let point = QueryRegion::Point(Point::new(qpoint));
        let area = QueryRegion::Area(Rect::from_corners(Point::new(qpoint), Point::new(corner)));
        let plans = [(point, false), (area, false), (point, true), (area, true)];
        let generous = QueryLimits::none()
            .with_io_budget(1 << 40)
            .with_max_heap_size(1 << 30)
            .with_deadline(std::time::Duration::from_secs(3600));
        let limit_sets = [
            QueryLimits::none(),
            generous,
            QueryLimits::none().with_io_budget(budget),
        ];
        let hits = |r: &[(SpatialObject<2>, f64)]| -> Vec<(u64, u64)> {
            r.iter().map(|(o, d)| (o.id, d.to_bits())).collect()
        };

        for plan in plans {
            // The plain run, and the full ranking it is a prefix of.
            let none = QueryLimits::none();
            let (full, _) = run_plan(&cold, &db, plan, &kws, docs.len(), none, NopSink);
            let full = hits(full.results());
            let (plain, plain_counters) = run_plan(&cold, &db, plan, &kws, k, none, NopSink);
            prop_assert!(!plain.is_truncated());
            let plain = hits(plain.results());
            prop_assert_eq!(&plain[..], &full[..k.min(full.len())]);

            for limits in limit_sets {
                for tree in [&cold, &cached] {
                    let mut log = VecSink::new();
                    let cells = [
                        run_plan(tree, &db, plan, &kws, k, limits, NopSink),
                        run_plan(tree, &db, plan, &kws, k, limits, &mut log),
                    ];
                    prop_assert_eq!(log.counters(), uncached(&cells[1].1));
                    for (outcome, c) in &cells {
                        prop_assert_eq!(c.nodes_read, c.cache_hits + c.cache_misses);
                        let got = hits(outcome.results());
                        if !outcome.is_truncated() {
                            prop_assert_eq!(&got, &plain);
                            // The cache changes where bytes come from,
                            // never what the search visits.
                            prop_assert_eq!(c.nodes_read, plain_counters.nodes_read);
                            prop_assert_eq!(c.candidates_checked, plain_counters.candidates_checked);
                            prop_assert_eq!(&c.per_level, &plain_counters.per_level);
                            continue;
                        }
                        prop_assert!(limits.io_budget == Some(budget), "only the small budget truncates");
                        prop_assert!(got.len() <= plain.len());
                        // Distances are a prefix of the ranking; ids below
                        // the boundary distance are canonical, ids tied at
                        // it need only belong to the full tie group (a
                        // budget that trips mid-drain cannot canonicalize
                        // the cut group's membership).
                        let boundary = got.last().map(|&(_, d)| d);
                        let mut seen = std::collections::HashSet::new();
                        for (i, &(id, d)) in got.iter().enumerate() {
                            prop_assert_eq!(d, full[i].1);
                            prop_assert!(seen.insert(id), "duplicate id {}", id);
                            if Some(d) != boundary {
                                prop_assert_eq!(id, full[i].0);
                            } else {
                                prop_assert!(full.contains(&(id, d)));
                            }
                        }
                    }
                }
            }
        }
    }
}
