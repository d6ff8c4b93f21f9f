//! End-to-end tests on the paper's running example (Figure 1's hotels),
//! reproducing Examples 1 and 3.

use std::sync::Arc;

use ir2_irtree::{
    bulk_load_objects, collect_topk, distance_first_topk, insert_object, DistanceFirstIter,
    Ir2Payload, MirPayload, NopSink, ScoreOrder, SigPayload,
};
use ir2_model::{DistanceFirstQuery, ObjPtr, ObjectStore, SpatialObject};
use ir2_rtree::{RTree, RTreeConfig, UnitPayload};
use ir2_sigfile::{MultiLevelScheme, SignatureScheme};
use ir2_storage::MemDevice;
use ir2_text::{tokenize, DecayRank, RankingFn, SaturatingTfIdf, Vocabulary};

const HOTELS: [(f64, f64, &str); 8] = [
    (
        25.4,
        -80.1,
        "Hotel A tennis court, gift shop, spa, Internet",
    ),
    (47.3, -122.2, "Hotel B wireless Internet, pool, golf course"),
    (35.5, 139.4, "Hotel C spa, continental suites, pool"),
    (39.5, 116.2, "Hotel D sauna, pool, conference rooms"),
    (51.3, -0.5, "Hotel E dry cleaning, free lunch, pets"),
    (40.4, -73.5, "Hotel F safe box, concierge, internet, pets"),
    (
        -33.2,
        -70.4,
        "Hotel G Internet, airport transportation, pool",
    ),
    (-41.1, 174.4, "Hotel H wake up service, no pets, pool"),
];

struct Fixture {
    store: Arc<ObjectStore<2, MemDevice>>,
    ptrs: Vec<ObjPtr>,
    vocab: Vocabulary,
}

fn fixture() -> Fixture {
    let store = Arc::new(ObjectStore::<2, _>::create(MemDevice::new()));
    let mut ptrs = Vec::new();
    let mut vocab = Vocabulary::new();
    for (i, (lat, lon, text)) in HOTELS.iter().enumerate() {
        let obj = SpatialObject::new(i as u64 + 1, [*lat, *lon], *text);
        ptrs.push(store.append(&obj).unwrap());
        let mut terms: Vec<String> = tokenize(text).collect();
        terms.sort_unstable();
        terms.dedup();
        vocab.add_document(terms.iter().map(String::as_str));
    }
    store.flush().unwrap();
    Fixture { store, ptrs, vocab }
}

fn ir2_tree(f: &Fixture) -> RTree<2, MemDevice, Ir2Payload> {
    let scheme = SignatureScheme::from_bytes_len(16, 4, 42);
    let tree = RTree::create(
        MemDevice::new(),
        RTreeConfig::with_max(4),
        Ir2Payload::new(scheme),
    )
    .unwrap();
    for (ptr, (i, row)) in f.ptrs.iter().zip(HOTELS.iter().enumerate()) {
        let obj = SpatialObject::new(i as u64 + 1, [row.0, row.1], row.2);
        insert_object(&tree, *ptr, &obj).unwrap();
    }
    tree
}

fn mir2_tree(f: &Fixture) -> RTree<2, MemDevice, MirPayload<2>> {
    let schemes = MultiLevelScheme::new(8, 4, 42, 4, 6.0, f.vocab.len());
    let tree = RTree::create(
        MemDevice::new(),
        RTreeConfig::with_max(4),
        MirPayload::new(
            schemes,
            Arc::clone(&f.store) as Arc<dyn ir2_model::ObjectSource<2>>,
        ),
    )
    .unwrap();
    for (ptr, (i, row)) in f.ptrs.iter().zip(HOTELS.iter().enumerate()) {
        let obj = SpatialObject::new(i as u64 + 1, [row.0, row.1], row.2);
        insert_object(&tree, *ptr, &obj).unwrap();
    }
    tree
}

#[test]
fn example_3_distance_first_ir2() {
    // "top-2 hotels from [30.5, 100.0] containing internet and pool"
    // must return H7 then H2 (Example 3).
    let f = fixture();
    let tree = ir2_tree(&f);
    let q = DistanceFirstQuery::new([30.5, 100.0], &["internet", "pool"], 2);
    let (res, counters) = distance_first_topk(&tree, f.store.as_ref(), &q).unwrap();
    let ids: Vec<u64> = res.iter().map(|(o, _)| o.id).collect();
    assert_eq!(ids, vec![7, 2]);
    assert!((res[0].1 - 181.9).abs() < 0.05);
    assert!((res[1].1 - 222.8).abs() < 0.05);
    // The verify step never admits an object without the keywords; at most
    // the two real results were checked plus possible false positives.
    assert!(counters.candidates_checked >= 2);
}

#[test]
fn example_3_distance_first_mir2() {
    let f = fixture();
    let tree = mir2_tree(&f);
    let q = DistanceFirstQuery::new([30.5, 100.0], &["internet", "pool"], 2);
    let (res, _) = distance_first_topk(&tree, f.store.as_ref(), &q).unwrap();
    let ids: Vec<u64> = res.iter().map(|(o, _)| o.id).collect();
    assert_eq!(ids, vec![7, 2], "MIR²-Tree must answer identically");
}

#[test]
fn empty_keywords_degenerate_to_example_1_nn_order() {
    let f = fixture();
    let tree = ir2_tree(&f);
    let q = DistanceFirstQuery::<2>::new([30.5, 100.0], &[] as &[&str], 8);
    let (res, counters) = distance_first_topk(&tree, f.store.as_ref(), &q).unwrap();
    let ids: Vec<u64> = res.iter().map(|(o, _)| o.id).collect();
    assert_eq!(ids, vec![4, 3, 5, 8, 6, 1, 7, 2], "Example 1's NN order");
    assert_eq!(counters.false_positives, 0);
    assert_eq!(counters.pruned_by_signature(), 0);
}

#[test]
fn baseline_agrees_with_ir2() {
    let f = fixture();
    let ir2 = ir2_tree(&f);
    let plain = RTree::create(MemDevice::new(), RTreeConfig::with_max(4), UnitPayload).unwrap();
    for (ptr, (i, row)) in f.ptrs.iter().zip(HOTELS.iter().enumerate()) {
        plain
            .insert(
                ptr.0,
                ir2_geo::Rect::from_point(ir2_geo::Point::new([row.0, row.1])),
                &[],
            )
            .unwrap();
        let _ = i;
    }
    for keywords in [
        vec!["pool"],
        vec!["internet", "pool"],
        vec!["pets"],
        vec!["nowhere"],
    ] {
        let q = DistanceFirstQuery::new([30.5, 100.0], &keywords, 8);
        let (a, ca) = distance_first_topk(&ir2, f.store.as_ref(), &q).unwrap();
        let (b, cb) = distance_first_topk(&plain, f.store.as_ref(), &q).unwrap();
        let ids_a: Vec<u64> = a.iter().map(|(o, _)| o.id).collect();
        let ids_b: Vec<u64> = b.iter().map(|(o, _)| o.id).collect();
        assert_eq!(ids_a, ids_b, "keywords {keywords:?}");
        // The baseline loads at least as many candidates as the IR²-Tree.
        assert!(cb.candidates_checked >= ca.candidates_checked);
    }
}

#[test]
fn signature_pruning_saves_candidate_loads() {
    let f = fixture();
    let tree = ir2_tree(&f);
    // "pets" appears in H5, H6, H8 only; the IR² search should prune
    // at least some non-matching entries.
    let q = DistanceFirstQuery::new([30.5, 100.0], &["pets"], 3);
    let (res, counters) = distance_first_topk(&tree, f.store.as_ref(), &q).unwrap();
    assert_eq!(res.len(), 3);
    assert!(
        counters.pruned_by_signature() > 0,
        "expected signature pruning on a selective keyword"
    );
}

#[test]
fn incremental_iterator_is_lazy_and_resumable() {
    let f = fixture();
    let tree = ir2_tree(&f);
    let q = DistanceFirstQuery::new([30.5, 100.0], &["pool"], 5);
    let mut iter = DistanceFirstIter::new(&tree, f.store.as_ref(), q);
    let first = iter.next().unwrap().unwrap();
    assert_eq!(first.0.id, 4); // H4 is the nearest pool hotel
    let rest: Vec<u64> = iter.map(|r| r.unwrap().0.id).collect();
    assert_eq!(rest, vec![3, 8, 7, 2]);
}

#[test]
fn k_exceeding_matches_and_absent_keyword() {
    let f = fixture();
    let tree = ir2_tree(&f);
    let q = DistanceFirstQuery::new([0.0, 0.0], &["internet", "pool"], 100);
    let (res, _) = distance_first_topk(&tree, f.store.as_ref(), &q).unwrap();
    assert_eq!(res.len(), 2, "only two hotels have both keywords");

    let q = DistanceFirstQuery::new([0.0, 0.0], &["casino"], 3);
    let (res, _) = distance_first_topk(&tree, f.store.as_ref(), &q).unwrap();
    assert!(res.is_empty());
}

/// The general (ranked) top-k of Section 5.3: the best-first search in a
/// [`ScoreOrder`], as `(object, score)` by descending score.
fn ranked<P: SigPayload>(
    tree: &RTree<2, MemDevice, P>,
    f: &Fixture,
    rank: &dyn RankingFn,
    keywords: &[&str],
    k: usize,
) -> Vec<(SpatialObject<2>, f64)> {
    let order = ScoreOrder::new([30.5, 100.0], keywords, &f.vocab, &SaturatingTfIdf, rank);
    let mut search = DistanceFirstIter::with_order_sink(tree, f.store.as_ref(), order, NopSink);
    let (outcome, _) = collect_topk(&mut search, k).unwrap();
    let results = outcome.into_results();
    results.into_iter().map(|(o, key)| (o, -key)).collect()
}

#[test]
fn general_topk_ranks_by_combined_score() {
    let f = fixture();
    let tree = ir2_tree(&f);
    let scorer = SaturatingTfIdf;
    let rank = DecayRank { scale: 100.0 };
    let res = ranked(&tree, &f, &rank, &["internet", "pool"], 8);

    // Brute force over all hotels with the same scorer/ranker.
    let mut brute: Vec<(u64, f64)> = HOTELS
        .iter()
        .enumerate()
        .map(|(i, (lat, lon, text))| {
            let obj = SpatialObject::<2>::new(i as u64 + 1, [*lat, *lon], *text);
            let term_ids: Vec<_> = ["internet", "pool"]
                .iter()
                .filter_map(|w| f.vocab.term_id(w))
                .collect();
            let ir = ir2_text::IrScorer::score(&scorer, &f.vocab, &term_ids, &obj.token_counts());
            let d = obj.point.distance(&ir2_geo::Point::new([30.5, 100.0]));
            (obj.id, ir2_text::RankingFn::combine(&rank, d, ir))
        })
        .filter(|(_, s)| *s > 0.0)
        .collect();
    brute.sort_by(|a, b| b.1.total_cmp(&a.1));

    assert_eq!(res.len(), brute.len());
    for (got, want) in res.iter().zip(brute.iter()) {
        assert!(
            (got.1 - want.1).abs() < 1e-9,
            "score sequence mismatch: got {} want {}",
            got.1,
            want.1
        );
    }
    // Scores are non-increasing.
    for w in res.windows(2) {
        assert!(w[0].1 >= w[1].1 - 1e-12);
    }
}

#[test]
fn general_topk_on_mir2_matches_ir2() {
    let f = fixture();
    let ir2 = ir2_tree(&f);
    let mir2 = mir2_tree(&f);
    let rank = DecayRank { scale: 50.0 };
    let keywords = ["spa", "pool", "internet"];
    let a = ranked(&ir2, &f, &rank, &keywords, 5);
    let b = ranked(&mir2, &f, &rank, &keywords, 5);
    let sa: Vec<f64> = a.iter().map(|r| r.1).collect();
    let sb: Vec<f64> = b.iter().map(|r| r.1).collect();
    assert_eq!(sa.len(), sb.len());
    for (x, y) in sa.iter().zip(sb.iter()) {
        assert!((x - y).abs() < 1e-9);
    }
}

#[test]
fn bulk_loaded_ir2_answers_identically() {
    let f = fixture();
    let incremental = ir2_tree(&f);
    let scheme = SignatureScheme::from_bytes_len(16, 4, 42);
    let bulk = RTree::create(
        MemDevice::new(),
        RTreeConfig::with_max(4),
        Ir2Payload::new(scheme),
    )
    .unwrap();
    let items: Vec<(ObjPtr, SpatialObject<2>)> = f
        .ptrs
        .iter()
        .zip(HOTELS.iter().enumerate())
        .map(|(ptr, (i, row))| {
            (
                *ptr,
                SpatialObject::new(i as u64 + 1, [row.0, row.1], row.2),
            )
        })
        .collect();
    bulk_load_objects(&bulk, items).unwrap();

    let q = DistanceFirstQuery::new([30.5, 100.0], &["internet", "pool"], 2);
    let (a, _) = distance_first_topk(&incremental, f.store.as_ref(), &q).unwrap();
    let (b, _) = distance_first_topk(&bulk, f.store.as_ref(), &q).unwrap();
    let ids_a: Vec<u64> = a.iter().map(|(o, _)| o.id).collect();
    let ids_b: Vec<u64> = b.iter().map(|(o, _)| o.id).collect();
    assert_eq!(ids_a, ids_b);
}

#[test]
fn signature_invariant_holds_in_both_trees() {
    let f = fixture();
    let contains = |_lvl: u16, parent: &[u8], summary: &[u8]| {
        parent.iter().zip(summary.iter()).all(|(p, s)| p & s == *s)
    };
    assert_eq!(ir2_tree(&f).check_invariants(contains).unwrap(), 8);
    assert_eq!(mir2_tree(&f).check_invariants(contains).unwrap(), 8);
}
