//! Workspace integration tests: cross-algorithm agreement and the paper's
//! qualitative claims, exercised through the full stack (facade → trees →
//! signatures → block devices).

use ir2_datagen::{figure1_hotels, DatasetSpec};
use ir2tree::model::{DistanceFirstQuery, SpatialObject};
use ir2tree::storage::MemDevice;
use ir2tree::{Algorithm, DbConfig, DeviceSet, QueryReport, SpatialKeywordDb, TopkRequest};

fn build_sample(
    n: usize,
    sig_bytes: usize,
) -> (SpatialKeywordDb<ir2tree::storage::MemDevice>, DatasetSpec) {
    let spec = DatasetSpec::restaurants().scaled(n as f64 / 456_288.0);
    let db = SpatialKeywordDb::build(
        DeviceSet::in_memory(),
        spec.generate(),
        DbConfig::restaurants().with_sig_bytes(sig_bytes),
    )
    .unwrap();
    (db, spec)
}

#[test]
fn figure1_database_answers_the_running_query() {
    let db = SpatialKeywordDb::build(
        DeviceSet::in_memory(),
        figure1_hotels(),
        DbConfig {
            capacity: Some(4),
            sig_bytes: 16,
            ..DbConfig::default()
        },
    )
    .unwrap();
    let q = DistanceFirstQuery::new([30.5, 100.0], &["internet", "pool"], 2);
    for alg in Algorithm::ALL {
        let ids: Vec<u64> = db
            .distance_first(alg, &q)
            .unwrap()
            .results
            .iter()
            .map(|(o, _)| o.id)
            .collect();
        assert_eq!(ids, vec![7, 2], "{}", alg.label());
    }
}

#[test]
fn four_algorithms_agree_across_many_random_queries() {
    let (db, spec) = build_sample(4_000, 4);
    // Query keywords of varied selectivity, query points across the map.
    let cases = [
        (vec![spec.keyword_of_rank(3)], [0.0, 0.0]),
        (
            vec![spec.keyword_of_rank(3), spec.keyword_of_rank(15)],
            [40.0, -70.0],
        ),
        (
            vec![spec.keyword_of_rank(50), spec.keyword_of_rank(200)],
            [-30.0, 120.0],
        ),
        (
            vec![
                spec.keyword_of_rank(5),
                spec.keyword_of_rank(60),
                spec.keyword_of_rank(400),
            ],
            [10.0, 10.0],
        ),
    ];
    for (keywords, point) in cases {
        let q = DistanceFirstQuery::new(point, &keywords, 10);
        let reference = db.distance_first(Algorithm::RTree, &q).unwrap();
        let ref_d: Vec<f64> = reference.results.iter().map(|(_, d)| *d).collect();
        for alg in [Algorithm::Iio, Algorithm::Ir2, Algorithm::Mir2] {
            let got = db.distance_first(alg, &q).unwrap();
            let d: Vec<f64> = got.results.iter().map(|(_, d)| *d).collect();
            assert_eq!(d.len(), ref_d.len(), "{} on {keywords:?}", alg.label());
            for (a, b) in d.iter().zip(ref_d.iter()) {
                assert!((a - b).abs() < 1e-9, "{} on {keywords:?}", alg.label());
            }
        }
    }
}

#[test]
fn ir2_beats_rtree_on_object_accesses_for_selective_keywords() {
    let (db, spec) = build_sample(6_000, 8);
    // A selective pair: moderately rare keywords rarely co-occur.
    let keywords = [spec.keyword_of_rank(30), spec.keyword_of_rank(90)];
    let q = DistanceFirstQuery::new([20.0, 20.0], &keywords, 10);
    let rtree = db.distance_first(Algorithm::RTree, &q).unwrap();
    let ir2 = db.distance_first(Algorithm::Ir2, &q).unwrap();
    assert!(
        ir2.object_loads < rtree.object_loads,
        "IR² loads {} objects, baseline {} — pruning must help",
        ir2.object_loads,
        rtree.object_loads
    );
    assert!(ir2.counters.pruned_by_signature() > 0);
}

#[test]
fn iio_io_is_insensitive_to_k() {
    let (db, spec) = build_sample(5_000, 8);
    let keywords = [spec.keyword_of_rank(2), spec.keyword_of_rank(8)];
    let io_at_k = |k: usize| {
        let q = DistanceFirstQuery::new([0.0, 0.0], &keywords, k);
        let rep = db.distance_first(Algorithm::Iio, &q).unwrap();
        rep.io.total()
    };
    let io1 = io_at_k(1);
    let io50 = io_at_k(50);
    // IIO computes the full result set regardless of k; only the final
    // trim differs, so block I/O is identical.
    assert_eq!(io1, io50, "IIO I/O must not depend on k");
}

#[test]
fn mir2_never_reads_more_nodes_than_ir2() {
    let (db, spec) = build_sample(6_000, 2);
    // Short signatures make IR² false positives common; the MIR²-Tree's
    // longer upper-level signatures must prune at least as well.
    let mut ir2_nodes = 0;
    let mut mir2_nodes = 0;
    for rank in [5, 20, 60, 150] {
        let q = DistanceFirstQuery::new(
            [0.0, 0.0],
            &[spec.keyword_of_rank(rank), spec.keyword_of_rank(rank + 3)],
            10,
        );
        ir2_nodes += db
            .distance_first(Algorithm::Ir2, &q)
            .unwrap()
            .counters
            .nodes_read;
        mir2_nodes += db
            .distance_first(Algorithm::Mir2, &q)
            .unwrap()
            .counters
            .nodes_read;
    }
    assert!(
        mir2_nodes <= ir2_nodes,
        "MIR² read {mir2_nodes} nodes, IR² {ir2_nodes}"
    );
}

#[test]
fn worst_case_absent_keyword_is_cheap_for_signature_trees() {
    let (db, _) = build_sample(4_000, 8);
    let q = DistanceFirstQuery::new([0.0, 0.0], &["zzzunseenword"], 5);
    let rtree = db.distance_first(Algorithm::RTree, &q).unwrap();
    let ir2 = db.distance_first(Algorithm::Ir2, &q).unwrap();
    assert!(rtree.results.is_empty() && ir2.results.is_empty());
    // The baseline must walk the entire tree and load every object; the
    // IR²-Tree prunes most subtrees (upper-level signatures are dense at
    // 8 bytes, so some false-positive descents remain).
    assert!(
        ir2.io.total() * 3 < rtree.io.total(),
        "ir2 {} vs rtree {}",
        ir2.io.total(),
        rtree.io.total()
    );
}

#[test]
fn mixed_workload_with_updates_stays_consistent() {
    let spec = DatasetSpec::restaurants().scaled(0.002); // ~900 objects
    let mut db = SpatialKeywordDb::build(
        DeviceSet::in_memory(),
        spec.generate(),
        DbConfig::restaurants().with_capacity(16),
    )
    .unwrap();
    // Insert a distinctive object, query it, delete it, re-query.
    let special = SpatialObject::new(
        1_000_000,
        [33.0, 33.0],
        "uniquely flavored unobtanium bistro",
    );
    let ptr = db.insert(&special).unwrap();
    let q = DistanceFirstQuery::new([33.0, 33.0], &["unobtanium"], 3);
    for alg in [Algorithm::RTree, Algorithm::Ir2, Algorithm::Mir2] {
        let rep = db.distance_first(alg, &q).unwrap();
        assert_eq!(rep.results.len(), 1, "{}", alg.label());
    }
    assert!(db.delete(ptr).unwrap());
    for alg in [Algorithm::RTree, Algorithm::Ir2, Algorithm::Mir2] {
        assert!(db.distance_first(alg, &q).unwrap().results.is_empty());
    }
    // And the pre-existing data still answers consistently.
    let q2 = DistanceFirstQuery::new([0.0, 0.0], &[spec.keyword_of_rank(4)], 5);
    let a = db.distance_first(Algorithm::RTree, &q2).unwrap();
    let b = db.distance_first(Algorithm::Ir2, &q2).unwrap();
    assert_eq!(a.results.len(), b.results.len());
}

#[test]
fn concurrent_queries_are_safe_and_consistent() {
    let (db, spec) = build_sample(3_000, 8);
    let q = DistanceFirstQuery::new([10.0, 10.0], &[spec.keyword_of_rank(6)], 10);
    let reference: Vec<u64> = db
        .distance_first(Algorithm::Ir2, &q)
        .unwrap()
        .results
        .iter()
        .map(|(o, _)| o.id)
        .collect();

    std::thread::scope(|scope| {
        for _ in 0..8 {
            scope.spawn(|| {
                for alg in [
                    Algorithm::Ir2,
                    Algorithm::Mir2,
                    Algorithm::RTree,
                    Algorithm::Iio,
                ] {
                    let ids: Vec<u64> = db
                        .distance_first(alg, &q)
                        .unwrap()
                        .results
                        .iter()
                        .map(|(o, _)| o.id)
                        .collect();
                    // Distances may tie; compare result distance multisets
                    // via count at least.
                    assert_eq!(ids.len(), reference.len(), "{}", alg.label());
                }
            });
        }
    });
}

#[test]
fn facade_area_queries_work() {
    use ir2tree::geo::{Point, Rect};
    let (db, spec) = build_sample(2_000, 8);
    let area = Rect::from_corners(Point::new([-20.0, -20.0]), Point::new([20.0, 20.0]));
    let kw = vec![spec.keyword_of_rank(3)];
    let rep = db
        .run(&TopkRequest::new(Algorithm::Ir2, area, &kw, 20))
        .unwrap();
    // Matches inside the area come first, at distance zero.
    let mut saw_positive = false;
    for (obj, d) in &rep.results {
        if area.contains_point(&obj.point) {
            assert_eq!(*d, 0.0);
            assert!(!saw_positive, "zero-distance results must precede others");
        } else {
            assert!(*d > 0.0);
            saw_positive = true;
        }
    }
    // The baseline algorithms reject region queries explicitly.
    assert!(db
        .run(&TopkRequest::new(Algorithm::Iio, area, &kw, 5))
        .is_err());
}

/// The batch engine's report for every query, none failed.
fn run_batch(
    db: &SpatialKeywordDb<MemDevice>,
    alg: Algorithm,
    queries: &[DistanceFirstQuery<2>],
    threads: usize,
) -> Vec<QueryReport> {
    let reqs: Vec<TopkRequest> = queries
        .iter()
        .map(|q| TopkRequest::from_query(alg, q))
        .collect();
    db.run_batch(&reqs, threads)
        .into_iter()
        .map(|r| r.expect("no query fails on healthy devices"))
        .collect()
}

#[test]
fn batch_queries_match_sequential_queries() {
    let (db, spec) = build_sample(2_500, 8);
    let queries: Vec<DistanceFirstQuery<2>> = (0..12)
        .map(|i| {
            DistanceFirstQuery::new(
                [(i * 7 % 40) as f64, (i * 11 % 40) as f64],
                &[spec.keyword_of_rank(3 + i), spec.keyword_of_rank(20 + i)],
                5,
            )
        })
        .collect();
    for alg in Algorithm::ALL {
        let batch = run_batch(&db, alg, &queries, 4);
        assert_eq!(batch.len(), queries.len());
        assert!(batch.iter().map(|r| r.io.total()).sum::<u64>() > 0);
        for (q, got) in queries.iter().zip(&batch) {
            let seq = db.distance_first(alg, q).unwrap();
            let gd: Vec<f64> = got.results.iter().map(|(_, d)| *d).collect();
            let sd: Vec<f64> = seq.results.iter().map(|(_, d)| *d).collect();
            assert_eq!(gd.len(), sd.len(), "{}", alg.label());
            for (a, b) in gd.iter().zip(sd.iter()) {
                assert!((a - b).abs() < 1e-9);
            }
        }
    }
}

#[test]
fn batch_topk_attribution_matches_sequential() {
    let (db, spec) = build_sample(2_500, 8);
    let queries: Vec<DistanceFirstQuery<2>> = (0..16)
        .map(|i| {
            DistanceFirstQuery::new(
                [(i * 13 % 50) as f64 - 25.0, (i * 29 % 50) as f64 - 25.0],
                &[spec.keyword_of_rank(2 + i), spec.keyword_of_rank(18 + i)],
                8,
            )
        })
        .collect();
    for alg in Algorithm::ALL {
        let batch = run_batch(&db, alg, &queries, 4);
        assert_eq!(batch.len(), queries.len());
        // Same workload on 1 thread: per-query attribution must be fully
        // deterministic, i.e. independent of interleaving.
        let solo = run_batch(&db, alg, &queries, 1);
        for (q, (got, alone)) in queries.iter().zip(batch.iter().zip(&solo)) {
            let seq = db.distance_first(alg, q).unwrap();
            // Results byte-identical to the sequential path.
            let g: Vec<(u64, f64)> = got.results.iter().map(|(o, d)| (o.id, *d)).collect();
            let s: Vec<(u64, f64)> = seq.results.iter().map(|(o, d)| (o.id, *d)).collect();
            assert_eq!(g, s, "{}", alg.label());
            // I/O totals attributed to this query match the query run
            // alone (the random/sequential split may differ only in the
            // first access per device: a scope starts with a fresh arm).
            assert_eq!(got.io.total(), seq.io.total(), "{}", alg.label());
            assert_eq!(got.object_loads, seq.object_loads, "{}", alg.label());
            assert_eq!(
                got.counters.nodes_read,
                seq.counters.nodes_read,
                "{}",
                alg.label()
            );
            // And thread count must not change attribution at all.
            assert_eq!(got.io, alone.io, "{}", alg.label());
            assert_eq!(got.index_io, alone.index_io, "{}", alg.label());
            assert_eq!(got.object_io, alone.object_io, "{}", alg.label());
        }
    }
}

/// Ranked (general top-k) requests answer the same in a batch as alone,
/// and a ranked request on an algorithm without signatures fails in its own
/// slot only.
#[test]
fn batch_general_topk_matches_general_ranked() {
    use ir2tree::text::{LinearRank, SaturatingTfIdf};
    let (db, spec) = build_sample(2_000, 8);
    let ranked = |alg| -> Vec<TopkRequest> {
        (0..6)
            .map(|i| {
                let at = [(i * 9 % 30) as f64, (i * 17 % 30) as f64];
                let kws = [spec.keyword_of_rank(4 + i), spec.keyword_of_rank(25 + i)];
                TopkRequest::new(alg, at, &kws, 5).ranked(SaturatingTfIdf, LinearRank::default())
            })
            .collect()
    };
    for alg in [Algorithm::Ir2, Algorithm::Mir2] {
        let reqs = ranked(alg);
        let batch = db.run_batch(&reqs, 4);
        for (req, got) in reqs.iter().zip(batch) {
            let got = got.unwrap();
            let seq = db.run(req).unwrap();
            assert_eq!(got.results.len(), seq.results.len(), "{}", alg.label());
            for (a, b) in got.results.iter().zip(&seq.results) {
                assert_eq!(a.0.id, b.0.id, "{}", alg.label());
                assert_eq!(a.1.to_bits(), b.1.to_bits(), "{}", alg.label());
            }
            assert_eq!(got.io, seq.io, "{}", alg.label());
            assert_eq!(got.counters, seq.counters, "{}", alg.label());
        }
    }
    let mut reqs = ranked(Algorithm::Ir2);
    reqs[2].alg = Algorithm::RTree;
    let batch = db.run_batch(&reqs, 2);
    for (i, out) in batch.iter().enumerate() {
        assert_eq!(out.is_err(), i == 2, "slot {i}");
    }
}

#[test]
fn facade_window_keyword_query() {
    use ir2tree::geo::{Point, Rect};
    let (db, spec) = build_sample(2_000, 8);
    let window = Rect::from_corners(Point::new([-40.0, -40.0]), Point::new([40.0, 40.0]));
    let kw = vec![spec.keyword_of_rank(2)];
    let hits = db.keyword_window(Algorithm::Ir2, &window, &kw).unwrap();
    assert!(!hits.is_empty());
    for obj in &hits {
        assert!(window.contains_point(&obj.point));
        assert!(obj.token_set().contains_all(&kw));
    }
    // Agreement with the MIR² tree (as a set).
    let mut a: Vec<u64> = hits.iter().map(|o| o.id).collect();
    let mut b: Vec<u64> = db
        .keyword_window(Algorithm::Mir2, &window, &kw)
        .unwrap()
        .iter()
        .map(|o| o.id)
        .collect();
    a.sort_unstable();
    b.sort_unstable();
    assert_eq!(a, b);
    assert!(db.keyword_window(Algorithm::Iio, &window, &kw).is_err());
}
