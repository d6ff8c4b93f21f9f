//! Exactness suite for the sharded scatter-gather engine: across shard
//! counts, algorithms, worker schedules, and random datasets, a
//! [`ShardedDb`] must answer exactly like the monolithic database over the
//! same objects — and under execution limits its truncated answer must be
//! an exact prefix of the full one.

use ir2tree::geo::{Point, Rect};
use ir2tree::model::{DistanceFirstQuery, SpatialObject};
use ir2tree::storage::{MemDevice, StorageError};
use ir2tree::{
    sharded_manifest, Algorithm, DbConfig, DeviceSet, Gather, QueryLimits, ShardedDb,
    SpatialKeywordDb, TopkRequest,
};
use proptest::prelude::*;

const WORDS: [&str; 10] = [
    "internet", "pool", "spa", "pets", "golf", "sauna", "suite", "gym", "bar", "wifi",
];

fn small_config() -> DbConfig {
    DbConfig {
        capacity: Some(4),
        sig_bytes: 8,
        ..DbConfig::default()
    }
}

/// Deterministic pseudo-random scatter (no grid symmetry, so distance ties
/// are measure-zero and answers compare bitwise).
fn scatter(n: usize) -> Vec<SpatialObject<2>> {
    (0..n)
        .map(|i| {
            let x = ((i * 7919) % 1009) as f64 + (i % 13) as f64 * 0.0731;
            let y = ((i * 104729) % 997) as f64 + (i % 17) as f64 * 0.0413;
            let text = format!(
                "{} {} {}",
                WORDS[i % WORDS.len()],
                WORDS[(i * 3 + 1) % WORDS.len()],
                WORDS[(i * 7 + 4) % WORDS.len()]
            );
            SpatialObject::new(i as u64, [x, y], text)
        })
        .collect()
}

fn sharded(objects: Vec<SpatialObject<2>>, s: usize) -> ShardedDb<MemDevice> {
    let sets = (0..s).map(|_| DeviceSet::in_memory()).collect();
    ShardedDb::build(sets, objects, small_config()).unwrap()
}

/// Brute-force truth in the sharded engine's canonical `(distance, id)`
/// order.
fn brute(objects: &[SpatialObject<2>], q: &DistanceFirstQuery<2>) -> Vec<(u64, f64)> {
    let mut hits: Vec<(u64, f64)> = objects
        .iter()
        .filter(|o| o.token_set().contains_all(&q.keywords))
        .map(|o| (o.id, q.point.distance(&o.point)))
        .collect();
    hits.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
    hits.truncate(q.k);
    hits
}

fn assert_matches_brute(label: &str, got: &[(SpatialObject<2>, f64)], truth: &[(u64, f64)]) {
    assert_eq!(got.len(), truth.len(), "{label}: result count");
    for ((o, d), (tid, td)) in got.iter().zip(truth.iter()) {
        assert_eq!(o.id, *tid, "{label}: object id");
        assert!((d - td).abs() < 1e-9, "{label}: {d} vs {td}");
    }
}

#[test]
fn every_shard_count_matches_brute_force_on_every_algorithm() {
    let objects = scatter(300);
    for s in [1usize, 2, 3, 4, 8] {
        let db = sharded(objects.clone(), s);
        assert_eq!(db.shard_count(), s);
        assert_eq!(db.total_objects(), 300);
        for (qi, keywords) in [
            vec!["pool"],
            vec!["pool", "spa"],
            vec!["internet", "gym"],
            vec![],
        ]
        .into_iter()
        .enumerate()
        {
            let q = DistanceFirstQuery::new(
                [173.3 + qi as f64 * 41.7, 512.9 - qi as f64 * 77.1],
                &keywords,
                7,
            );
            let truth = brute(&objects, &q);
            for alg in [Algorithm::RTree, Algorithm::Ir2, Algorithm::Mir2] {
                let rep = db.distance_first(alg, &q).unwrap();
                assert!(rep.outcome.is_none());
                assert_matches_brute(&format!("s={s} {}", alg.label()), &rep.results, &truth);
            }
            // IIO rejects pure-NN queries; otherwise it must agree too.
            if keywords.is_empty() {
                assert!(db.distance_first(Algorithm::Iio, &q).is_err());
            } else {
                let rep = db.distance_first(Algorithm::Iio, &q).unwrap();
                assert_matches_brute(&format!("s={s} IIO"), &rep.results, &truth);
            }
        }
    }
}

#[test]
fn sharded_matches_monolithic_reports_not_just_results() {
    let objects = scatter(250);
    let mono =
        SpatialKeywordDb::build(DeviceSet::in_memory(), objects.clone(), small_config()).unwrap();
    let db = sharded(objects, 4);
    let q = DistanceFirstQuery::new([400.3, 212.7], &["pool"], 9);
    let m = mono.distance_first(Algorithm::Ir2, &q).unwrap();
    let s = db.distance_first(Algorithm::Ir2, &q).unwrap();
    assert_eq!(m.results.len(), s.results.len());
    for ((a, da), (b, db_)) in m.results.iter().zip(s.results.iter()) {
        assert_eq!(a.id, b.id);
        assert!((da - db_).abs() < 1e-9);
    }
    // Attribution is real on both engines: index and object I/O are
    // accounted and the identity io = index + object holds.
    assert!(s.index_io.total() > 0);
    assert!(s.object_loads > 0);
    assert_eq!(s.io, s.index_io + s.object_io);
    assert!(s.simulated > std::time::Duration::ZERO);
}

#[test]
fn parallel_workers_match_the_sequential_merge() {
    let objects = scatter(400);
    let db = sharded(objects, 8);
    for threads in [2usize, 4, 8] {
        for (i, kw) in [vec!["spa"], vec!["pool", "wifi"]].into_iter().enumerate() {
            let q = DistanceFirstQuery::new([640.7 - i as f64 * 13.3, 128.1], &kw, 11);
            let seq = db.distance_first(Algorithm::Ir2, &q).unwrap();
            let par = db
                .run(
                    &TopkRequest::from_query(Algorithm::Ir2, &q)
                        .gathered(Gather::Parallel(threads)),
                )
                .unwrap();
            assert_eq!(seq.results.len(), par.results.len(), "threads={threads}");
            for ((a, da), (b, db_)) in seq.results.iter().zip(par.results.iter()) {
                assert_eq!(a.id, b.id, "threads={threads}");
                assert_eq!(da.to_bits(), db_.to_bits(), "threads={threads}");
            }
        }
    }
}

#[test]
fn batch_matches_individual_queries_in_input_order() {
    let objects = scatter(200);
    let db = sharded(objects, 4);
    let queries: Vec<DistanceFirstQuery<2>> = (0..12)
        .map(|i| {
            DistanceFirstQuery::new(
                [(i * 83 % 900) as f64 + 0.57, (i * 131 % 900) as f64 + 0.13],
                &[WORDS[i % WORDS.len()]],
                5,
            )
        })
        .collect();
    let reqs: Vec<TopkRequest> = queries
        .iter()
        .map(|q| TopkRequest::from_query(Algorithm::Mir2, q))
        .collect();
    let batch = db.run_batch(&reqs, 4);
    assert_eq!(batch.len(), queries.len());
    for (q, rep) in queries.iter().zip(&batch) {
        let rep = rep.as_ref().unwrap();
        let solo = db.distance_first(Algorithm::Mir2, q).unwrap();
        assert_eq!(solo.results.len(), rep.results.len());
        for ((a, da), (b, db_)) in solo.results.iter().zip(rep.results.iter()) {
            assert_eq!(a.id, b.id);
            assert_eq!(da.to_bits(), db_.to_bits());
        }
    }
}

#[test]
fn truncated_answers_are_exact_prefixes() {
    let objects = scatter(500);
    let db = sharded(objects, 4);
    let q = DistanceFirstQuery::new([333.3, 444.1], &["pool"], 25);
    let full = db.distance_first(Algorithm::Ir2, &q).unwrap();
    assert!(full.outcome.is_none());
    let mut seen_truncation = false;
    for budget in [4u64, 8, 16, 64, 256] {
        let limits = QueryLimits::none().with_io_budget(budget);
        let rep = db
            .run(&TopkRequest::from_query(Algorithm::Ir2, &q).limited(limits))
            .unwrap();
        if rep.outcome.is_some() {
            seen_truncation = true;
        }
        // Complete or truncated, the answer must be a prefix of the full
        // one: every reported result provably beats everything unseen.
        assert!(rep.results.len() <= full.results.len());
        for ((a, da), (b, db_)) in rep.results.iter().zip(full.results.iter()) {
            assert_eq!(a.id, b.id, "budget={budget}");
            assert_eq!(da.to_bits(), db_.to_bits(), "budget={budget}");
        }
    }
    assert!(seen_truncation, "smallest budgets must actually truncate");
}

#[test]
fn k_zero_and_empty_shards_behave() {
    let objects = scatter(64);
    let db = sharded(objects, 4);
    let q0 = DistanceFirstQuery::new([10.0, 10.0], &["pool"], 0);
    for alg in [
        Algorithm::RTree,
        Algorithm::Ir2,
        Algorithm::Mir2,
        Algorithm::Iio,
    ] {
        let rep = db.distance_first(alg, &q0).unwrap();
        assert!(rep.results.is_empty(), "{}", alg.label());
        assert!(rep.outcome.is_none(), "{}", alg.label());
    }
    // Parallel path too.
    let rep = db
        .run(&TopkRequest::from_query(Algorithm::Ir2, &q0).gathered(Gather::Parallel(4)))
        .unwrap();
    assert!(rep.results.is_empty());
    // Oversized k returns every match, exactly once.
    let qbig = DistanceFirstQuery::new([10.0, 10.0], &["pool"], 10_000);
    let truth = brute(&scatter(64), &qbig);
    let rep = db.distance_first(Algorithm::Ir2, &qbig).unwrap();
    assert_matches_brute("oversized k", &rep.results, &truth);
}

#[test]
fn build_rejects_degenerate_shapes() {
    assert!(ShardedDb::<MemDevice>::build(vec![], scatter(10), small_config()).is_err());
    let sets = (0..8).map(|_| DeviceSet::in_memory()).collect();
    assert!(ShardedDb::build(sets, scatter(3), small_config()).is_err());
}

#[test]
fn bounds_cover_every_object() {
    let objects = scatter(150);
    let db = sharded(objects.clone(), 6);
    let mut covered = 0usize;
    for o in &objects {
        if db
            .bounds()
            .iter()
            .flatten()
            .any(|r| r.min_dist(&o.point) == 0.0)
        {
            covered += 1;
        }
    }
    assert_eq!(covered, objects.len());
}

#[test]
fn persistence_roundtrip_on_disk() {
    let dir = std::env::temp_dir().join(format!("ir2tree-sharded-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let objects = scatter(120);
    let q = DistanceFirstQuery::new([210.9, 330.4], &["spa", "suite"], 6);
    let before = {
        let db = ShardedDb::create_in_dir(&dir, objects.clone(), small_config(), 3).unwrap();
        db.distance_first(Algorithm::Ir2, &q).unwrap()
    };
    assert_eq!(sharded_manifest(&dir).unwrap(), Some(3));
    let db = ShardedDb::open_dir(&dir).unwrap();
    assert_eq!(db.shard_count(), 3);
    assert_eq!(db.total_objects(), 120);
    for alg in [
        Algorithm::RTree,
        Algorithm::Ir2,
        Algorithm::Mir2,
        Algorithm::Iio,
    ] {
        let after = db.distance_first(alg, &q).unwrap();
        assert_eq!(after.results.len(), before.results.len(), "{}", alg.label());
        for ((a, da), (b, db_)) in after.results.iter().zip(before.results.iter()) {
            assert_eq!(a.id, b.id, "{}", alg.label());
            assert!((da - db_).abs() < 1e-9, "{}", alg.label());
        }
    }
    // A plain (non-sharded) directory is not misdetected.
    let plain = dir.join("shard-000");
    assert_eq!(sharded_manifest(&plain).unwrap(), None);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn metrics_expose_shard_series() {
    let db = sharded(scatter(100), 4);
    let q = DistanceFirstQuery::new([50.5, 60.7], &["pool"], 3);
    db.distance_first(Algorithm::Ir2, &q).unwrap();
    let text = db.metrics_prometheus();
    assert!(text.contains("shard_count 4"), "{text}");
    assert!(
        text.contains("sharded_queries_total{alg=\"ir2\"}"),
        "{text}"
    );
    assert!(text.contains("shard_objects{shard=\"0\"}"), "{text}");
    assert!(text.contains("sharded_query_shards_touched"), "{text}");
}

// ---------------------------------------------------------------------
// The acceptance property: sharded == single-shard, any dataset, any S.
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
struct Doc {
    point: [f64; 2],
    words: Vec<usize>,
}

fn arb_doc() -> impl Strategy<Value = Doc> {
    (
        prop::array::uniform2(-500.0f64..500.0),
        prop::collection::vec(0..WORDS.len(), 1..4),
    )
        .prop_map(|(point, words)| Doc { point, words })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Across random datasets, query points, keyword sets, and k, the
    /// sharded answer at S ∈ {1, 2, 4, 8} is identical — ids, distances,
    /// order — to the single-shard answer and to the monolithic engine.
    #[test]
    fn sharded_topk_equals_single_shard_for_all_shard_counts(
        docs in prop::collection::vec(arb_doc(), 8..50),
        qpoint in prop::array::uniform2(-600.0f64..600.0),
        kw in 0usize..WORDS.len(),
        k in 1usize..12,
    ) {
        let objects: Vec<SpatialObject<2>> = docs
            .iter()
            .enumerate()
            .map(|(i, d)| {
                let text = d.words.iter().map(|&w| WORDS[w]).collect::<Vec<_>>().join(" ");
                SpatialObject::new(i as u64, d.point, text)
            })
            .collect();
        let q = DistanceFirstQuery::new(qpoint, &[WORDS[kw]], k);
        let mono = SpatialKeywordDb::build(
            DeviceSet::in_memory(), objects.clone(), small_config()).unwrap();
        let single = sharded(objects.clone(), 1);
        let reference = single.distance_first(Algorithm::Ir2, &q).unwrap().results;
        // Sanity: canonical answers agree with the monolithic engine
        // (monolithic breaks exact-distance ties by traversal order, so
        // compare distances bitwise and ids per distance-group).
        let mref = mono.distance_first(Algorithm::Ir2, &q).unwrap().results;
        prop_assert_eq!(mref.len(), reference.len());
        for ((_, da), (_, db_)) in mref.iter().zip(reference.iter()) {
            prop_assert_eq!(da.to_bits(), db_.to_bits());
        }
        for s in [2usize, 4, 8] {
            for alg in [Algorithm::RTree, Algorithm::Ir2, Algorithm::Mir2, Algorithm::Iio] {
                let db = sharded(objects.clone(), s);
                let got = db.distance_first(alg, &q).unwrap().results;
                prop_assert_eq!(got.len(), reference.len(), "s={} {}", s, alg.label());
                for ((a, da), (b, db_)) in got.iter().zip(reference.iter()) {
                    prop_assert_eq!(a.id, b.id, "s={} {}", s, alg.label());
                    prop_assert!((da - db_).abs() < 1e-9, "s={} {}", s, alg.label());
                }
                // The parallel worker path must agree bit-for-bit too.
                let par = db
                    .run(&TopkRequest::from_query(alg, &q).gathered(Gather::Parallel(4)))
                    .unwrap()
                    .results;
                prop_assert_eq!(par.len(), got.len());
                for ((a, da), (b, db_)) in par.iter().zip(got.iter()) {
                    prop_assert_eq!(a.id, b.id);
                    prop_assert_eq!(da.to_bits(), db_.to_bits());
                }
            }
        }
    }

    /// The paper's "an area could be used instead": anchored at a random
    /// rectangle, the sharded answer at S ∈ {1, 2, 4} is the monolithic
    /// one — ids and distance bits — on both signature trees, and under
    /// an I/O budget it is a prefix of it.
    #[test]
    fn sharded_area_topk_equals_monolithic(
        docs in prop::collection::vec(arb_doc(), 8..50),
        corners in (prop::array::uniform2(-600.0f64..600.0), prop::array::uniform2(0.0f64..400.0)),
        kw in 0usize..WORDS.len(),
        k in 1usize..12,
        budget in 1u64..40,
    ) {
        let objects: Vec<SpatialObject<2>> = docs
            .iter()
            .enumerate()
            .map(|(i, d)| {
                let text = d.words.iter().map(|&w| WORDS[w]).collect::<Vec<_>>().join(" ");
                SpatialObject::new(i as u64, d.point, text)
            })
            .collect();
        let (lo, extent) = corners;
        let area = Rect::from_corners(
            Point::new(lo),
            Point::new([lo[0] + extent[0], lo[1] + extent[1]]),
        );
        let mono = SpatialKeywordDb::build(
            DeviceSet::in_memory(), objects.clone(), small_config()).unwrap();
        let key = |r: &[(SpatialObject<2>, f64)]| -> Vec<(u64, u64)> {
            r.iter().map(|(o, d)| (o.id, d.to_bits())).collect()
        };
        for s in [1usize, 2, 4] {
            let db = sharded(objects.clone(), s);
            for alg in [Algorithm::Ir2, Algorithm::Mir2] {
                let req = TopkRequest::new(alg, area, &[WORDS[kw]], k);
                let truth = key(&mono.run(&req).unwrap().results);
                for gather in [Gather::Sequential, Gather::Parallel(3)] {
                    let got = db.run(&req.clone().gathered(gather)).unwrap();
                    prop_assert_eq!(&key(&got.results), &truth, "s={} {} {:?}", s, alg.label(), gather);
                }
                let cut = db
                    .run(&req.clone().limited(QueryLimits::none().with_io_budget(budget)))
                    .unwrap();
                let got = key(&cut.results);
                prop_assert!(got.len() <= truth.len());
                prop_assert_eq!(&got[..], &truth[..got.len()], "s={} {} budget", s, alg.label());
            }
            // The point-anchored structures refuse an area on every engine.
            let refused = db.run(&TopkRequest::new(Algorithm::RTree, area, &[WORDS[kw]], k));
            prop_assert!(matches!(refused, Err(StorageError::Unsupported(_))));
        }
    }
}
