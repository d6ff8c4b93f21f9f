//! End-to-end tests of the database facade: all four algorithms over one
//! store, I/O accounting, persistence, maintenance.

use std::sync::{Arc, OnceLock};
use std::time::Duration;

use ir2tree::geo::{Point, Rect};
use ir2tree::model::{DistanceFirstQuery, QueryRegion, SpatialObject};
use ir2tree::storage::{MemDevice, StorageError};
use ir2tree::text::{DecayRank, SaturatingTfIdf};
use ir2tree::{
    Algorithm, DbConfig, DeviceSet, Gather, QueryError, QueryLimits, QueryReport, ShardedDb,
    SpatialKeywordDb, TopkRequest,
};
use proptest::prelude::*;

fn small_config() -> DbConfig {
    DbConfig {
        capacity: Some(8),
        sig_bytes: 8,
        ..DbConfig::default()
    }
}

fn town(n: usize) -> Vec<SpatialObject<2>> {
    // A deterministic grid of businesses with themed keywords.
    let themes = [
        "coffee wifi pastry",
        "pizza delivery late",
        "gym sauna pool",
        "books coffee quiet",
        "bar live music",
        "pharmacy open sunday",
    ];
    (0..n)
        .map(|i| {
            let x = (i % 25) as f64;
            let y = (i / 25) as f64;
            SpatialObject::new(i as u64, [x, y], themes[i % themes.len()])
        })
        .collect()
}

#[test]
fn all_algorithms_agree_on_results() {
    let db = SpatialKeywordDb::build(DeviceSet::in_memory(), town(200), small_config()).unwrap();
    for keywords in [vec!["coffee"], vec!["coffee", "wifi"], vec!["pool"]] {
        let q = DistanceFirstQuery::new([7.3, 3.1], &keywords, 5);
        let reports: Vec<_> = Algorithm::ALL
            .iter()
            .map(|&alg| db.distance_first(alg, &q).unwrap())
            .collect();
        let reference: Vec<f64> = reports[0].results.iter().map(|(_, d)| *d).collect();
        for (alg, rep) in Algorithm::ALL.iter().zip(&reports) {
            let dists: Vec<f64> = rep.results.iter().map(|(_, d)| *d).collect();
            assert_eq!(dists.len(), reference.len(), "{}", alg.label());
            for (a, b) in dists.iter().zip(reference.iter()) {
                assert!((a - b).abs() < 1e-9, "{}: {a} vs {b}", alg.label());
            }
            for (obj, _) in &rep.results {
                assert!(obj.token_set().contains_all(&keywords), "{}", alg.label());
            }
        }
    }
}

#[test]
fn reports_contain_io_accounting() {
    let db = SpatialKeywordDb::build(DeviceSet::in_memory(), town(300), small_config()).unwrap();
    db.reset_io();
    let q = DistanceFirstQuery::new([5.0, 5.0], &["coffee", "wifi"], 10);
    let rep = db.distance_first(Algorithm::Ir2, &q).unwrap();
    assert!(rep.index_io.total() > 0, "tree reads must be counted");
    assert!(rep.object_loads > 0, "verification loads objects");
    assert_eq!(rep.io, rep.index_io + rep.object_io);
    assert!(rep.simulated > std::time::Duration::ZERO);

    // The baseline R-Tree must load at least as many objects for the same
    // query (the paper's core claim).
    let base = db.distance_first(Algorithm::RTree, &q).unwrap();
    assert!(base.object_loads >= rep.object_loads);
}

/// A ranked request answers alike on both signature trees, and is refused
/// on the algorithms without signatures and on a sharded engine, whose
/// shards' vocabularies keep their own document frequencies.
#[test]
fn general_ranked_queries_work_on_both_trees() {
    let db = SpatialKeywordDb::build(DeviceSet::in_memory(), town(120), small_config()).unwrap();
    let ranked = |alg| {
        TopkRequest::new(alg, Point::new([3.0, 1.0]), &["coffee", "music"], 6)
            .ranked(SaturatingTfIdf, DecayRank { scale: 20.0 })
    };
    let a = db.run(&ranked(Algorithm::Ir2)).unwrap();
    let b = db.run(&ranked(Algorithm::Mir2)).unwrap();
    assert_eq!(a.results.len(), 6);
    assert_eq!(hits(&a.results), hits(&b.results));
    for alg in [Algorithm::RTree, Algorithm::Iio] {
        let err = db.run(&ranked(alg)).unwrap_err();
        assert!(matches!(err, StorageError::Unsupported(_)), "{err}");
    }
    let groups = (0..2).map(|_| DeviceSet::in_memory()).collect();
    let sharded = ShardedDb::build(groups, town(120), small_config()).unwrap();
    match sharded.run(&ranked(Algorithm::Ir2)) {
        Err(StorageError::Unsupported(msg)) => assert!(msg.contains("vocabulary"), "{msg}"),
        other => panic!("a sharded ranked request must be refused: {other:?}"),
    }
}

/// A request may ask for more results than exist — `usize::MAX` for
/// "every match" — and no collector sizes a buffer by `k`: every slot of a
/// batch on the sharded engine (every algorithm), and IIO and a ranked
/// request on the monolithic one, returns every match.
#[test]
fn a_batch_asking_for_every_match_gets_every_match() {
    let mono = SpatialKeywordDb::build(DeviceSet::in_memory(), town(120), small_config()).unwrap();
    let groups = (0..2).map(|_| DeviceSet::in_memory()).collect();
    let sharded = ShardedDb::build(groups, town(120), small_config()).unwrap();
    let all = |alg| TopkRequest::new(alg, Point::new([3.0, 1.0]), &["coffee"], usize::MAX);
    // 2 of 6 themes contain "coffee": 40 of 120 objects.
    let reqs: Vec<TopkRequest> = Algorithm::ALL.into_iter().map(all).collect();
    for (alg, out) in Algorithm::ALL.iter().zip(sharded.run_batch(&reqs, 2)) {
        let report = out.unwrap_or_else(|e| panic!("sharded {}: {e}", alg.label()));
        assert_eq!(report.results.len(), 40, "sharded {}", alg.label());
    }
    let reqs = [
        all(Algorithm::Iio),
        all(Algorithm::Ir2).ranked(SaturatingTfIdf, DecayRank { scale: 20.0 }),
    ];
    for out in mono.run_batch(&reqs, 2) {
        assert_eq!(out.unwrap().results.len(), 40);
    }
}

#[test]
fn index_sizes_report_table2_shape() {
    // Paper-scale fanout (block-derived) and Hotels signature length, so
    // IR²/MIR² nodes genuinely spill onto extra blocks.
    let db = SpatialKeywordDb::build(
        DeviceSet::in_memory(),
        town(500),
        DbConfig {
            capacity: None,
            sig_bytes: 189,
            ..DbConfig::default()
        },
    )
    .unwrap();
    let sizes = db.index_sizes();
    assert!(sizes.rtree > 0 && sizes.iio > 0);
    // Signatures make the IR²-Tree strictly larger than the R-Tree, and the
    // MIR²-Tree at least as large as the IR²-Tree (longer upper levels).
    assert!(
        sizes.ir2 > sizes.rtree,
        "ir2 {} rtree {}",
        sizes.ir2,
        sizes.rtree
    );
    assert!(
        sizes.mir2 >= sizes.ir2,
        "mir2 {} ir2 {}",
        sizes.mir2,
        sizes.ir2
    );
}

#[test]
fn build_stats_match_input() {
    let objs = town(150);
    let db = SpatialKeywordDb::build(DeviceSet::in_memory(), objs, small_config()).unwrap();
    let stats = db.build_stats();
    assert_eq!(stats.objects, 150);
    assert!(stats.avg_unique_words >= 3.0 && stats.avg_unique_words <= 4.0);
    assert!(stats.avg_blocks_per_object >= 1.0);
    assert!(stats.unique_words > 10);
}

/// A node capacity the trees cannot take is an error, not a panic, and
/// not a node header that silently counts its entries modulo 65 536.
#[test]
fn a_capacity_outside_what_a_node_header_holds_is_refused() {
    for capacity in [0, 3, 65_536, 70_000] {
        let config = DbConfig {
            capacity: Some(capacity),
            ..small_config()
        };
        match SpatialKeywordDb::build(DeviceSet::in_memory(), town(10), config) {
            Err(StorageError::Unsupported(msg)) => {
                assert!(msg.contains(&capacity.to_string()), "{msg}")
            }
            Err(e) => panic!("capacity {capacity}: {e}"),
            Ok(_) => panic!("capacity {capacity} was accepted"),
        }
    }
    for capacity in [4, 65_535] {
        let config = DbConfig {
            capacity: Some(capacity),
            ..small_config()
        };
        let db = SpatialKeywordDb::build(DeviceSet::in_memory(), town(10), config).unwrap();
        assert_eq!(db.rtree().config().max_entries, capacity);
    }
}

#[test]
fn insert_and_delete_maintain_all_trees() {
    let mut db = SpatialKeywordDb::build(DeviceSet::in_memory(), town(60), small_config()).unwrap();
    let new_obj = SpatialObject::new(999, [2.0, 2.0], "secret speakeasy coffee");
    let ptr = db.insert(&new_obj).unwrap();

    let q = DistanceFirstQuery::new([2.0, 2.0], &["speakeasy"], 1);
    for alg in [Algorithm::RTree, Algorithm::Ir2, Algorithm::Mir2] {
        let rep = db.distance_first(alg, &q).unwrap();
        assert_eq!(rep.results.len(), 1, "{}", alg.label());
        assert_eq!(rep.results[0].0.id, 999);
    }

    assert!(db.delete(ptr).unwrap());
    for alg in [Algorithm::RTree, Algorithm::Ir2, Algorithm::Mir2] {
        let rep = db.distance_first(alg, &q).unwrap();
        assert!(rep.results.is_empty(), "{}", alg.label());
    }
    assert!(!db.delete(ptr).unwrap(), "double delete reports absence");
}

/// A commit costs the node cache the nodes it wrote and no others: after an
/// insert or a delete, a scan of the whole tree misses exactly the nodes
/// the old tree did not have, is served every other one, and answers from
/// the new tree. `save_catalog` between the commits hands the extents one
/// commit freed to the next, so most of what is written lands on an id
/// whose previous node is still cached — the reuse hazard — and a cached
/// read of every node must give what the device holds.
#[test]
fn a_commit_invalidates_the_nodes_it_wrote_and_no_others() {
    let config = small_config().with_node_cache(512);
    let mut db = SpatialKeywordDb::build(DeviceSet::in_memory(), town(200), config).unwrap();
    let scan = DistanceFirstQuery::<2>::new([12.0, 4.0], &[] as &[&str], 1000);
    let mut live = 200;
    let mut ptrs = Vec::new();
    for round in 0..10u64 {
        let insert = round % 3 != 2;
        db.distance_first(Algorithm::Ir2, &scan).unwrap();
        let before = db.ir2_tree().node_ids().unwrap();
        if insert {
            let at = [round as f64 * 2.5, 3.5];
            ptrs.push(
                db.insert(&SpatialObject::new(1000 + round, at, "new coffee"))
                    .unwrap(),
            );
            live += 1;
        } else {
            assert!(db.delete(ptrs.remove(0)).unwrap());
            live -= 1;
        }
        let after = db.ir2_tree().node_ids().unwrap();
        let written = after.iter().filter(|id| !before.contains(id)).count() as u64;
        assert!(written >= 1, "round {round}: the root moved");

        let rep = db.distance_first(Algorithm::Ir2, &scan).unwrap();
        assert_eq!(rep.results.len(), live, "round {round}");
        assert_eq!(rep.counters.nodes_read, after.len() as u64, "round {round}");
        assert_eq!(rep.counters.cache_misses, written, "round {round}");
        assert_eq!(rep.counters.cache_hits, after.len() as u64 - written);
        assert!(
            rep.counters.cache_hits > 0,
            "round {round}: the cache survived"
        );

        for &id in &after {
            let (image, hit) = db.ir2_tree().read_node_cached(id).unwrap();
            assert!(hit, "round {round}: the scan cached node {id}");
            let on_disk = db.ir2_tree().read_node_buf(id).unwrap();
            assert!(
                image.children().eq(on_disk.children()),
                "round {round}: stale node {id}"
            );
            assert_eq!(image.level(), on_disk.level());
        }
        db.save_catalog().unwrap();
    }
    // An image is invalidated only when a commit writes an extent whose
    // previous node is still cached: that is the reuse having happened.
    let stats = db.node_cache_stats();
    let (_, _, _, invalidated) = stats.iter().find(|s| s.0 == "ir2").unwrap();
    assert!(
        *invalidated > 0,
        "no commit ever wrote over a cached extent"
    );
    assert!(db.metrics_prometheus().contains(&format!(
        "node_cache_invalidated{{tree=\"ir2\"}} {invalidated}"
    )));
}

#[test]
fn incremental_build_matches_bulk_build() {
    let objs = town(180);
    let bulk =
        SpatialKeywordDb::build(DeviceSet::in_memory(), objs.clone(), small_config()).unwrap();
    let incr = SpatialKeywordDb::build(
        DeviceSet::in_memory(),
        objs,
        small_config().with_incremental_build(),
    )
    .unwrap();
    let q = DistanceFirstQuery::new([11.0, 4.0], &["pizza"], 7);
    for alg in [
        Algorithm::RTree,
        Algorithm::Ir2,
        Algorithm::Mir2,
        Algorithm::Iio,
    ] {
        let a = bulk.distance_first(alg, &q).unwrap();
        let b = incr.distance_first(alg, &q).unwrap();
        let da: Vec<f64> = a.results.iter().map(|(_, d)| *d).collect();
        let db_: Vec<f64> = b.results.iter().map(|(_, d)| *d).collect();
        assert_eq!(da.len(), db_.len(), "{}", alg.label());
        for (x, y) in da.iter().zip(db_.iter()) {
            assert!((x - y).abs() < 1e-9);
        }
    }
}

#[test]
fn persistence_roundtrip_on_disk() {
    let dir = std::env::temp_dir().join(format!("ir2tree-facade-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let q = DistanceFirstQuery::new([5.0, 2.0], &["coffee", "quiet"], 4);
    let before = {
        let devices = DeviceSet::create_in_dir(&dir).unwrap();
        let db = SpatialKeywordDb::build(devices, town(100), small_config()).unwrap();
        db.distance_first(Algorithm::Ir2, &q).unwrap()
    };
    let devices = DeviceSet::open_dir(&dir).unwrap();
    let db = SpatialKeywordDb::open(devices).unwrap();
    for alg in Algorithm::ALL {
        let after = db.distance_first(alg, &q).unwrap();
        assert_eq!(after.results.len(), before.results.len(), "{}", alg.label());
        for ((a, da), (b, db_)) in after.results.iter().zip(before.results.iter()) {
            assert_eq!(a.id, b.id);
            assert!((da - db_).abs() < 1e-9);
        }
    }
    assert_eq!(db.build_stats().objects, 100);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn truncated_catalog_vocabulary_is_reported_as_corrupt() {
    use ir2tree::storage::{FileDevice, ShadowPair};

    let dir = std::env::temp_dir().join(format!("ir2tree-vocab-corrupt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    {
        let devices = DeviceSet::create_in_dir(&dir).unwrap();
        SpatialKeywordDb::build(devices, town(50), small_config()).unwrap();
    }
    // Rewrite the catalog with the vocabulary chunk truncated mid-record —
    // going through the shadow pair, so page checksums stay valid. This
    // models logical corruption (an encoder bug, a partial copy), which
    // CRCs cannot catch; only the decoder's own structural validation can.
    {
        let (pair, payload) =
            ShadowPair::open(FileDevice::open(dir.join("catalog.blocks")).unwrap()).unwrap();
        let mut chunks: Vec<Vec<u8>> = Vec::new();
        let mut pos = 0;
        while pos < payload.len() {
            let len = u32::from_le_bytes(payload[pos..pos + 4].try_into().unwrap()) as usize;
            chunks.push(payload[pos + 4..pos + 4 + len].to_vec());
            pos += 4 + len;
        }
        assert_eq!(
            chunks.len(),
            4,
            "catalog layout: config, vocab, dict, stats"
        );
        let cut = chunks[1].len() - 3;
        chunks[1].truncate(cut);
        let mut rewritten = Vec::new();
        for c in &chunks {
            rewritten.extend_from_slice(&(c.len() as u32).to_le_bytes());
            rewritten.extend_from_slice(c);
        }
        pair.save(&rewritten).unwrap();
    }
    let msg = match SpatialKeywordDb::open(DeviceSet::open_dir(&dir).unwrap()) {
        Ok(_) => panic!("opening a vocab-corrupt catalog must fail"),
        Err(e) => e.to_string(),
    };
    // The error is a typed Corrupt naming the structure and the byte
    // offset of the damage — not a silent `None` that loses the database.
    assert!(msg.contains("catalog vocabulary"), "{msg}");
    assert!(msg.contains("vocabulary corrupt at byte"), "{msg}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn empty_build_is_rejected() {
    assert!(SpatialKeywordDb::build(DeviceSet::in_memory(), vec![], small_config()).is_err());
}

/// A gap whose square underflows is still a gap: an object 1e-200 from
/// the query point ranks after the one at the point, at distance 1e-200,
/// on every algorithm.
#[test]
fn an_object_1e_200_from_the_query_point_is_not_at_distance_0() {
    let objects = vec![
        SpatialObject::new(1, [1e-200, 0.0], "coffee"),
        SpatialObject::new(5, [0.0, 0.0], "coffee"),
        SpatialObject::new(9, [3.0, 4.0], "coffee"),
    ];
    let db = SpatialKeywordDb::build(DeviceSet::in_memory(), objects, small_config()).unwrap();
    let q = DistanceFirstQuery::new([0.0, 0.0], &["coffee"], 2);
    for alg in Algorithm::ALL {
        let report = db.distance_first(alg, &q).unwrap();
        let got: Vec<(u64, f64)> = report.results.iter().map(|(o, d)| (o.id, *d)).collect();
        assert_eq!(got, [(5, 0.0), (1, 1e-200)], "{alg:?}");
    }
}

#[test]
fn k_zero_and_oversized_k() {
    let db = SpatialKeywordDb::build(DeviceSet::in_memory(), town(30), small_config()).unwrap();
    let q0 = DistanceFirstQuery::new([0.0, 0.0], &["coffee"], 0);
    assert!(db
        .distance_first(Algorithm::Ir2, &q0)
        .unwrap()
        .results
        .is_empty());
    let qbig = DistanceFirstQuery::new([0.0, 0.0], &["coffee"], 10_000);
    let rep = db.distance_first(Algorithm::Ir2, &qbig).unwrap();
    // 2 of 6 themes contain "coffee": 10 objects.
    assert_eq!(rep.results.len(), 10);
}

/// A query point or area with a NaN or infinite coordinate is refused by
/// `run` and `run_batch` on both engines, for every algorithm, ranked or
/// not, and by the keyword-window entry point: answering it would rank
/// objects by distances (or test a window) that ignore the bad coordinate.
#[test]
fn a_non_finite_region_is_refused_by_both_engines() {
    let mono = SpatialKeywordDb::build(DeviceSet::in_memory(), town(60), small_config()).unwrap();
    let groups = (0..2)
        .map(|_| vec![DeviceSet::in_memory().map(|_, d| Arc::new(d))])
        .collect();
    let sharded = ShardedDb::build_replicated(groups, town(60), small_config()).unwrap();
    let (nan, inf) = (f64::NAN, f64::INFINITY);
    let regions = [
        QueryRegion::Point(Point::new([nan, 0.0])),
        QueryRegion::Point(Point::new([1.0, inf])),
        QueryRegion::Area(Rect::new(Point::new([0.0, 0.0]), Point::new([inf, 1.0]))),
        QueryRegion::Area(Rect::new(Point::new([-inf, 0.0]), Point::new([1.0, 1.0]))),
    ];
    let refused =
        |out: &Outcome| matches!(out, Err(QueryError::Storage(StorageError::Unsupported(_))));
    for alg in Algorithm::ALL {
        let reqs: Vec<TopkRequest> = regions
            .iter()
            .map(|&region| TopkRequest::new(alg, region, &["coffee"], 3))
            .collect();
        for req in &reqs {
            let ctx = format!("{} {:?}", alg.label(), req.region);
            assert!(
                refused(&mono.run(req).map_err(Into::into)),
                "monolithic {ctx}"
            );
            assert!(
                refused(&sharded.run(req).map_err(Into::into)),
                "sharded {ctx}"
            );
        }
        for out in mono
            .run_batch(&reqs, 2)
            .iter()
            .chain(&sharded.run_batch(&reqs, 2))
        {
            assert!(
                refused(out),
                "{} batch: {:?}",
                alg.label(),
                out.as_ref().map(|r| &r.results)
            );
        }
    }
    // A finite region still answers on both.
    let req = TopkRequest::new(Algorithm::Ir2, Point::new([0.0, 0.0]), &["coffee"], 3);
    assert_eq!(mono.run(&req).unwrap().results.len(), 3);
    assert_eq!(sharded.run(&req).unwrap().results.len(), 3);

    // Ranked requests and the window entry point follow the same rule,
    // with the same error.
    let unsupported = |e: StorageError| matches!(e, StorageError::Unsupported(_));
    let ranked = |alg, region| {
        TopkRequest::new(alg, region, &["coffee"], 3)
            .ranked(SaturatingTfIdf, DecayRank { scale: 20.0 })
    };
    for alg in [Algorithm::Ir2, Algorithm::Mir2] {
        let reqs: Vec<TopkRequest> = regions.iter().map(|&r| ranked(alg, r)).collect();
        for (req, batch) in reqs.iter().zip(mono.run_batch(&reqs, 2)) {
            let ctx = format!("{} ranked at {:?}", alg.label(), req.region);
            assert!(unsupported(mono.run(req).unwrap_err()), "{ctx}");
            assert!(refused(&batch), "{ctx} (batch)");
        }
        for window in [
            Rect::from_point(Point::new([nan, 0.0])),
            Rect::new(Point::new([0.0, 0.0]), Point::new([inf, 5.0])),
            Rect::new(Point::new([-inf, 0.0]), Point::new([5.0, 5.0])),
        ] {
            let ctx = format!("{} window {window:?}", alg.label());
            let got = mono.keyword_window(alg, &window, &["coffee".into()]);
            assert!(unsupported(got.unwrap_err()), "{ctx}");
        }
        let finite = ranked(alg, QueryRegion::Point(Point::new([0.0, 0.0])));
        assert_eq!(mono.run(&finite).unwrap().results.len(), 3);
        let window = Rect::new(Point::new([0.0, 0.0]), Point::new([5.0, 5.0]));
        assert!(!mono
            .keyword_window(alg, &window, &["coffee".into()])
            .unwrap()
            .is_empty());
    }
}

// ----------------------------------------------------------------------
// A window is the area search stepped to distance 0.
// ----------------------------------------------------------------------

/// 80 shops on a 10 × 8 grid, two of every four selling espresso.
fn cafes() -> Vec<SpatialObject<2>> {
    let themes = ["espresso bar", "book shop", "espresso roastery", "toy shop"];
    (0..80u64)
        .map(|i| {
            let at = [(i % 10) as f64, (i / 10) as f64];
            SpatialObject::new(i, at, themes[i as usize % themes.len()])
        })
        .collect()
}

/// Sorted ids of `db`'s answer to the window query on `alg`.
fn window_ids(
    db: &SpatialKeywordDb<MemDevice>,
    alg: Algorithm,
    window: &Rect<2>,
    keywords: &[String],
) -> Vec<u64> {
    let mut ids: Vec<u64> = db
        .keyword_window(alg, window, keywords)
        .unwrap()
        .iter()
        .map(|o| o.id)
        .collect();
    ids.sort_unstable();
    ids
}

/// Sorted ids of the objects inside `window` containing every keyword.
fn window_brute_force(
    objs: &[SpatialObject<2>],
    window: &Rect<2>,
    keywords: &[String],
) -> Vec<u64> {
    let mut ids: Vec<u64> = objs
        .iter()
        .filter(|o| window.contains_point(&o.point) && o.token_set().contains_all(keywords))
        .map(|o| o.id)
        .collect();
    ids.sort_unstable();
    ids
}

#[test]
fn window_keyword_query_matches_brute_force() {
    let objs = cafes();
    let db = SpatialKeywordDb::build(DeviceSet::in_memory(), objs.clone(), small_config()).unwrap();
    let window = Rect::from_corners(Point::new([1.0, 1.0]), Point::new([6.0, 5.0]));
    let espresso = ["espresso".to_string()];
    let want = window_brute_force(&objs, &window, &espresso);
    assert!(!want.is_empty());
    for alg in [Algorithm::Ir2, Algorithm::Mir2] {
        assert_eq!(
            window_ids(&db, alg, &window, &espresso),
            want,
            "{}",
            alg.label()
        );
    }
}

#[test]
fn empty_keywords_returns_window_contents() {
    let objs = cafes();
    let db = SpatialKeywordDb::build(DeviceSet::in_memory(), objs.clone(), small_config()).unwrap();
    let window = Rect::from_corners(Point::new([0.0, 0.0]), Point::new([2.0, 2.0]));
    let want = window_brute_force(&objs, &window, &[]);
    assert_eq!(want.len(), 9);
    for alg in [Algorithm::Ir2, Algorithm::Mir2] {
        assert_eq!(window_ids(&db, alg, &window, &[]), want, "{}", alg.label());
    }
}

#[test]
fn absent_keyword_prunes_everything_real() {
    let db = SpatialKeywordDb::build(DeviceSet::in_memory(), cafes(), small_config()).unwrap();
    let window = Rect::from_corners(Point::new([0.0, 0.0]), Point::new([9.0, 9.0]));
    for alg in [Algorithm::Ir2, Algorithm::Mir2] {
        let got = db
            .keyword_window(alg, &window, &["zeppelin".into()])
            .unwrap();
        assert!(got.is_empty(), "{}", alg.label());
    }
}

/// A window reads nodes the way every other query does: without a node
/// cache, and with one that holds the tree — cold, warm, and after an
/// insert and a commit — it answers the brute-force set, and a warm pass is
/// served from the cache alone.
#[test]
fn a_window_reads_through_the_node_cache() {
    let window = Rect::new(Point::new([3.0, 1.0]), Point::new([17.5, 6.0]));
    let coffee = ["coffee".to_string()];
    let cache_of = |db: &SpatialKeywordDb<MemDevice>, alg: Algorithm| {
        let stats = db.node_cache_stats();
        stats.iter().find(|s| s.0 == alg.key()).map(|s| (s.1, s.2))
    };
    for nodes in [0, 4096] {
        let mut objs = town(300);
        let config = small_config().with_node_cache(nodes);
        let mut db = SpatialKeywordDb::build(DeviceSet::in_memory(), objs.clone(), config).unwrap();
        let want = window_brute_force(&objs, &window, &coffee);
        assert!(!want.is_empty());
        for alg in [Algorithm::Ir2, Algorithm::Mir2] {
            let ctx = format!("{} with {nodes} cached nodes", alg.label());
            assert_eq!(window_ids(&db, alg, &window, &coffee), want, "{ctx}, cold");
            let cold = cache_of(&db, alg);
            assert_eq!(window_ids(&db, alg, &window, &coffee), want, "{ctx}, warm");
            let warm = cache_of(&db, alg);
            if nodes == 0 {
                assert_eq!((cold, warm), (None, None), "{ctx}");
            } else {
                let ((cold_hits, cold_misses), (warm_hits, warm_misses)) =
                    (cold.unwrap(), warm.unwrap());
                assert!(cold_misses > 0, "{ctx}: the cold pass filled the cache");
                assert!(warm_hits > cold_hits, "{ctx}: the warm pass hit the cache");
                assert_eq!(
                    warm_misses, cold_misses,
                    "{ctx}: the warm pass read no node"
                );
            }
        }
        let added = SpatialObject::new(1000, [10.5, 2.5], "new coffee");
        db.insert(&added).unwrap();
        db.save_catalog().unwrap();
        objs.push(added);
        let want = window_brute_force(&objs, &window, &coffee);
        assert!(want.contains(&1000));
        for alg in [Algorithm::Ir2, Algorithm::Mir2] {
            let ctx = format!("{} with {nodes} cached nodes, after a commit", alg.label());
            assert_eq!(window_ids(&db, alg, &window, &coffee), want, "{ctx}");
        }
    }
}

// ----------------------------------------------------------------------
// One request, two engines: every cell of the request matrix.
// ----------------------------------------------------------------------

type Outcome = Result<QueryReport, QueryError>;

/// What the cell test needs of an engine: its name, whether it is
/// sharded, `run` and `run_batch`.
struct Engine<'a> {
    name: &'static str,
    sharded: bool,
    run: &'a dyn Fn(&TopkRequest) -> Outcome,
    run_batch: &'a dyn Fn(&[TopkRequest], usize) -> Vec<Outcome>,
}

fn hits(r: &[(SpatialObject<2>, f64)]) -> Vec<(u64, u64)> {
    r.iter().map(|(o, d)| (o.id, d.to_bits())).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// The facade-level twin of `irtree/tests/props.rs::
    /// every_plan_cell_matches_the_plain_run`: every legal `TopkRequest`
    /// cell — {point, area} × {unlimited, I/O budget} × {`Sequential`,
    /// `Parallel`, `Hedged`} — on the monolithic engine and on a 3-shard ×
    /// 2-replica one returns the plain run's ids and distance bits (a
    /// tie-aware exact prefix of the full ranking when the budget
    /// truncates it; nothing for IIO), with counters on both engines in
    /// which every candidate checked is one object load and a signature
    /// tree's visits count their tests; every illegal cell is refused with
    /// `StorageError::Unsupported`, never a panic; and `run_batch` fills
    /// each slot with what `run` returns for that cell.
    #[test]
    fn every_request_cell_matches_the_plain_run(
        at in prop::array::uniform2(-3.0f64..28.0),
        extent in prop::array::uniform2(0.0f64..6.0),
        kw in 0usize..4,
        (k, budget) in (1usize..12, 0u64..60),
        alg in 0usize..4,
    ) {
        const N: usize = 300;
        static MONO: OnceLock<SpatialKeywordDb<MemDevice>> = OnceLock::new();
        static SHARDED: OnceLock<ShardedDb<Arc<MemDevice>>> = OnceLock::new();
        let mono = MONO.get_or_init(|| {
            SpatialKeywordDb::build(DeviceSet::in_memory(), town(N), small_config()).unwrap()
        });
        let sharded = SHARDED.get_or_init(|| {
            let groups = (0..3)
                .map(|_| (0..2).map(|_| DeviceSet::in_memory().map(|_, d| Arc::new(d))).collect())
                .collect();
            ShardedDb::build_replicated(groups, town(N), small_config()).unwrap()
        });
        let engines = [
            Engine {
                name: "monolithic",
                sharded: false,
                run: &|req| mono.run(req).map_err(Into::into),
                run_batch: &|reqs, threads| mono.run_batch(reqs, threads),
            },
            Engine {
                name: "3 shards x 2 replicas",
                sharded: true,
                run: &|req| sharded.run(req).map_err(Into::into),
                run_batch: &|reqs, threads| sharded.run_batch(reqs, threads),
            },
        ];

        let alg = Algorithm::ALL[alg];
        let kws: [&[&str]; 4] = [&["coffee"], &["coffee", "wifi"], &["pool"], &["sunday", "open"]];
        let corner = [at[0] + extent[0], at[1] + extent[1]];
        let regions = [
            QueryRegion::Point(Point::new(at)),
            QueryRegion::Area(Rect::from_corners(Point::new(at), Point::new(corner))),
        ];
        let limit_sets = [QueryLimits::none(), QueryLimits::none().with_io_budget(budget)];
        let gathers = [
            Gather::Sequential,
            Gather::Parallel(3),
            Gather::Hedged(Duration::ZERO),
        ];

        for region in regions {
            let on_signature_tree = matches!(alg, Algorithm::Ir2 | Algorithm::Mir2);
            let area_refused = matches!(region, QueryRegion::Area(_)) && !on_signature_tree;
            // The plain run and the full ranking it is a prefix of, from
            // an algorithm that answers either region.
            let truth_alg = if area_refused { Algorithm::Ir2 } else { alg };
            let plain = hits(&mono.run(&TopkRequest::new(truth_alg, region, kws[kw], k)).unwrap().results);
            let full = hits(&mono.run(&TopkRequest::new(truth_alg, region, kws[kw], N)).unwrap().results);
            prop_assert_eq!(&plain[..], &full[..k.min(full.len())]);

            let cells: Vec<TopkRequest> = limit_sets
                .iter()
                .flat_map(|&limits| gathers.iter().map(move |&gather| (limits, gather)))
                .map(|(limits, gather)| {
                    TopkRequest::new(alg, region, kws[kw], k).limited(limits).gathered(gather)
                })
                .collect();

            for engine in &engines {
                let mut solo = Vec::new();
                for req in &cells {
                    let ctx = format!("{} {:?} on {}", alg.label(), req, engine.name);
                    let legal = !area_refused
                        && (req.gather == Gather::Sequential
                            || (req.limits.is_unlimited()
                                && (engine.sharded || !matches!(req.gather, Gather::Hedged(_)))));
                    let out = (engine.run)(req);
                    match &out {
                        Err(e) => {
                            prop_assert!(!legal, "{}: {}", ctx, e);
                            prop_assert!(
                                matches!(e, QueryError::Storage(StorageError::Unsupported(_))),
                                "{}: {}", ctx, e
                            );
                        }
                        Ok(rep) => {
                            prop_assert!(legal, "{}: answered an illegal cell", ctx);
                            // Both engines report the search's own
                            // counts: every candidate checked is one load,
                            // and a signature tree counts its tests.
                            let c = &rep.counters;
                            if alg != Algorithm::Iio {
                                prop_assert_eq!(c.candidates_checked, rep.object_loads, "{}", ctx);
                            }
                            if on_signature_tree && c.nodes_read > 0 {
                                prop_assert!(c.sig_tests() > 0, "{}: {:?}", ctx, c);
                            } else {
                                prop_assert!(c.per_level.is_empty(), "{}: {:?}", ctx, c);
                            }
                            let got = hits(&rep.results);
                            if rep.outcome.is_none() {
                                prop_assert_eq!(&got, &plain, "{}", ctx);
                            } else {
                                prop_assert!(!req.limits.is_unlimited(), "{}", ctx);
                                prop_assert!(got.len() <= plain.len(), "{}", ctx);
                                prop_assert!(alg != Algorithm::Iio || got.is_empty(), "{}", ctx);
                                // Ids below the boundary distance are
                                // canonical; ids tied at it need only
                                // belong to the full tie group.
                                let boundary = got.last().map(|&(_, d)| d);
                                let mut seen = std::collections::HashSet::new();
                                for (i, &(id, d)) in got.iter().enumerate() {
                                    prop_assert_eq!(d, full[i].1, "{}", ctx);
                                    prop_assert!(seen.insert(id), "{}: duplicate id {}", ctx, id);
                                    if Some(d) != boundary {
                                        prop_assert_eq!(id, full[i].0, "{}", ctx);
                                    } else {
                                        prop_assert!(full.contains(&(id, d)), "{}", ctx);
                                    }
                                }
                            }
                        }
                    }
                    solo.push(out);
                }
                // The batch engine is `run`, slot by slot.
                let batch = (engine.run_batch)(&cells, 3);
                prop_assert_eq!(batch.len(), cells.len());
                for ((req, alone), slot) in cells.iter().zip(&solo).zip(&batch) {
                    let ctx = format!("{} {:?} on {} (batch)", alg.label(), req, engine.name);
                    match (alone, slot) {
                        (Ok(a), Ok(b)) => {
                            prop_assert_eq!(hits(&a.results), hits(&b.results), "{}", ctx);
                            prop_assert_eq!(a.outcome, b.outcome, "{}", ctx);
                        }
                        (Err(_), Err(QueryError::Storage(StorageError::Unsupported(_)))) => {}
                        _ => prop_assert!(false, "{}: run and run_batch disagree", ctx),
                    }
                }
            }
        }
    }
}
