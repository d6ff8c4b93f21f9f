//! Area-anchored queries (the paper's "an area could be used instead" of
//! the query point) and fault-injection behaviour of the IR²-Tree stack.

use std::sync::Arc;

use ir2_geo::{Point, Rect};
use ir2_irtree::{collect_topk, insert_object, DistanceFirstIter, Ir2Payload};
use ir2_model::{ObjectSource, ObjectStore, QueryRegion, SpatialObject};
use ir2_rtree::{RTree, RTreeConfig};
use ir2_sigfile::SignatureScheme;
use ir2_storage::testing::FaultPlan;
use ir2_storage::{MemDevice, StorageError};

fn grid_db() -> (
    Arc<ObjectStore<2, MemDevice>>,
    RTree<2, MemDevice, Ir2Payload>,
    Vec<SpatialObject<2>>,
) {
    let store = Arc::new(ObjectStore::<2, _>::create(MemDevice::new()));
    let tree = RTree::create(
        MemDevice::new(),
        RTreeConfig::with_max(4),
        Ir2Payload::new(SignatureScheme::from_bytes_len(8, 3, 5)),
    )
    .unwrap();
    let themes = ["cafe wifi", "diner grill", "cafe books", "bar snooker"];
    let mut objs = Vec::new();
    for i in 0..64u64 {
        let obj = SpatialObject::new(
            i,
            [(i % 8) as f64, (i / 8) as f64],
            themes[i as usize % themes.len()],
        );
        let ptr = store.append(&obj).unwrap();
        insert_object(&tree, ptr, &obj).unwrap();
        objs.push(obj);
    }
    store.flush().unwrap();
    (store, tree, objs)
}

/// Unlimited top-k anchored at `region`, through the region constructor.
fn region_topk(
    tree: &RTree<2, MemDevice, Ir2Payload>,
    store: &ObjectStore<2, MemDevice>,
    region: QueryRegion<2>,
    keywords: &[&str],
    k: usize,
) -> Vec<(SpatialObject<2>, f64)> {
    let mut iter = DistanceFirstIter::with_region(tree, store, region, keywords);
    collect_topk(&mut iter, k).unwrap().0.into_results()
}

#[test]
fn area_query_returns_contained_objects_first() {
    let (store, tree, objs) = grid_db();
    let area = Rect::from_corners(Point::new([1.5, 1.5]), Point::new([3.5, 3.5]));
    let region = QueryRegion::Area(area);
    let hits = region_topk(&tree, &store, region, &["cafe"], 50);

    // Every "cafe" object inside the area must be reported at distance 0,
    // before anything outside.
    let inside: Vec<u64> = objs
        .iter()
        .filter(|o| area.contains_point(&o.point) && o.token_set().contains("cafe"))
        .map(|o| o.id)
        .collect();
    assert!(
        !inside.is_empty(),
        "fixture must place cafes inside the area"
    );
    let zero_dist: Vec<u64> = hits
        .iter()
        .take_while(|(_, d)| *d == 0.0)
        .map(|(o, _)| o.id)
        .collect();
    let mut zs = zero_dist.clone();
    zs.sort_unstable();
    let mut ins = inside.clone();
    ins.sort_unstable();
    assert_eq!(zs, ins);
    // Distances non-decreasing beyond the area.
    for w in hits.windows(2) {
        assert!(w[0].1 <= w[1].1);
    }
    // Agreement with brute force on the full match set.
    let brute = objs
        .iter()
        .filter(|o| o.token_set().contains("cafe"))
        .count();
    assert_eq!(hits.len(), brute);
}

#[test]
fn area_query_equals_point_query_for_degenerate_area() {
    let (store, tree, _) = grid_db();
    let p = Point::new([4.2, 2.9]);
    let by_area = region_topk(
        &tree,
        &store,
        QueryRegion::Area(Rect::from_point(p)),
        &["cafe"],
        10,
    );
    let by_point = region_topk(&tree, &store, QueryRegion::Point(p), &["cafe"], 10);
    let da: Vec<f64> = by_area.iter().map(|(_, d)| *d).collect();
    let dp: Vec<f64> = by_point.iter().map(|(_, d)| *d).collect();
    assert_eq!(da.len(), dp.len());
    for (a, b) in da.iter().zip(dp.iter()) {
        assert!((a - b).abs() < 1e-12);
    }
}

#[test]
fn tree_device_failure_surfaces_as_error_not_panic() {
    // Build a healthy tree on a flaky device with a generous budget, then
    // exhaust the budget and query: the iterator must yield Err.
    let store = Arc::new(ObjectStore::<2, _>::create(MemDevice::new()));
    let flaky = FaultPlan::budget(u64::MAX / 2).wrap(MemDevice::new());
    let tree = RTree::create(
        flaky,
        RTreeConfig::with_max(4),
        Ir2Payload::new(SignatureScheme::from_bytes_len(8, 3, 5)),
    )
    .unwrap();
    for i in 0..40u64 {
        let obj = SpatialObject::new(i, [i as f64, 0.0], "word pool");
        let ptr = store.append(&obj).unwrap();
        insert_object(&tree, ptr, &obj).unwrap();
    }
    tree.device().plan().set_budget(0); // every further tree I/O fails

    let mut iter = DistanceFirstIter::new(
        &tree,
        store.as_ref() as &dyn ObjectSource<2>,
        ir2_model::DistanceFirstQuery::new([0.0, 0.0], &["pool"], 5),
    );
    match iter.next() {
        Some(Err(StorageError::Io { .. })) => {}
        other => panic!("expected injected Io error, got {other:?}"),
    }

    // Service restored: the same tree keeps working (no corruption).
    tree.device().plan().set_budget(u64::MAX / 2);
    let (hits, _) = ir2_irtree::distance_first_topk(
        &tree,
        store.as_ref(),
        &ir2_model::DistanceFirstQuery::new([0.0, 0.0], &["pool"], 5),
    )
    .unwrap();
    assert_eq!(hits.len(), 5);
}

#[test]
fn object_store_failure_mid_verification_is_an_error() {
    let flaky_store = Arc::new(ObjectStore::<2, _>::create(
        FaultPlan::budget(u64::MAX / 2).wrap(MemDevice::new()),
    ));
    let tree = RTree::create(
        MemDevice::new(),
        RTreeConfig::with_max(4),
        Ir2Payload::new(SignatureScheme::from_bytes_len(8, 3, 5)),
    )
    .unwrap();
    for i in 0..20u64 {
        let obj = SpatialObject::new(i, [i as f64, 1.0], "pool spa");
        let ptr = flaky_store.append(&obj).unwrap();
        insert_object(&tree, ptr, &obj).unwrap();
    }
    flaky_store.device().plan().set_budget(0);
    let res = ir2_irtree::distance_first_topk(
        &tree,
        flaky_store.as_ref(),
        &ir2_model::DistanceFirstQuery::new([0.0, 0.0], &["pool"], 3),
    );
    assert!(matches!(res, Err(StorageError::Io { .. })));
}

#[test]
fn insert_failure_is_an_error_not_a_panic() {
    // Exhaust the budget mid-insert; subsequent operations must error
    // cleanly. (A failed insert may leave the tree partially updated — the
    // paper's structures have no WAL — but it must never panic.)
    let flaky = FaultPlan::budget(30).wrap(MemDevice::new());
    let tree = RTree::create(
        flaky,
        RTreeConfig::with_max(4),
        Ir2Payload::new(SignatureScheme::from_bytes_len(8, 3, 5)),
    )
    .unwrap();
    let store = Arc::new(ObjectStore::<2, _>::create(MemDevice::new()));
    let mut failed = false;
    for i in 0..200u64 {
        let obj = SpatialObject::new(i, [(i % 9) as f64, (i / 9) as f64], "pool");
        let ptr = store.append(&obj).unwrap();
        if insert_object(&tree, ptr, &obj).is_err() {
            failed = true;
            break;
        }
    }
    assert!(failed, "budget of 30 operations must be exhausted");
}
