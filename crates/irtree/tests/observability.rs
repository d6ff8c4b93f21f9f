//! Trace-level observability tests:
//!
//! 1. Insert-driven height growth past the MIR² scheme ladder stays
//!    signature-exact (the `MultiLevelScheme::scheme` clamp audit).
//! 2. Observed per-level signature false-positive rates (derived from a
//!    query-time trace) validate the offline `density_profile` predictions
//!    — the paper's Section VI false-positive story, measured live.

use std::sync::Arc;

use ir2_irtree::{
    collect_topk, density_profile, distance_first_topk, insert_object, DistanceFirstIter,
    Ir2Payload, MirPayload, SearchCounters, SigPayload, StatsSink, TraceSink,
};
use ir2_model::{DistanceFirstQuery, ObjectSource, ObjectStore, SpatialObject};
use ir2_rtree::{RTree, RTreeConfig};
use ir2_sigfile::{MultiLevelScheme, SignatureScheme};
use ir2_storage::MemDevice;

/// `distance_first_topk` with every step reported to `sink`.
fn distance_first_topk_traced<P: SigPayload, S: TraceSink>(
    tree: &RTree<2, MemDevice, P>,
    store: &dyn ObjectSource<2>,
    q: &DistanceFirstQuery<2>,
    sink: S,
) -> ir2_storage::Result<(Vec<(SpatialObject<2>, f64)>, SearchCounters)> {
    let mut iter =
        DistanceFirstIter::with_region_sink(tree, store, q.point.into(), q.keywords.clone(), sink);
    let (outcome, counters) = collect_topk(&mut iter, q.k)?;
    Ok((outcome.into_results(), counters))
}

/// Distinct grid point per object id, so "query from the object's own
/// position with one of its words" has a unique distance-0 answer.
fn object(i: u64, words_mod: u64) -> SpatialObject<2> {
    let text: String = (0..4)
        .map(|j| format!("w{} ", (i * 7 + j * 3) % words_mod))
        .collect();
    SpatialObject::new(i, [(i % 23) as f64, (i / 23) as f64], text)
}

#[test]
fn mir2_stays_exact_when_inserts_outgrow_the_scheme_ladder() {
    // A tiny vocabulary saturates the ladder almost immediately…
    let store = Arc::new(ObjectStore::<2, _>::create(MemDevice::new()));
    let vocab_size = 10;
    let schemes = MultiLevelScheme::new(2, 2, 9, 4, 3.0, vocab_size);
    let ladder_levels = schemes.num_levels();
    assert!(
        ladder_levels <= 2,
        "fixture needs a short ladder, got {ladder_levels}"
    );
    let tree = RTree::create(
        MemDevice::new(),
        RTreeConfig::with_max(4),
        MirPayload::new(schemes, Arc::clone(&store) as Arc<dyn ObjectSource<2>>),
    )
    .unwrap();

    // …and pure insert-driven growth (every split, including root splits,
    // happens through `insert_object`) pushes tree height well past it.
    let n = 300u64;
    let objs: Vec<_> = (0..n)
        .map(|i| {
            let o = object(i, vocab_size as u64);
            let ptr = store.append(&o).unwrap();
            insert_object(&tree, ptr, &o).unwrap();
            o
        })
        .collect();
    store.flush().unwrap();

    let root_level = tree.read_node_buf(tree.root().unwrap()).unwrap().level();
    assert!(
        root_level as usize + 1 > ladder_levels,
        "tree height {} must exceed the ladder ({ladder_levels} levels) for \
         this test to exercise the clamp",
        root_level + 1
    );

    // Signature exactness: every object must be findable by each of its
    // own words from its own position — a false negative anywhere in the
    // clamped upper levels would silently drop it from the result.
    for o in objs.iter().step_by(7) {
        let word = o.token_set().iter().next().unwrap().to_string();
        let q = DistanceFirstQuery::new(*o.point.coords(), &[word.as_str()], 1);
        let mut sink = StatsSink::new();
        let (hits, counters) = distance_first_topk_traced(&tree, &*store, &q, &mut sink).unwrap();
        assert_eq!(hits.len(), 1, "object {} not found via '{word}'", o.id);
        assert_eq!(hits[0].0.id, o.id, "wrong nearest match for '{word}'");
        assert_eq!(hits[0].1, 0.0);
        assert!(
            sink.stats.matches_counters(&counters),
            "trace/counter divergence: {:?} vs {counters:?}",
            sink.stats
        );
        // The trace must have seen every clamped level up to the root.
        assert_eq!(sink.stats.per_level.len(), root_level as usize + 1);
    }
}

#[test]
fn traced_fp_rates_validate_density_profile_predictions() {
    // IR²-Tree with deliberately short uniform signatures: upper levels
    // saturate, which is precisely the phenomenon the per-level tables in
    // Section VI quantify.
    let store = Arc::new(ObjectStore::<2, _>::create(MemDevice::new()));
    let tree = RTree::create(
        MemDevice::new(),
        RTreeConfig::with_max(8),
        Ir2Payload::new(SignatureScheme::from_bytes_len(8, 4, 5)),
    )
    .unwrap();
    for i in 0..400u64 {
        let text: String = (0..8)
            .map(|j| format!("w{} ", (i * 13 + j) % 500))
            .collect();
        let o = SpatialObject::new(i, [(i % 23) as f64, (i / 23) as f64], text);
        let ptr = store.append(&o).unwrap();
        insert_object(&tree, ptr, &o).unwrap();
    }
    store.flush().unwrap();

    // Query with keywords that exist in NO document: every signature match
    // is then a certain false positive, so the observed per-level match
    // rate estimates the level's false-positive rate directly.
    let mut sink = StatsSink::new();
    for qi in 0..25u64 {
        let kw = format!("absentkeyword{qi}");
        let q = DistanceFirstQuery::new([(qi % 23) as f64, (qi % 17) as f64], &[kw.as_str()], 1);
        let (hits, counters) = distance_first_topk_traced(&tree, &*store, &q, &mut sink).unwrap();
        assert!(hits.is_empty(), "absent keyword cannot produce results");
        assert_eq!(
            counters.candidates_checked, counters.false_positives,
            "every fetched candidate must be a false positive"
        );
    }
    let stats = sink.into_stats();
    assert_eq!(stats.objects_fetched, stats.false_positives);
    assert_eq!(
        stats.object_fp_rate(),
        if stats.objects_fetched == 0 { 0.0 } else { 1.0 }
    );

    let profile = density_profile(&tree).unwrap();
    assert_eq!(
        stats.per_level.len(),
        profile.len(),
        "trace saw a different number of levels than the offline walk"
    );
    for ld in &profile {
        let observed = &stats.per_level[ld.level as usize];
        // Only compare levels with enough probes for the estimate to have
        // settled (the root level contributes very few tests per query).
        if observed.tests < 200 {
            continue;
        }
        let diff = (observed.match_rate() - ld.expected_fp).abs();
        assert!(
            diff < 0.1,
            "level {}: observed fp {:.4} vs predicted {:.4} over {} tests",
            ld.level,
            observed.match_rate(),
            ld.expected_fp,
            observed.tests
        );
    }
    // And the headline phenomenon itself: the saturated upper levels prune
    // far worse than the leaves.
    let leaf_rate = stats.per_level[0].match_rate();
    let top_tested = stats
        .per_level
        .iter()
        .rev()
        .find(|l| l.tests > 0)
        .unwrap()
        .match_rate();
    assert!(
        top_tested > leaf_rate,
        "upper-level fp rate {top_tested} should exceed leaf rate {leaf_rate}"
    );
}

#[test]
fn nop_and_stats_sinks_agree_on_counters() {
    let store = Arc::new(ObjectStore::<2, _>::create(MemDevice::new()));
    let tree = RTree::create(
        MemDevice::new(),
        RTreeConfig::with_max(4),
        Ir2Payload::new(SignatureScheme::from_bytes_len(8, 3, 1)),
    )
    .unwrap();
    for i in 0..120u64 {
        let o = object(i, 40);
        let ptr = store.append(&o).unwrap();
        insert_object(&tree, ptr, &o).unwrap();
    }
    store.flush().unwrap();

    let q = DistanceFirstQuery::new([4.0, 2.0], &["w3", "w8"], 5);
    let (plain_hits, plain_counters) = distance_first_topk(&tree, &*store, &q).unwrap();
    let mut sink = StatsSink::new();
    let (traced_hits, traced_counters) =
        distance_first_topk_traced(&tree, &*store, &q, &mut sink).unwrap();

    // Tracing must not change the query's behavior in any observable way.
    assert_eq!(plain_counters, traced_counters);
    assert_eq!(plain_hits.len(), traced_hits.len());
    for (a, b) in plain_hits.iter().zip(&traced_hits) {
        assert_eq!(a.0.id, b.0.id);
        assert_eq!(a.1, b.1);
    }
    assert!(sink.stats.matches_counters(&traced_counters));
}
