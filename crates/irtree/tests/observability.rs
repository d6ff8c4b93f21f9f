//! Trace-level observability tests:
//!
//! 1. Insert-driven height growth past the MIR² scheme ladder stays
//!    signature-exact (the `MultiLevelScheme::scheme` clamp audit).
//! 2. Observed per-level signature false-positive rates (derived from a
//!    query-time trace) validate the offline `density_profile` predictions
//!    — the paper's Section VI false-positive story, measured live.
//! 3. A visited node reports its signature tests in one call: the search's
//!    per-node tally, the per-entry event stream and the untraced run tell
//!    the same story, on both trees, with and without a node cache.

use std::sync::Arc;

use ir2_irtree::{
    bulk_load_objects, collect_topk, density_profile, distance_first_topk, insert_object,
    DistanceFirstIter, Ir2Payload, MirPayload, SearchCounters, SigPayload, TraceEvent, TraceSink,
    VecSink,
};
use ir2_model::{DistanceFirstQuery, ObjPtr, ObjectSource, ObjectStore, SpatialObject};
use ir2_rtree::{NodeCache, RTree, RTreeConfig};
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

/// `c` without its cache split — what the folded event stream of the same
/// search gives, since no event says where a node came from.
fn uncached(c: &SearchCounters) -> SearchCounters {
    SearchCounters {
        cache_hits: 0,
        cache_misses: 0,
        ..c.clone()
    }
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
        let mut log = VecSink::new();
        let (hits, counters) = distance_first_topk_traced(&tree, &*store, &q, &mut log).unwrap();
        assert_eq!(hits.len(), 1, "object {} not found via '{word}'", o.id);
        assert_eq!(hits[0].0.id, o.id, "wrong nearest match for '{word}'");
        assert_eq!(hits[0].1, 0.0);
        assert_eq!(
            log.counters(),
            uncached(&counters),
            "trace/counter divergence"
        );
        // The search must have tested every clamped level up to the root.
        assert_eq!(counters.per_level.len(), root_level as usize + 1);
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
    let mut stats = SearchCounters::default();
    for qi in 0..25u64 {
        let kw = format!("absentkeyword{qi}");
        let q = DistanceFirstQuery::new([(qi % 23) as f64, (qi % 17) as f64], &[kw.as_str()], 1);
        let (hits, counters) = distance_first_topk(&tree, &*store, &q).unwrap();
        assert!(hits.is_empty(), "absent keyword cannot produce results");
        assert_eq!(
            counters.candidates_checked, counters.false_positives,
            "every fetched candidate must be a false positive"
        );
        stats += &counters;
    }
    assert_eq!(stats.candidates_checked, stats.false_positives);
    assert_eq!(
        stats.object_fp_rate(),
        if stats.candidates_checked == 0 {
            0.0
        } else {
            1.0
        }
    );

    let profile = density_profile(&tree).unwrap();
    assert_eq!(
        stats.per_level.len(),
        profile.len(),
        "the searches tested a different number of levels than the offline walk"
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
fn nop_and_vec_sinks_agree_on_counters() {
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
    let mut log = VecSink::new();
    let (traced_hits, traced_counters) =
        distance_first_topk_traced(&tree, &*store, &q, &mut log).unwrap();

    // Tracing must not change the query's behavior in any observable way.
    assert_eq!(plain_counters, traced_counters);
    assert_eq!(plain_hits.len(), traced_hits.len());
    for (a, b) in plain_hits.iter().zip(&traced_hits) {
        assert_eq!(a.0.id, b.0.id);
        assert_eq!(a.1, b.1);
    }
    assert_eq!(log.counters(), uncached(&traced_counters));
    assert!(
        traced_counters.pruned_by_signature() > 0,
        "the query prunes"
    );
}

/// splitmix64: the query generator's seeded stream.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// 64 seeded queries over `object(_, 200)`'s vocabulary; the first has no
/// keywords (plain nearest neighbours, every entry matches).
fn seeded_queries() -> Vec<DistanceFirstQuery<2>> {
    let mut state = 0x2008;
    (0..64)
        .map(|qi| {
            let point = [
                (next(&mut state) % 9_000) as f64 / 100.0,
                (next(&mut state) % 9_000) as f64 / 100.0,
            ];
            let words = if qi == 0 { 0 } else { 1 + next(&mut state) % 3 };
            let kws: Vec<String> = (0..words)
                .map(|_| format!("w{}", next(&mut state) % 200))
                .collect();
            let k = 1 + (next(&mut state) % 10) as usize;
            DistanceFirstQuery::new(point, &kws, k)
        })
        .collect()
}

/// FNV-1a over a trace's events, field by field.
fn stream_digest(digest: &mut u64, events: &[TraceEvent]) {
    let mut eat = |word: u64| {
        for b in word.to_le_bytes() {
            *digest = (*digest ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for e in events {
        match *e {
            TraceEvent::NodeVisited {
                node,
                level,
                mindist,
                entries,
                heap_size,
            } => {
                eat(0);
                eat(node);
                eat(level.into());
                eat(mindist.to_bits());
                eat(entries as u64);
                eat(heap_size as u64);
            }
            TraceEvent::SignatureTest { level, matched } => {
                eat(1);
                eat(level.into());
                eat(matched.into());
            }
            TraceEvent::ObjectFetched {
                ptr,
                distance,
                matched,
            } => {
                eat(2);
                eat(ptr);
                eat(distance.to_bits());
                eat(matched.into());
            }
        }
    }
}

/// Every `NodeVisited` is followed by exactly `entries` signature tests at
/// its level, and no signature test appears anywhere else.
fn assert_one_report_per_visit(events: &[TraceEvent], ctx: &str) {
    let mut i = 0;
    while i < events.len() {
        match events[i] {
            TraceEvent::NodeVisited { level, entries, .. } => {
                let tests = &events[i + 1..(i + 1 + entries).min(events.len())];
                assert_eq!(tests.len(), entries, "{ctx}: event {i} is cut short");
                for (j, t) in tests.iter().enumerate() {
                    assert!(
                        matches!(*t, TraceEvent::SignatureTest { level: l, .. } if l == level),
                        "{ctx}: entry {j} of the visit at event {i} is {t:?}"
                    );
                }
                i += 1 + entries;
            }
            TraceEvent::SignatureTest { .. } => panic!("{ctx}: stray test at event {i}"),
            TraceEvent::ObjectFetched { .. } => i += 1,
        }
    }
}

/// Runs every query untraced and through a `VecSink` on `tree`, asserts
/// they agree and that the stream folds to the search's counters, and
/// returns the event streams.
fn traced_streams<P: SigPayload>(
    tree: &RTree<2, MemDevice, P>,
    store: &dyn ObjectSource<2>,
    queries: &[DistanceFirstQuery<2>],
    name: &str,
) -> Vec<Vec<TraceEvent>> {
    let ids = |hits: &[(SpatialObject<2>, f64)]| -> Vec<(u64, u64)> {
        hits.iter().map(|(o, d)| (o.id, d.to_bits())).collect()
    };
    queries
        .iter()
        .enumerate()
        .map(|(qi, q)| {
            let ctx = format!("{name} query {qi}");
            // A first pass fills a cache, so every run below sees the same
            // hits and misses.
            distance_first_topk(tree, store, q).unwrap();
            let (plain, plain_counters) = distance_first_topk(tree, store, q).unwrap();
            let mut log = VecSink::new();
            let (logged, logged_counters) =
                distance_first_topk_traced(tree, store, q, &mut log).unwrap();

            assert_eq!(ids(&logged), ids(&plain), "{ctx}: VecSink results");
            assert_eq!(logged_counters, plain_counters, "{ctx}: VecSink counters");
            assert_eq!(
                log.counters(),
                uncached(&plain_counters),
                "{ctx}: tally vs stream"
            );
            assert!(plain_counters.nodes_read > 0, "{ctx}: the query visits");
            assert_one_report_per_visit(&log.events, &ctx);
            log.events
        })
        .collect()
}

/// `items` bulk-loaded into a fanout-80 tree, with or without a node cache
/// that holds all of it.
fn packed<P: SigPayload>(
    payload: P,
    cached: bool,
    items: &[(ObjPtr, SpatialObject<2>)],
) -> RTree<2, MemDevice, P> {
    let mut tree = RTree::create(MemDevice::new(), RTreeConfig::with_max(80), payload).unwrap();
    if cached {
        tree.set_node_cache(Arc::new(NodeCache::new(1_024)));
    }
    bulk_load_objects(&tree, items.iter().cloned()).unwrap();
    tree
}

/// `DistanceFirstIter` counts a visited node's mask in one tally and hands
/// it to the sink in one call. On IR² and MIR² trees, with and without a
/// node cache, the search's counters equal the folded `VecSink` stream,
/// that stream has one test per entry right after each visit, and tracing
/// changes neither the results nor the counters of the untraced run. The streams of the uncached
/// trees are pinned by digest: they are the per-entry loop's, event for
/// event.
#[test]
fn a_visit_reports_its_tests_once_and_every_sink_agrees() {
    let store = Arc::new(ObjectStore::<2, _>::create(MemDevice::new()));
    let items: Vec<_> = (0..8_000u64)
        .map(|i| {
            let o = SpatialObject::new(i, [(i % 90) as f64, (i / 90) as f64], object(i, 200).text);
            (store.append(&o).unwrap(), o)
        })
        .collect();
    store.flush().unwrap();
    let ir2 = |cached| {
        let payload = Ir2Payload::new(SignatureScheme::from_bytes_len(8, 3, 11));
        packed(payload, cached, &items)
    };
    let mir2 = |cached| {
        let schemes = MultiLevelScheme::new(8, 3, 11, 80, 4.0, 200);
        let source = Arc::clone(&store) as Arc<dyn ObjectSource<2>>;
        packed(MirPayload::new(schemes, source), cached, &items)
    };

    let queries = seeded_queries();
    assert!(queries[0].keywords.is_empty());
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    let (plain, warm) = (ir2(false), ir2(true));
    assert_eq!(plain.height(), 3);
    let streams = traced_streams(&plain, &*store, &queries, "IR²");
    assert_eq!(
        traced_streams(&warm, &*store, &queries, "IR², cached"),
        streams
    );
    streams.iter().for_each(|s| stream_digest(&mut digest, s));
    let (plain, warm) = (mir2(false), mir2(true));
    let streams = traced_streams(&plain, &*store, &queries, "MIR²");
    assert_eq!(
        traced_streams(&warm, &*store, &queries, "MIR², cached"),
        streams
    );
    streams.iter().for_each(|s| stream_digest(&mut digest, s));
    // Taken with this test body on the commit before the per-node call,
    // when the iterator recorded one event per entry.
    assert_eq!(
        digest, 0xcc75_fa9b_61c8_ffd5,
        "event streams differ from the per-entry loop's"
    );
}
