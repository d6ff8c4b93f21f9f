//! Observability integration: the algorithms' own counters, the event
//! streams of traced runs, and the storage layer's I/O attribution must
//! all tell the same story — solo or inside the concurrent batch engine —
//! and the metrics registry must aggregate them faithfully.

use ir2_datagen::DatasetSpec;
use ir2tree::irtree::{SearchCounters, TraceEvent, VecSink};
use ir2tree::model::DistanceFirstQuery;
use ir2tree::model::SpatialObject;
use ir2tree::storage::MemDevice;
use ir2tree::text::{LinearRank, SaturatingTfIdf};
use ir2tree::{Algorithm, DbConfig, DeviceSet, QueryReport, SpatialKeywordDb, TopkRequest};

fn small_config() -> DbConfig {
    DbConfig {
        capacity: Some(8),
        sig_bytes: 8,
        ..DbConfig::default()
    }
}

fn town(n: usize) -> Vec<SpatialObject<2>> {
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

/// The request each query stands for on `alg`.
fn requests(alg: Algorithm, queries: &[DistanceFirstQuery<2>]) -> Vec<TopkRequest> {
    queries
        .iter()
        .map(|q| TopkRequest::from_query(alg, q))
        .collect()
}

/// The batch engine's report for every query, none failed.
fn run_batch(
    db: &SpatialKeywordDb<MemDevice>,
    alg: Algorithm,
    queries: &[DistanceFirstQuery<2>],
    threads: usize,
) -> Vec<QueryReport> {
    db.run_batch(&requests(alg, queries), threads)
        .into_iter()
        .map(|r| r.expect("no query fails on healthy devices"))
        .collect()
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

fn queries() -> Vec<DistanceFirstQuery<2>> {
    let kws: [&[&str]; 3] = [&["coffee"], &["coffee", "wifi"], &["pool"]];
    (0..12)
        .map(|i| {
            DistanceFirstQuery::new(
                [(i % 7) as f64 * 3.0, (i % 5) as f64 * 2.0],
                kws[i % kws.len()],
                4,
            )
        })
        .collect()
}

/// The heart of the observability contract, across all four algorithms
/// and, on the signature trees, the general (ranked) order too:
///
/// * a report's counters are what the event stream of the same query,
///   traced, folds to;
/// * the counters' candidate checks equal the `CountingSource` /
///   object-store load count the report attributes to the query, and
///   every visited node was a cache hit or a miss;
/// * a query reports *bit-for-bit identical* measurements — I/O split into
///   random and sequential accesses and simulated time included — whether
///   it runs alone or inside the concurrent batch engine: both measure
///   through `IoScope` per-thread attribution + `CountingSource`.
#[test]
fn solo_and_batch_reports_are_identical_for_every_algorithm() {
    let db = SpatialKeywordDb::build(DeviceSet::in_memory(), town(250), small_config()).unwrap();
    db.reset_io();
    let qs = queries();
    let rank = LinearRank {
        ir_weight: 1.0,
        dist_weight: 0.05,
    };
    let ranked = |alg| {
        qs.iter()
            .map(|q| TopkRequest::from_query(alg, q).ranked(SaturatingTfIdf, rank))
            .collect::<Vec<_>>()
    };
    let inputs = Algorithm::ALL
        .iter()
        .map(|&alg| (alg.label(), requests(alg, &qs)))
        .chain([
            ("IR2-Tree ranked", ranked(Algorithm::Ir2)),
            ("MIR2-Tree ranked", ranked(Algorithm::Mir2)),
        ]);

    for (label, reqs) in inputs {
        let solo: Vec<_> = reqs.iter().map(|req| db.run(req).unwrap()).collect();
        let batch: Vec<_> = db
            .run_batch(&reqs, 4)
            .into_iter()
            .map(|r| r.expect("no query fails on healthy devices"))
            .collect();
        assert_eq!(solo.len(), batch.len());

        for (i, (s, b)) in solo.iter().zip(&batch).enumerate() {
            let ctx = format!("{label} query {i}");
            // The report's counters against the traced run's events.
            let mut log = VecSink::new();
            let traced = db.run_traced(&reqs[i], &mut log).unwrap();
            assert_eq!(traced.counters, s.counters, "{ctx}: traced");
            assert_eq!(
                log.counters(),
                uncached(&s.counters),
                "{ctx}: trace/counter divergence"
            );
            let c = &s.counters;
            assert_eq!(c.nodes_read, c.cache_hits + c.cache_misses, "{ctx}");
            if reqs[i].alg != Algorithm::Iio {
                // Every object fetch the algorithm performed is one load on
                // the object store — the counters and the I/O layer agree.
                assert_eq!(c.candidates_checked, s.object_loads, "{ctx}");
                assert!(c.nodes_read > 0, "{ctx}");
            }
            // Solo and concurrent execution agree on everything measured.
            assert_eq!(s.counters, b.counters, "{ctx}");
            assert_eq!(s.object_loads, b.object_loads, "{ctx}");
            assert_eq!(s.index_io, b.index_io, "{ctx}");
            assert_eq!(s.object_io, b.object_io, "{ctx}");
            assert_eq!(s.io, b.io, "{ctx}");
            assert_eq!(s.simulated, b.simulated, "{ctx}");
            assert_eq!(s.results.len(), b.results.len(), "{ctx}");
            for (x, y) in s.results.iter().zip(&b.results) {
                assert_eq!(x.0.id, y.0.id, "{ctx}");
                assert_eq!(x.1, y.1, "{ctx}");
            }
        }
    }
}

/// With a node cache attached, a batch report's `IoScope`-attributed block
/// counts are everything the query caused: they equal what the tracked
/// devices counted over that call, on the pass that fills the cache and on
/// the pass it serves. (Nothing reads on the query's behalf from a thread
/// the scope does not see.)
#[test]
fn scoped_batch_io_equals_the_device_deltas_over_a_node_cache() {
    let config = small_config().with_node_cache(64);
    let db = SpatialKeywordDb::build(DeviceSet::in_memory(), town(250), config).unwrap();
    let device_totals = || {
        let (objects, rtree, ir2, mir2, inverted) = db.io_totals();
        let index = rtree.total() + ir2.total() + mir2.total() + inverted.total();
        (index, objects.total())
    };
    for alg in Algorithm::ALL {
        for warm in [false, true] {
            let mut hits = 0;
            for (i, q) in queries().iter().enumerate() {
                let before = device_totals();
                let report = run_batch(&db, alg, std::slice::from_ref(q), 1).remove(0);
                let after = device_totals();
                let ctx = format!("{} query {i}, warm pass: {warm}", alg.label());
                assert_eq!(report.index_io.total(), after.0 - before.0, "{ctx}");
                assert_eq!(report.object_io.total(), after.1 - before.1, "{ctx}");
                hits += report.counters.cache_hits;
            }
            if warm && alg != Algorithm::Iio {
                assert!(
                    hits > 0,
                    "{}: the warm pass must use the cache",
                    alg.label()
                );
            }
        }
    }
}

#[test]
fn metrics_registry_aggregates_query_counters_exactly() {
    let db = SpatialKeywordDb::build(DeviceSet::in_memory(), town(250), small_config()).unwrap();
    db.reset_io();
    let qs = queries();
    let before = db.metrics().snapshot();

    let solo: Vec<_> = qs
        .iter()
        .map(|q| db.distance_first(Algorithm::Mir2, q).unwrap())
        .collect();
    let _batch = run_batch(&db, Algorithm::Mir2, &qs, 4);

    let delta = db.metrics().snapshot().delta(&before);
    // Solo pass + batch pass: every query counted exactly once each.
    assert_eq!(
        delta.counter("queries_total{alg=\"mir2\"}"),
        2 * qs.len() as u64
    );
    let expect_tests: u64 = solo.iter().map(|r| r.counters.sig_tests()).sum();
    assert_eq!(
        delta.counter("signature_tests_total{alg=\"mir2\"}"),
        2 * expect_tests,
        "solo and batch runs of identical queries test identical signatures"
    );
    let expect_io: u64 = solo.iter().map(|r| r.io.total()).sum();
    assert_eq!(
        delta.counter("io_random_reads_total{alg=\"mir2\"}")
            + delta.counter("io_sequential_reads_total{alg=\"mir2\"}"),
        2 * expect_io,
        "registry I/O counters match the reports' snapshots"
    );

    // The untouched algorithms saw nothing.
    assert_eq!(delta.counter("queries_total{alg=\"rtree\"}"), 0);

    // And the text exposition is well-formed: finite numbers only.
    let text = db.metrics_prometheus();
    assert!(text.contains("queries_total{alg=\"mir2\"}"));
    assert!(text.contains("query_io_blocks_sum{alg=\"mir2\"}"));
    assert!(text.contains("device_read_blocks{device=\"mir2\"}"));
    assert!(!text.contains("NaN"), "no NaN may ever be exported");
    assert!(!text.contains("inf"), "no infinity may ever be exported");
}

/// FNV-1a over 64-bit words.
fn fnv(digest: &mut u64, word: u64) {
    for b in word.to_le_bytes() {
        *digest = (*digest ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
}

fn stats_digest(digest: &mut u64, s: &SearchCounters) {
    for word in [
        s.nodes_read,
        s.entries_scanned,
        s.sig_tests(),
        s.sig_matched(),
        s.candidates_checked,
        s.false_positives,
        s.max_heap,
        s.per_level.len() as u64,
    ] {
        fnv(digest, word);
    }
    for l in &s.per_level {
        fnv(digest, l.tests);
        fnv(digest, l.matched);
    }
}

fn events_digest(digest: &mut u64, events: &[TraceEvent]) {
    for e in events {
        match *e {
            TraceEvent::NodeVisited {
                node,
                level,
                mindist,
                entries,
                heap_size,
            } => [
                0,
                node,
                level.into(),
                mindist.to_bits(),
                entries as u64,
                heap_size as u64,
            ]
            .into_iter()
            .for_each(|w| fnv(digest, w)),
            TraceEvent::SignatureTest { level, matched } => {
                [1, level.into(), matched.into()]
                    .into_iter()
                    .for_each(|w| fnv(digest, w));
            }
            TraceEvent::ObjectFetched {
                ptr,
                distance,
                matched,
            } => [2, ptr, distance.to_bits(), matched.into()]
                .into_iter()
                .for_each(|w| fnv(digest, w)),
        }
    }
}

/// `run`'s search counts a visited node's signature tests in one tally;
/// `run_traced` with a `VecSink` gets them as one event per entry. On a
/// 1 %-scale Hotels database, for IR² and MIR², the report's counters are
/// the folded stream, query for query, and both runs answer alike. The
/// counts and the streams are pinned by digest: they are what the
/// per-entry loop produced.
#[test]
fn run_pruning_equals_the_folded_trace_of_run_traced() {
    let spec = DatasetSpec::hotels().scaled(0.01);
    let objects: Vec<SpatialObject<2>> = spec.generate().collect();
    let db = SpatialKeywordDb::build(DeviceSet::in_memory(), objects.clone(), DbConfig::default())
        .unwrap();
    // Query from every 13th object's position with one or two of its own
    // words, or with a word of known rank that few objects hold.
    let queries: Vec<DistanceFirstQuery<2>> = (0..100)
        .map(|i| {
            let o = &objects[(i * 13) % objects.len()];
            let own: Vec<String> = o.text.split_whitespace().map(str::to_owned).collect();
            let kws = match i % 4 {
                0 => vec![own[0].clone()],
                1 => vec![own[0].clone(), own[own.len() - 1].clone()],
                2 => vec![spec.keyword_of_rank(50 + i)],
                _ => vec![spec.keyword_of_rank(3), own[own.len() / 2].clone()],
            };
            DistanceFirstQuery::new(*o.point.coords(), &kws, 1 + i % 10)
        })
        .collect();

    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    for alg in [Algorithm::Ir2, Algorithm::Mir2] {
        let mut tested = 0;
        for (i, q) in queries.iter().enumerate() {
            let ctx = format!("{} query {i}", alg.label());
            let req = TopkRequest::from_query(alg, q);
            let report = db.run(&req).unwrap();
            let mut log = VecSink::new();
            let traced = db.run_traced(&req, &mut log).unwrap();
            assert_eq!(uncached(&report.counters), log.counters(), "{ctx}");
            assert_eq!(report.counters, traced.counters, "{ctx}");
            let ids = |r: &QueryReport| -> Vec<(u64, u64)> {
                r.results.iter().map(|(o, d)| (o.id, d.to_bits())).collect()
            };
            assert_eq!(ids(&report), ids(&traced), "{ctx}");
            tested += report.counters.sig_tests();
            stats_digest(&mut digest, &report.counters);
            events_digest(&mut digest, &log.events);
        }
        assert!(tested > 0, "{}: the queries test signatures", alg.label());
    }
    // Taken with this test body on the commit before the per-node call,
    // when the iterator recorded one event per entry.
    assert_eq!(
        digest, 0xa430_ec18_5a78_6aa6,
        "counts or trace differ from the per-entry loop's"
    );
}
