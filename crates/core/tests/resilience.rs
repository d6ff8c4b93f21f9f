//! Resilient query execution, end to end: transient-fault retries under an
//! intermittent 1-in-8 fault rate, execution limits (deadline / I/O budget
//! / frontier cap) with prefix-exact degraded results across all four
//! algorithms, and per-query fault isolation in the batch engine.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use ir2tree::model::{DistanceFirstQuery, SpatialObject};
use ir2tree::storage::testing::FaultPlan;
use ir2tree::storage::{BlockDevice, BlockId, MemDevice, MetricsRegistry, Result, BLOCK_SIZE};
use ir2tree::text::SaturatingTfIdf;
use ir2tree::{
    Algorithm, DbConfig, DeviceSet, QueryError, QueryLimits, QueryReport, RetryDevice, RetryPolicy,
    ShardedDb, SpatialKeywordDb, TopkRequest, TruncateReason,
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

fn queries(n: usize, k: usize) -> Vec<DistanceFirstQuery<2>> {
    let kws: [&[&str]; 4] = [&["coffee"], &["coffee", "wifi"], &["pool"], &["music"]];
    (0..n)
        .map(|i| {
            let x = (i % 23) as f64 + 0.3;
            let y = (i % 17) as f64 + 0.7;
            DistanceFirstQuery::new([x, y], kws[i % kws.len()], k)
        })
        .collect()
}

// ----------------------------------------------------------------------
// Retries: intermittent faults are absorbed, never surfaced.
// ----------------------------------------------------------------------

/// One `limits`-bound request per query, all on `alg`.
fn requests(
    alg: Algorithm,
    queries: &[DistanceFirstQuery<2>],
    limits: QueryLimits,
) -> Vec<TopkRequest> {
    queries
        .iter()
        .map(|q| TopkRequest::from_query(alg, q).limited(limits))
        .collect()
}

/// The acceptance scenario: every device fails every 8th operation with a
/// transient fault, and a 1000-query concurrent batch completes with zero
/// failures — every fault recovered by retry.
#[test]
fn thousand_query_batch_survives_one_in_eight_faults() {
    let registry = Arc::new(MetricsRegistry::new());
    let devices = DeviceSet::in_memory()
        .map(|_, d| FaultPlan::every_kth(8).wrap(d))
        .map(|name, d| RetryDevice::with_metrics(d, RetryPolicy::default(), &registry, name));
    let db = SpatialKeywordDb::build_with_registry(
        devices,
        town(400),
        small_config(),
        Arc::clone(&registry),
    )
    .expect("build recovers from intermittent faults too");

    let qs = queries(1000, 5);
    let outcomes = db.run_batch(&requests(Algorithm::Ir2, &qs, QueryLimits::none()), 4);
    assert_eq!(outcomes.len(), 1000);
    let mut retries = 0u64;
    for (i, out) in outcomes.iter().enumerate() {
        let r = out.as_ref().unwrap_or_else(|e| panic!("query {i}: {e}"));
        assert!(r.outcome.is_none(), "query {i} must not be truncated");
        retries += r.retries;
    }
    assert!(
        retries > 0,
        "a 1-in-8 fault rate must have triggered retries"
    );

    // Results under faults match a clean run exactly.
    let clean = SpatialKeywordDb::build(DeviceSet::in_memory(), town(400), small_config()).unwrap();
    for (q, out) in qs.iter().take(25).zip(&outcomes) {
        let faulty = out.as_ref().unwrap();
        let reference = clean.distance_first(Algorithm::Ir2, q).unwrap();
        let a: Vec<u64> = faulty.results.iter().map(|(o, _)| o.id).collect();
        let b: Vec<u64> = reference.results.iter().map(|(o, _)| o.id).collect();
        assert_eq!(a, b);
    }

    // The shared registry saw both the device-level recoveries and the
    // per-query retry attribution.
    let prom = registry.export_prometheus();
    assert!(prom.contains("device_retry_recoveries_total"), "{prom}");
    assert!(prom.contains("query_retries_total"), "{prom}");
}

/// Retries are attributed on every path, not only the scoped one: two
/// identically built databases (same fault phase on every device) answer
/// the same query through a single `run` (counter-delta attribution) and
/// through a one-request `run_batch` (`IoScope` attribution), and report
/// the same nonzero retry count. The delta path used to hard-code zero.
/// Over healthy devices the retry layer reports no retry on either path.
#[test]
fn unlimited_path_reports_retries_like_the_limited_path() {
    let build = || {
        let devices = DeviceSet::in_memory()
            .map(|_, d| FaultPlan::every_kth(5).wrap(d))
            .map(|_, d| RetryDevice::new(d));
        SpatialKeywordDb::build(devices, town(400), small_config()).unwrap()
    };
    let (plain_db, limited_db) = (build(), build());
    let clean_devices = DeviceSet::in_memory().map(|_, d| RetryDevice::new(d));
    let clean_db = SpatialKeywordDb::build(clean_devices, town(400), small_config()).unwrap();
    let q = DistanceFirstQuery::new([7.3, 3.1], &["coffee"], 20);
    for alg in Algorithm::ALL {
        let req = TopkRequest::from_query(alg, &q);
        let clean = [
            clean_db.run(&req).unwrap(),
            clean_db.run_batch(&[req], 1).remove(0).unwrap(),
        ];
        for report in clean {
            assert_eq!(report.retries, 0, "{}: clean path", alg.label());
            assert_eq!(report.backoff, Duration::ZERO, "{}", alg.label());
        }
        let plain = plain_db.distance_first(alg, &q).unwrap();
        let limited = limited_db
            .run_batch(&[TopkRequest::from_query(alg, &q)], 1)
            .remove(0)
            .unwrap();
        assert_eq!(
            ids(&plain.results),
            ids(&limited.results),
            "{}",
            alg.label()
        );
        assert_eq!(plain.io.total(), limited.io.total(), "{}", alg.label());
        assert!(
            plain.retries > 0,
            "{}: 1-in-5 faults must retry",
            alg.label()
        );
        assert_eq!(plain.retries, limited.retries, "{}", alg.label());
        assert!(plain.backoff > Duration::ZERO, "{}", alg.label());
    }
    // Area requests share the assembler, so they report retries too.
    let area = ir2tree::geo::Rect::from_point(q.point);
    let region = plain_db
        .run(&TopkRequest::new(Algorithm::Ir2, area, &q.keywords, q.k))
        .unwrap();
    assert!(region.retries > 0);
}

// ----------------------------------------------------------------------
// Execution limits: truncation is exact-prefix degradation, not an error.
// ----------------------------------------------------------------------

fn ids(results: &[(SpatialObject<2>, f64)]) -> Vec<u64> {
    results.iter().map(|(o, _)| o.id).collect()
}

fn budgeted(blocks: u64) -> QueryLimits {
    QueryLimits::none().with_io_budget(blocks)
}

/// Sweeping the I/O budget from 0 up to (beyond) the full query cost must
/// yield, for every algorithm, either the complete answer or a truncated
/// report whose results are an exact prefix of it.
#[test]
fn io_budget_sweep_yields_exact_prefixes_for_all_algorithms() {
    let db = SpatialKeywordDb::build(DeviceSet::in_memory(), town(300), small_config()).unwrap();
    let q = DistanceFirstQuery::new([7.3, 3.1], &["coffee", "wifi"], 8);
    for alg in Algorithm::ALL {
        let full = db.distance_first(alg, &q).unwrap();
        let full_ids = ids(&full.results);
        let mut saw_truncation = false;
        let mut saw_completion = false;
        for budget in 0..=400u64 {
            let limited = db
                .run(&TopkRequest::from_query(alg, &q).limited(budgeted(budget)))
                .unwrap();
            let got = ids(&limited.results);
            match limited.outcome {
                Some(reason) => {
                    saw_truncation = true;
                    assert_eq!(
                        reason,
                        TruncateReason::IoBudget,
                        "{} @{budget}",
                        alg.label()
                    );
                    if alg == Algorithm::Iio {
                        assert!(got.is_empty(), "IIO degrades all-or-nothing");
                    } else {
                        assert_eq!(
                            got,
                            full_ids[..got.len()],
                            "{} @{budget}: truncated results must be a prefix",
                            alg.label()
                        );
                    }
                }
                None => {
                    saw_completion = true;
                    assert_eq!(got, full_ids, "{} @{budget}", alg.label());
                }
            }
        }
        assert!(saw_truncation, "{}: sweep never truncated", alg.label());
        assert!(saw_completion, "{}: sweep never completed", alg.label());
    }
}

/// Every tree algorithm spends at most its I/O budget — node reads between
/// two candidates included — and answers an exact prefix of its unlimited
/// answer, on a height-4 tree and on three shards (sequential gather). The
/// R-Tree baseline used to check its budget only between candidates: at
/// budget 1 it read 7 nodes and loaded an object. A sharded budget is
/// split across the shards with every slice floored at 1, so below 3 it
/// may spend 3.
#[test]
fn every_tree_algorithm_stays_within_its_io_budget() {
    let mono = SpatialKeywordDb::build(DeviceSet::in_memory(), town(600), small_config()).unwrap();
    assert!(
        mono.rtree().height() >= 4,
        "height {}",
        mono.rtree().height()
    );
    let sets = (0..3).map(|_| DeviceSet::in_memory()).collect();
    let sharded = ShardedDb::build(sets, town(600), small_config()).unwrap();
    type Run<'a> = &'a dyn Fn(&TopkRequest) -> Result<QueryReport>;
    let engines: [(&str, u64, Run<'_>); 2] = [
        ("monolithic", 0, &|req| mono.run(req)),
        ("sharded", 3, &|req| sharded.run(req)),
    ];
    let q = DistanceFirstQuery::new([7.3, 3.1], &["coffee", "wifi"], 8);
    for alg in [Algorithm::RTree, Algorithm::Ir2, Algorithm::Mir2] {
        for (engine, floor, run) in engines {
            let full = ids(&run(&TopkRequest::from_query(alg, &q)).unwrap().results);
            for budget in 0..=32u64 {
                let ctx = format!("{} {engine} @{budget}", alg.label());
                let req = TopkRequest::from_query(alg, &q).limited(budgeted(budget));
                let report = run(&req).unwrap();
                let spent = report.counters.nodes_read + report.counters.candidates_checked;
                assert!(spent <= budget.max(floor), "{ctx}: spent {spent}");
                let got = ids(&report.results);
                assert_eq!(got, full[..got.len()], "{ctx}: not a prefix");
            }
        }
    }
}

/// The same property for the general (ranked) algorithm: a ranked request
/// under an I/O budget answers the exact top-m prefix of its full answer.
#[test]
fn general_algorithm_truncates_to_exact_prefixes() {
    use ir2tree::text::LinearRank;

    let db = SpatialKeywordDb::build(DeviceSet::in_memory(), town(300), small_config()).unwrap();
    let rank = LinearRank {
        ir_weight: 1.0,
        dist_weight: 0.05,
    };
    let req = TopkRequest::new(Algorithm::Ir2, [7.3, 3.1], &["coffee", "music"], 6)
        .ranked(SaturatingTfIdf, rank);
    let full = db.run(&req).unwrap();
    assert_eq!(full.outcome, None);
    let full_ids: Vec<u64> = full.results.iter().map(|(o, _)| o.id).collect();
    let mut saw_truncation = false;
    for budget in 0..=400u64 {
        let limits = QueryLimits::none().with_io_budget(budget);
        let out = db.run(&req.clone().limited(limits)).unwrap();
        saw_truncation |= out.outcome.is_some();
        let got: Vec<u64> = out.results.iter().map(|(o, _)| o.id).collect();
        assert_eq!(got, full_ids[..got.len()], "budget {budget}");
    }
    assert!(saw_truncation);
}

/// An already-expired deadline truncates immediately — empty results, no
/// error — both for a single query and batch-wide.
#[test]
fn expired_deadline_truncates_without_error() {
    let db = SpatialKeywordDb::build(DeviceSet::in_memory(), town(200), small_config()).unwrap();
    let q = DistanceFirstQuery::new([3.0, 3.0], &["coffee"], 5);
    let expired = QueryLimits::none().with_deadline(Duration::ZERO);
    for alg in Algorithm::ALL {
        let r = db
            .run(&TopkRequest::from_query(alg, &q).limited(expired))
            .unwrap();
        assert_eq!(r.outcome, Some(TruncateReason::Deadline), "{}", alg.label());
        assert!(r.results.is_empty(), "{}", alg.label());
    }

    // Batch-wide: the deadline instant is resolved once, so every query in
    // the batch is past it. All truncated, none failed.
    let qs = queries(40, 5);
    let outcomes = db.run_batch(&requests(Algorithm::Ir2, &qs, expired), 4);
    for out in &outcomes {
        let r = out.as_ref().expect("truncation is not a failure");
        assert_eq!(r.outcome, Some(TruncateReason::Deadline));
    }

    // Truncations surface in the metrics exposition.
    let prom = db.metrics_prometheus();
    assert!(prom.contains("queries_truncated_total"), "{prom}");
}

/// A tiny frontier cap trips the heap limit; results remain a prefix.
#[test]
fn heap_cap_truncates_with_prefix_results() {
    let db = SpatialKeywordDb::build(DeviceSet::in_memory(), town(300), small_config()).unwrap();
    let q = DistanceFirstQuery::new([7.3, 3.1], &["coffee"], 8);
    let full = db.distance_first(Algorithm::Ir2, &q).unwrap();
    let capped = QueryLimits::none().with_max_heap_size(1);
    let r = db
        .run(&TopkRequest::from_query(Algorithm::Ir2, &q).limited(capped))
        .unwrap();
    assert_eq!(r.outcome, Some(TruncateReason::HeapLimit));
    let got = ids(&r.results);
    assert_eq!(got, ids(&full.results)[..got.len()]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Randomized variant of the sweep: any algorithm, any budget, any
    /// query — a limited run is always a prefix (empty for IIO) of the
    /// unlimited run.
    #[test]
    fn truncated_results_prefix_full_results(
        alg_idx in 0usize..4,
        budget in 0u64..300,
        x in 0.0f64..25.0,
        y in 0.0f64..12.0,
        kw_idx in 0usize..4,
        k in 1usize..10,
    ) {
        use std::sync::OnceLock;
        static DB: OnceLock<SpatialKeywordDb<MemDevice>> = OnceLock::new();
        let db = DB.get_or_init(|| {
            SpatialKeywordDb::build(DeviceSet::in_memory(), town(250), small_config()).unwrap()
        });
        let kws: [&[&str]; 4] = [&["coffee"], &["coffee", "wifi"], &["pool"], &["sunday"]];
        let alg = Algorithm::ALL[alg_idx];
        let q = DistanceFirstQuery::new([x, y], kws[kw_idx], k);
        let full = db.distance_first(alg, &q).unwrap();
        let limited = db
            .run(&TopkRequest::from_query(alg, &q).limited(budgeted(budget)))
            .unwrap();
        let full_ids = ids(&full.results);
        let got = ids(&limited.results);
        match limited.outcome {
            None => prop_assert_eq!(got, full_ids),
            Some(_) if alg == Algorithm::Iio => prop_assert!(got.is_empty()),
            Some(_) => {
                prop_assert!(got.len() <= full_ids.len());
                prop_assert_eq!(&got[..], &full_ids[..got.len()]);
            }
        }
    }
}

// ----------------------------------------------------------------------
// Fault isolation: one bad query never takes the batch down.
// ----------------------------------------------------------------------

/// A device wrapper that panics on every `period`-th read while armed —
/// simulating a query hitting a poisoned code path mid-traversal.
struct PanickingDevice<D> {
    inner: D,
    armed: Arc<AtomicBool>,
    reads: AtomicU64,
    period: u64,
}

impl<D> PanickingDevice<D> {
    fn new(inner: D, armed: Arc<AtomicBool>, period: u64) -> Self {
        Self {
            inner,
            armed,
            reads: AtomicU64::new(0),
            period,
        }
    }
}

impl<D: BlockDevice> BlockDevice for PanickingDevice<D> {
    fn read_block(&self, id: BlockId, buf: &mut [u8; BLOCK_SIZE]) -> Result<()> {
        if self.armed.load(Ordering::Relaxed) {
            let n = self.reads.fetch_add(1, Ordering::Relaxed) + 1;
            if n.is_multiple_of(self.period) {
                panic!("injected read panic");
            }
        }
        self.inner.read_block(id, buf)
    }

    fn write_block(&self, id: BlockId, data: &[u8; BLOCK_SIZE]) -> Result<()> {
        self.inner.write_block(id, data)
    }

    fn allocate(&self, n: u64) -> Result<BlockId> {
        self.inner.allocate(n)
    }

    fn num_blocks(&self) -> u64 {
        self.inner.num_blocks()
    }

    fn sync(&self) -> Result<()> {
        self.inner.sync()
    }
}

#[test]
fn panicking_query_is_isolated_and_pool_stays_usable() {
    // Silence the injected panics' default backtrace spew; all other
    // panics still reach the previous hook.
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let injected = info
            .payload()
            .downcast_ref::<&str>()
            .is_some_and(|s| s.contains("injected read panic"));
        if !injected {
            prev(info);
        }
    }));

    let armed = Arc::new(AtomicBool::new(false));
    let devices =
        DeviceSet::in_memory().map(|_, d| PanickingDevice::new(d, Arc::clone(&armed), 61));
    let db = SpatialKeywordDb::build(devices, town(300), small_config()).unwrap();

    armed.store(true, Ordering::Relaxed);
    let qs = queries(120, 5);
    let outcomes = db.run_batch(&requests(Algorithm::Ir2, &qs, QueryLimits::none()), 4);
    armed.store(false, Ordering::Relaxed);

    assert_eq!(outcomes.len(), 120);
    let panics = outcomes
        .iter()
        .filter(|o| matches!(o, Err(QueryError::Panic(_))))
        .count();
    let oks = outcomes.iter().filter(|o| o.is_ok()).count();
    assert!(panics >= 1, "the injector must have fired");
    assert!(oks >= 1, "siblings of a panicking query must survive");
    assert_eq!(panics + oks, 120, "failures are panics only");

    // The database — buffer pool included — is fully usable afterwards.
    let q = DistanceFirstQuery::new([7.3, 3.1], &["coffee"], 5);
    let after = db.distance_first(Algorithm::Ir2, &q).unwrap();
    assert!(!after.results.is_empty());

    // Failure accounting landed in the metrics registry.
    let prom = db.metrics_prometheus();
    assert!(prom.contains("batch_query_failures_total"), "{prom}");
}

/// Permanent storage errors surface as per-slot `Err(Storage)` entries —
/// the batch call itself never fails — and the database recovers fully
/// once the device does.
#[test]
fn permanent_faults_fill_slots_and_database_recovers() {
    // Budget mode: the first `budget` operations succeed, everything after
    // fails *permanently*. One plan over every device, so the budget can be
    // pulled out from under a running database.
    let plan = FaultPlan::new();
    let devices = DeviceSet::in_memory().map(|_, d| plan.wrap(d));
    let db = SpatialKeywordDb::build(devices, town(200), small_config()).unwrap();

    plan.set_budget(0);
    let qs = queries(30, 5);
    let outcomes = db.run_batch(&requests(Algorithm::Ir2, &qs, QueryLimits::none()), 4);
    assert_eq!(outcomes.len(), 30, "one slot per query, batch never aborts");
    let storage_errs = outcomes
        .iter()
        .filter(|o| matches!(o, Err(QueryError::Storage(_))))
        .count();
    assert!(storage_errs >= 1, "the dead device must fail queries");
    assert!(
        outcomes
            .iter()
            .all(|o| o.is_ok() || matches!(o, Err(QueryError::Storage(_)))),
        "failures are storage errors, never panics"
    );

    // Device heals → the same database answers again; nothing was poisoned.
    plan.set_budget(u64::MAX);
    let q = DistanceFirstQuery::new([7.3, 3.1], &["coffee"], 5);
    let after = db.distance_first(Algorithm::Ir2, &q).unwrap();
    assert!(!after.results.is_empty());
}
