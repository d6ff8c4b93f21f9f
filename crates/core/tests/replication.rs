//! Exactness and robustness suite for replicated shards: replica loss at
//! any point mid-query must be invisible (automatic failover re-issues the
//! shard pull against a surviving replica), hedged reads must change
//! latency only, and the scrubber must detect and repair silent replica
//! divergence.

use std::sync::Arc;
use std::time::Duration;

use ir2tree::model::{DistanceFirstQuery, SpatialObject};
use ir2tree::storage::testing::{FaultDevice, FaultPlan};
use ir2tree::storage::MemDevice;
use ir2tree::{
    scrub_dir, shard_layout, Algorithm, DbConfig, DeviceSet, Gather, RetryDevice, ShardedDb,
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

/// Deterministic pseudo-random scatter (no grid symmetry, so distance
/// ties are measure-zero and answers compare bitwise).
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

fn same_results(a: &[(SpatialObject<2>, f64)], b: &[(SpatialObject<2>, f64)]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|((x, dx), (y, dy))| x.id == y.id && dx.to_bits() == dy.to_bits())
}

type KilledDb = ShardedDb<RetryDevice<FaultDevice<Arc<MemDevice>>>>;

/// Builds a replicated in-memory database (shards × replicas) whose every
/// replica answers to its own fault plan, plus the plans, indexed
/// `[shard][replica]`.
fn killable_db(
    objects: Vec<SpatialObject<2>>,
    shards: usize,
    replicas: usize,
) -> (KilledDb, Vec<Vec<FaultPlan>>) {
    let raw: Vec<Vec<DeviceSet<Arc<MemDevice>>>> = (0..shards)
        .map(|_| {
            (0..replicas)
                .map(|_| DeviceSet::in_memory().map(|_role, d| Arc::new(d)))
                .collect()
        })
        .collect();
    // Populate (and byte-verify) through shared Arc handles; reopen the
    // same memory behind the fault plans.
    drop(ShardedDb::build_replicated(raw.clone(), objects, small_config()).unwrap());
    let kills: Vec<Vec<FaultPlan>> = (0..shards)
        .map(|_| (0..replicas).map(|_| FaultPlan::new()).collect())
        .collect();
    let groups = raw
        .into_iter()
        .zip(&kills)
        .map(|(group, ks)| {
            group
                .into_iter()
                .zip(ks)
                .map(|(set, k)| set.map(|_role, d| RetryDevice::new(k.wrap(d))))
                .collect()
        })
        .collect();
    (ShardedDb::from_replica_groups(groups).unwrap(), kills)
}

#[test]
fn replicated_build_answers_like_monolithic() {
    let objects = scatter(200);
    let mono =
        SpatialKeywordDb::build(DeviceSet::in_memory(), objects.clone(), small_config()).unwrap();
    let (db, _kills) = killable_db(objects, 3, 2);
    assert_eq!(db.shard_count(), 3);
    assert_eq!(db.replica_count(), 2);
    for (i, kw) in [vec!["pool"], vec!["spa", "wifi"], vec![]]
        .into_iter()
        .enumerate()
    {
        let q = DistanceFirstQuery::new([173.3 + i as f64 * 41.7, 512.9], &kw, 7);
        let m = mono.distance_first(Algorithm::Ir2, &q).unwrap();
        let s = db.distance_first(Algorithm::Ir2, &q).unwrap();
        assert_eq!(m.results.len(), s.results.len());
        for ((a, da), (b, db_)) in m.results.iter().zip(s.results.iter()) {
            assert_eq!(a.id, b.id);
            assert_eq!(da.to_bits(), db_.to_bits());
        }
    }
}

#[test]
fn failover_is_exact_when_primaries_die_between_queries() {
    let objects = scatter(300);
    let mono =
        SpatialKeywordDb::build(DeviceSet::in_memory(), objects.clone(), small_config()).unwrap();
    let (db, kills) = killable_db(objects, 4, 2);
    let queries: Vec<DistanceFirstQuery<2>> = (0..10)
        .map(|i| {
            DistanceFirstQuery::new(
                [(i * 83 % 900) as f64 + 0.57, (i * 131 % 900) as f64 + 0.13],
                &[WORDS[i % WORDS.len()]],
                6,
            )
        })
        .collect();
    for (qi, q) in queries.iter().enumerate() {
        if qi == queries.len() / 2 {
            for ks in &kills {
                ks[0].set_budget(0);
            }
        }
        for alg in [Algorithm::Ir2, Algorithm::Mir2, Algorithm::Iio] {
            let m = mono.distance_first(alg, q).unwrap();
            let s = db.distance_first(alg, q).unwrap();
            assert!(
                same_results(&m.results, &s.results),
                "q{qi} {}",
                alg.label()
            );
        }
    }
    let text = db.metrics_prometheus();
    assert!(text.contains("replica_count 2"), "{text}");
    assert!(text.contains("replica_failovers_total"), "{text}");
}

#[test]
fn all_replicas_dead_shard_fails_per_slot_without_poisoning_siblings() {
    let objects = scatter(240);
    let (db, kills) = killable_db(objects.clone(), 4, 2);
    // Shard 2 loses every replica; the others stay healthy.
    for k in &kills[2] {
        k.set_budget(0);
    }
    let queries: Vec<DistanceFirstQuery<2>> = (0..8)
        .map(|i| {
            DistanceFirstQuery::new(
                [(i * 127 % 1000) as f64, (i * 211 % 1000) as f64],
                &[WORDS[i % WORDS.len()]],
                50, // large k forces every query into every shard
            )
        })
        .collect();
    let reqs: Vec<TopkRequest> = queries
        .iter()
        .map(|q| TopkRequest::from_query(Algorithm::Ir2, q))
        .collect();
    let outcomes = db.run_batch(&reqs, 4);
    assert_eq!(outcomes.len(), queries.len());
    let failed = outcomes.iter().filter(|o| o.is_err()).count();
    assert!(failed > 0, "a dead shard must surface as per-slot errors");
    // The database is not poisoned: killing no further replicas, a fresh
    // query that the dead shard cannot serve still fails cleanly, and
    // reviving is not needed for the healthy shards to keep answering
    // (k=1 near a healthy shard's tile can complete without shard 2).
    let probe = DistanceFirstQuery::new(
        [objects[0].point.coords()[0], objects[0].point.coords()[1]],
        &[] as &[&str],
        1,
    );
    // An Err means the probe happened to need shard 2 — still a clean error.
    if let Ok(rep) = db.distance_first(Algorithm::Ir2, &probe) {
        assert_eq!(rep.results.len(), 1);
    }
}

#[test]
fn hedged_reads_match_unhedged_bit_for_bit() {
    let objects = scatter(260);
    let (db, _kills) = killable_db(objects, 3, 2);
    for (i, kw) in [vec!["pool"], vec!["spa", "suite"], vec![]]
        .into_iter()
        .enumerate()
    {
        let q = DistanceFirstQuery::new([350.0 - i as f64 * 60.0, 420.0], &kw, 9);
        let plain = db.distance_first(Algorithm::Ir2, &q).unwrap();
        // Zero delay: the hedge fires on effectively every shard pull.
        let hedged =
            |delay| TopkRequest::from_query(Algorithm::Ir2, &q).gathered(Gather::Hedged(delay));
        let eager = db.run(&hedged(Duration::ZERO)).unwrap();
        assert!(same_results(&plain.results, &eager.results), "eager q{i}");
        // Generous delay: the hedge never fires.
        let lazy = db.run(&hedged(Duration::from_secs(5))).unwrap();
        assert!(same_results(&plain.results, &lazy.results), "lazy q{i}");
    }
    let text = db.metrics_prometheus();
    assert!(text.contains("replica_hedges_total"), "{text}");
}

#[test]
fn hedged_survives_a_dead_primary() {
    let objects = scatter(180);
    let (db, kills) = killable_db(objects, 2, 2);
    let q = DistanceFirstQuery::new([300.0, 300.0], &["pool"], 8);
    let before = db.distance_first(Algorithm::Ir2, &q).unwrap();
    for ks in &kills {
        ks[0].set_budget(0);
    }
    let hedge = Gather::Hedged(Duration::from_millis(1));
    let after = db
        .run(&TopkRequest::from_query(Algorithm::Ir2, &q).gathered(hedge))
        .unwrap();
    assert!(same_results(&before.results, &after.results));
}

#[test]
fn hedged_gather_fails_over_past_every_dead_replica() {
    let objects = scatter(240);
    let mono =
        SpatialKeywordDb::build(DeviceSet::in_memory(), objects.clone(), small_config()).unwrap();
    let (db, kills) = killable_db(objects, 3, 3);
    // Only the last replica of every shard survives: a hedge must keep
    // failing over past both dead ones, as the sequential merge does.
    for ks in &kills {
        ks[0].set_budget(0);
        ks[1].set_budget(0);
    }
    let q = DistanceFirstQuery::new([500.0, 500.0], &["pool"], 20);
    let expect = mono.distance_first(Algorithm::Ir2, &q).unwrap();
    for delay in [Duration::ZERO, Duration::from_secs(5)] {
        let req = TopkRequest::from_query(Algorithm::Ir2, &q).gathered(Gather::Hedged(delay));
        let got = db.run(&req).unwrap();
        assert!(same_results(&expect.results, &got.results), "{delay:?}");
    }
}

/// Block reads of every device of every replica so far.
fn device_reads(db: &KilledDb) -> u64 {
    db.replica_sets()
        .iter()
        .flat_map(|set| set.replicas())
        .map(|rep| {
            let (o, r, i, m, inv) = rep.io_totals();
            [o, r, i, m, inv]
                .iter()
                .map(|s| s.random_reads + s.seq_reads)
                .sum::<u64>()
        })
        .sum()
}

#[test]
fn a_failed_over_attempt_is_in_the_report() {
    let objects = scatter(300);
    let q = DistanceFirstQuery::new([480.0, 510.0], &[] as &[&str], 50);
    let gathers = [
        Gather::Sequential,
        Gather::Parallel(2),
        Gather::Hedged(Duration::ZERO),
    ];
    for gather in gathers {
        for crash_delta in [0u64, 2, 5, 9] {
            let (db, kills) = killable_db(objects.clone(), 4, 2);
            let switch = &kills[1][0];
            switch.set_budget(crash_delta);
            let before = device_reads(&db);
            let req = TopkRequest::from_query(Algorithm::Ir2, &q).gathered(gather);
            let report = db.run(&req).unwrap();
            // A killed read counts on both sides: the tracking layer
            // records an access before the device underneath refuses it.
            assert_eq!(
                report.io.random_reads + report.io.seq_reads,
                device_reads(&db) - before,
                "{gather:?}, killed {crash_delta} ops in"
            );
        }
    }
}

#[test]
fn single_replica_layout_is_byte_identical_to_legacy() {
    let root = std::env::temp_dir().join(format!("ir2tree-repl-legacy-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let objects = scatter(120);
    let legacy_dir = root.join("legacy");
    let single_dir = root.join("single");
    let q = DistanceFirstQuery::new([210.9, 330.4], &["spa"], 6);
    let legacy = {
        let db = ShardedDb::create_in_dir(&legacy_dir, objects.clone(), small_config(), 3).unwrap();
        db.distance_first(Algorithm::Ir2, &q).unwrap()
    };
    let single = {
        let db = ShardedDb::create_in_dir_replicated(&single_dir, objects, small_config(), 3, 1)
            .unwrap();
        db.distance_first(Algorithm::Ir2, &q).unwrap()
    };
    assert!(same_results(&legacy.results, &single.results));
    // The manifests are the exact same bytes (no `replicas` line at R=1)…
    let mbytes = |d: &std::path::Path| std::fs::read(d.join("SHARDS")).unwrap();
    assert_eq!(mbytes(&legacy_dir), mbytes(&single_dir));
    assert_eq!(
        String::from_utf8(mbytes(&single_dir)).unwrap(),
        "ir2-sharded v1\nshards 3\n"
    );
    // …and the directory layout has no replica indirection.
    assert!(single_dir.join("shard-000/objects.blocks").is_file());
    assert!(!single_dir.join("shard-000/replica-0").exists());
    let layout = shard_layout(&single_dir).unwrap().unwrap();
    assert_eq!((layout.shards, layout.replicas), (3, 1));
    // The data and index files are byte-identical between the two builds
    // (the catalog's shadow-paged epoch slots are not byte-deterministic
    // across builds; its equivalence is covered by the query comparison
    // above).
    for i in 0..3 {
        let shard = format!("shard-{i:03}");
        for name in ["objects.blocks", "rtree.blocks", "ir2.blocks"] {
            assert_eq!(
                std::fs::read(legacy_dir.join(&shard).join(name)).unwrap(),
                std::fs::read(single_dir.join(&shard).join(name)).unwrap(),
                "{shard}/{name}"
            );
        }
    }
    std::fs::remove_dir_all(&root).unwrap();
}

#[test]
fn scrub_detects_and_repairs_a_corrupted_replica() {
    let dir = std::env::temp_dir().join(format!("ir2tree-repl-scrub-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let objects = scatter(150);
    let q = DistanceFirstQuery::new([500.0, 500.0], &["golf"], 5);
    let before = {
        let db = ShardedDb::create_in_dir_replicated(&dir, objects, small_config(), 2, 3).unwrap();
        db.distance_first(Algorithm::Ir2, &q).unwrap()
    };
    // A fresh replicated build scrubs clean.
    let clean = scrub_dir(&dir, false, None).unwrap();
    assert!(clean.clean(), "{:?}", clean.details);
    assert_eq!((clean.shards, clean.replicas), (2, 3));
    assert!(clean.pages > 0);
    assert_eq!(clean.mismatches, 0);
    // Flip one byte deep inside a non-primary replica.
    let victim = dir.join("shard-001/replica-2/rtree.blocks");
    let mut bytes = std::fs::read(&victim).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&victim, &bytes).unwrap();
    // Detection without repair leaves the divergence in place.
    let dirty = scrub_dir(&dir, false, None).unwrap();
    assert!(!dirty.clean());
    assert!(dirty.mismatches > 0);
    assert_eq!(dirty.repairs, 0);
    // Repair re-copies from the reference and re-verifies.
    let repaired = scrub_dir(&dir, true, None).unwrap();
    assert!(repaired.clean(), "{:?}", repaired.details);
    assert!(repaired.repairs > 0);
    assert_eq!(scrub_dir(&dir, false, None).unwrap().mismatches, 0);
    // Answers are unchanged end to end.
    let db = ShardedDb::open_dir(&dir).unwrap();
    let after = db.distance_first(Algorithm::Ir2, &q).unwrap();
    assert!(same_results(&before.results, &after.results));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn background_scrubber_runs_and_stops() {
    let dir = std::env::temp_dir().join(format!("ir2tree-repl-bg-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let db = ShardedDb::create_in_dir_replicated(&dir, scatter(60), small_config(), 2, 2).unwrap();
    let scrubber = db.start_scrubber(Duration::from_millis(5), false).unwrap();
    // The first pass runs immediately; wait for its counter to land.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        if db.metrics_prometheus().contains("scrub_runs_total") {
            break;
        }
        assert!(std::time::Instant::now() < deadline, "scrubber never ran");
        std::thread::sleep(Duration::from_millis(5));
    }
    scrubber.stop();
    let text = db.metrics_prometheus();
    assert!(text.contains("scrub_pages_total"), "{text}");
    std::fs::remove_dir_all(&dir).unwrap();
}

// ---------------------------------------------------------------------
// The acceptance property: killing any single replica at any crash point
// mid-query is invisible — the answer equals the single-device oracle.
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

    #[test]
    fn killing_any_replica_at_any_crash_point_is_invisible(
        docs in prop::collection::vec(arb_doc(), 8..40),
        qpoint in prop::array::uniform2(-600.0f64..600.0),
        kw in 0usize..WORDS.len(),
        k in 1usize..10,
        victim in 0usize..4,
        crash_delta in 0u64..120,
    ) {
        let (victim_shard, victim_replica) = (victim / 2, victim % 2);
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
        let expect = mono.distance_first(Algorithm::Ir2, &q).unwrap();

        let (db, kills) = killable_db(objects, 2, 2);
        // Arm the victim to die `crash_delta` device operations into the
        // query (0 = dead before the first read).
        let switch = &kills[victim_shard][victim_replica];
        switch.set_budget(crash_delta);
        let got = db.distance_first(Algorithm::Ir2, &q).unwrap();
        prop_assert!(
            same_results(&expect.results, &got.results),
            "shard {} replica {} crash {}: {:?} vs {:?}",
            victim_shard, victim_replica, crash_delta,
            expect.results.iter().map(|(o, d)| (o.id, *d)).collect::<Vec<_>>(),
            got.results.iter().map(|(o, d)| (o.id, *d)).collect::<Vec<_>>()
        );
    }
}

// The same kill, landing inside a parallel worker's or a hedge's drain.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn killing_any_replica_mid_drain_is_invisible_under_every_gather(
        docs in prop::collection::vec(arb_doc(), 8..40),
        qpoint in prop::array::uniform2(-600.0f64..600.0),
        kw in 0usize..WORDS.len(),
        k in 1usize..10,
        (victim, crash_delta, gather) in (
            0usize..4,
            0u64..120,
            prop::sample::select(vec![
                Gather::Sequential,
                Gather::Parallel(2),
                Gather::Hedged(Duration::ZERO),
            ]),
        ),
    ) {
        let (victim_shard, victim_replica) = (victim / 2, victim % 2);
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
        let expect = mono.distance_first(Algorithm::Ir2, &q).unwrap();

        let (db, kills) = killable_db(objects, 2, 2);
        let switch = &kills[victim_shard][victim_replica];
        switch.set_budget(crash_delta);
        let req = TopkRequest::from_query(Algorithm::Ir2, &q).gathered(gather);
        let got = db.run(&req).unwrap();
        prop_assert!(
            same_results(&expect.results, &got.results),
            "{:?}, shard {} replica {} crash {}: {:?} vs {:?}",
            gather, victim_shard, victim_replica, crash_delta,
            expect.results.iter().map(|(o, d)| (o.id, *d)).collect::<Vec<_>>(),
            got.results.iter().map(|(o, d)| (o.id, *d)).collect::<Vec<_>>()
        );
    }
}
