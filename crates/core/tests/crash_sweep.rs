//! Crash-point sweeps: replay a workload with a simulated power cut at
//! *every* I/O index, and assert that reopening the database afterwards
//! either recovers a committed pre-crash state or fails with a clean
//! `StorageError::Corrupt` — never a panic, and never silently wrong
//! results.
//!
//! * The monolithic layout runs build + insert + delete + save_catalog.
//! * The replicated layout runs its one write path through a
//!   `BlockDevice`, `ShardedDb::build_replicated`: each shard is built into
//!   replica 0, copied block by block into the other replicas, verified
//!   and opened. Scrub-repair and the `SHARDS` manifest write go through
//!   `std::fs`, not a `BlockDevice`, so no fault plan reaches them and
//!   they are not swept here.
//!
//! The torn write alternates between garbling and truncating the in-flight
//! block, so both damage shapes hit every write site in the workload.

use std::sync::Arc;

use ir2tree::geo::{Point, Rect};
use ir2tree::model::{DistanceFirstQuery, ObjPtr, SpatialObject};
use ir2tree::storage::testing::{FaultDevice, FaultPlan, TornWrite};
use ir2tree::storage::{MemDevice, StorageError};
use ir2tree::{Algorithm, DbConfig, DeviceSet, ShardedDb, SpatialKeywordDb};

const N_OBJECTS: u64 = 16;
/// Unique marker word of the object the workload inserts after build.
const INSERTED_WORD: &str = "zephyrine";
/// Unique marker word of the object the workload then deletes.
const DELETED_WORD: &str = "quixotume";

fn initial_objects() -> Vec<SpatialObject<2>> {
    (0..N_OBJECTS)
        .map(|i| {
            let marker = if i == 3 { DELETED_WORD } else { "filler" };
            SpatialObject::new(
                i,
                [i as f64, (i * 5 % 11) as f64],
                format!("common {marker} word{i}"),
            )
        })
        .collect()
}

fn config() -> DbConfig {
    DbConfig {
        sig_bytes: 4,
        capacity: Some(4),
        bulk_load: false, // incremental: the sweep crosses every insert path
        ..DbConfig::default()
    }
}

/// Six in-memory devices behind shared handles: one handle set goes into
/// the fault plan's wrappers, the other reopens the same memory afterwards.
fn raw_devices() -> DeviceSet<Arc<MemDevice>> {
    DeviceSet::in_memory().map(|_, d| Arc::new(d))
}

/// The torn write alternates between the two damage shapes.
fn torn_mode(crash_at: u64) -> TornWrite {
    if crash_at.is_multiple_of(2) {
        TornWrite::Garbled
    } else {
        TornWrite::Truncated
    }
}

/// Runs the full workload on crash-injected devices. Any step may fail —
/// the sweep only cares that failures are errors, not panics.
fn run_workload(devices: DeviceSet<FaultDevice<Arc<MemDevice>>>) {
    let Ok(mut db) = SpatialKeywordDb::build(devices, initial_objects(), config()) else {
        return;
    };

    // Insert an object carrying a unique marker word.
    let inserted = SpatialObject::new(100, [3.5, 3.5], format!("common {INSERTED_WORD} extra"));
    if db.insert(&inserted).is_err() {
        return;
    }

    // Delete the object carrying the other marker word (id 3). Its pointer
    // is recoverable from the store scan.
    let mut victim: Option<ObjPtr> = None;
    let scan = db.object_store().scan(|ptr, obj| {
        if obj.id == 3 {
            victim = Some(ptr);
        }
        Ok(())
    });
    if scan.is_err() {
        return;
    }
    let Some(victim) = victim else { return };
    if db.delete(victim).is_err() {
        return;
    }

    // Commit everything: the catalog flip is the atomic commit point.
    if db.save_catalog().is_err() {
        return;
    }

    // Post-commit tail: more uncommitted work, so that sweep indices after
    // the flip exercise recovery *to* the maintained state (not only back
    // to the post-build one).
    let tail = SpatialObject::new(200, [7.7, 7.7], "common tailword");
    let _ = db.insert(&tail);
}

/// Probes the reopened database: results must correspond to exactly one of
/// the two committed states (post-build, or post-maintenance), never a mix.
fn audit_recovered(db: &SpatialKeywordDb<Arc<MemDevice>>, crash_at: u64) {
    let world = Rect::new(Point::new([-10.0, -10.0]), Point::new([1000.0, 1000.0]));
    let word = |w: &str| vec![w.to_string()];

    let report = db.check_integrity();
    if !report.ok() {
        // The crash tore a block inside the committed image (e.g. the object
        // file's tail block). Detection — not silent corruption — is the
        // contract, and the detector must have named the damage.
        assert!(
            report.structures.iter().any(|s| !s.ok),
            "crash {crash_at}: failed report with no failing structure"
        );
        return;
    }

    let has_inserted = db
        .keyword_window(Algorithm::Ir2, &world, &word(INSERTED_WORD))
        .unwrap_or_else(|e| panic!("crash {crash_at}: probe query failed on clean db: {e}"));
    let has_deleted = db
        .keyword_window(Algorithm::Ir2, &world, &word(DELETED_WORD))
        .unwrap_or_else(|e| panic!("crash {crash_at}: probe query failed on clean db: {e}"));

    match (has_inserted.len(), has_deleted.len()) {
        // Post-build state: insert and delete both rolled back.
        (0, 1) => assert_eq!(db.build_stats().objects, N_OBJECTS),
        // Post-maintenance state: both applied.
        (1, 0) => {
            assert_eq!(has_inserted[0].id, 100);
            assert_eq!(db.build_stats().objects, N_OBJECTS);
        }
        other => {
            panic!("crash {crash_at}: recovered a mixed state (inserted, deleted) hits = {other:?}")
        }
    }
}

#[test]
fn every_crash_point_recovers_or_fails_clean() {
    // Pass 1: count the workload's I/O operations without crashing.
    let counter = FaultPlan::crash_at(u64::MAX, TornWrite::Garbled);
    run_workload(raw_devices().map(|_, d| counter.wrap(d)));
    let total = counter.ops();
    assert!(
        !counter.dead() && total > 100,
        "workload should run clean and do real I/O, did {total} ops"
    );

    // Pass 2: crash at every index.
    for crash_at in 0..total {
        let raw = raw_devices();
        let plan = FaultPlan::crash_at(crash_at, torn_mode(crash_at));
        run_workload(raw.clone().map(|_, d| plan.wrap(d)));
        assert!(plan.dead(), "crash {crash_at} never fired");

        match SpatialKeywordDb::open(raw) {
            Ok(db) => audit_recovered(&db, crash_at),
            Err(StorageError::Corrupt(_)) => {} // clean refusal
            Err(e) => panic!("crash {crash_at}: reopen failed with non-corrupt error: {e}"),
        }
    }
}

const SHARDS: usize = 2;
const REPLICAS: usize = 2;

/// Runs `ShardedDb::build_replicated` with every replica device of shard
/// `s` behind `plans[s]`, and returns the raw devices, indexed
/// `[shard][replica]`. A plan per shard, not one for all: shards build on
/// parallel threads, so one shared op count would have no fixed order.
fn build_replicated(plans: &[FaultPlan]) -> Vec<Vec<DeviceSet<Arc<MemDevice>>>> {
    let raw: Vec<Vec<DeviceSet<Arc<MemDevice>>>> = plans
        .iter()
        .map(|_| (0..REPLICAS).map(|_| raw_devices()).collect())
        .collect();
    let groups = raw
        .iter()
        .zip(plans)
        .map(|(group, plan)| {
            group
                .iter()
                .map(|set| set.clone().map(|_, d| plan.wrap(d)))
                .collect()
        })
        .collect();
    // Bulk-loaded, as `ir2 build --shards S --replicas R` builds it.
    let cfg = DbConfig {
        bulk_load: true,
        ..config()
    };
    let _ = ShardedDb::build_replicated(groups, initial_objects(), cfg);
    raw
}

/// A fixed query's answer on every algorithm, as `(id, distance bits)`.
fn answers(db: &SpatialKeywordDb<Arc<MemDevice>>) -> Vec<Vec<(u64, u64)>> {
    let q = DistanceFirstQuery::new([4.2, 3.7], &["common"], 5);
    Algorithm::ALL
        .iter()
        .map(|&alg| {
            db.distance_first(alg, &q)
                .unwrap_or_else(|e| panic!("{alg:?} on a reopened replica: {e}"))
                .results
                .iter()
                .map(|(o, d)| (o.id, d.to_bits()))
                .collect()
        })
        .collect()
}

#[test]
fn every_crash_point_of_a_replicated_build_recovers_or_fails_clean() {
    // Pass 1: a clean build counts each shard's operations, and its
    // primaries give every shard's reference answer.
    let counters: Vec<FaultPlan> = (0..SHARDS)
        .map(|_| FaultPlan::crash_at(u64::MAX, TornWrite::Garbled))
        .collect();
    let clean = build_replicated(&counters);
    let reference: Vec<Vec<Vec<(u64, u64)>>> = clean
        .into_iter()
        .map(|mut group| answers(&SpatialKeywordDb::open(group.swap_remove(0)).unwrap()))
        .collect();
    for (s, counter) in counters.iter().enumerate() {
        assert!(
            !counter.dead() && counter.ops() > 20,
            "shard {s} should build clean and do real I/O, did {} ops",
            counter.ops()
        );
        assert!(reference[s].iter().all(|hits| !hits.is_empty()));
    }

    // Pass 2: crash each shard at every index of its own op stream; every
    // replica of every shard reopens to the clean answer or is refused.
    for (victim, counter) in counters.iter().enumerate() {
        for crash_at in 0..counter.ops() {
            let plans: Vec<FaultPlan> = (0..SHARDS)
                .map(|s| {
                    if s == victim {
                        FaultPlan::crash_at(crash_at, torn_mode(crash_at))
                    } else {
                        FaultPlan::new()
                    }
                })
                .collect();
            let raw = build_replicated(&plans);
            assert!(
                plans[victim].dead(),
                "shard {victim} crash {crash_at} never fired"
            );
            for (s, group) in raw.into_iter().enumerate() {
                for (m, set) in group.into_iter().enumerate() {
                    let at = format!("shard {victim} crash {crash_at}: shard {s} replica {m}");
                    match SpatialKeywordDb::open(set) {
                        Ok(db) => {
                            assert!(db.check_integrity().ok(), "{at}: integrity check failed");
                            assert_eq!(answers(&db), reference[s], "{at}: wrong answer");
                        }
                        Err(StorageError::Corrupt(_)) => {} // clean refusal
                        Err(e) => panic!("{at}: reopen failed with non-corrupt error: {e}"),
                    }
                }
            }
        }
    }
}
