//! Cross-engine edge-case sweep: every query path in the workspace — the
//! facade's four algorithms (R-Tree baseline, IIO, IR², MIR²), the general
//! ranked query, the uniform grid, the flat signature file, and the
//! sharded scatter-gather engine — must handle `k == 0`, empty keyword
//! lists, and distance ties without panicking, and must agree on result
//! *sets* wherever the answer is well defined.

use std::sync::Arc;

use ir2_grid::{GridConfig, GridIndex};
use ir2_sigscan::SignatureFile;
use ir2tree::model::{DistanceFirstQuery, ObjPtr, ObjectStore, SpatialObject};
use ir2tree::sigfile::SignatureScheme;
use ir2tree::storage::MemDevice;
use ir2tree::text::{tokenize, LinearRank, SaturatingTfIdf};
use ir2tree::{Algorithm, DbConfig, DeviceSet, ShardedDb, SpatialKeywordDb, TopkRequest};

/// Every engine under test, answering one distance-first query as a
/// `(id, distance)` list.
struct Engines {
    db: SpatialKeywordDb<MemDevice>,
    sharded: ShardedDb<MemDevice>,
    store: Arc<ObjectStore<2, MemDevice>>,
    grid: GridIndex<MemDevice>,
    ssf: SignatureFile<MemDevice>,
}

/// Engine names for assertion messages, aligned with `run_all` order.
const NAMES: [&str; 7] = ["rtree", "iio", "ir2", "mir2", "grid", "ssf", "sharded"];

fn engines(objects: Vec<SpatialObject<2>>) -> Engines {
    let config = DbConfig {
        capacity: Some(4),
        sig_bytes: 8,
        ..DbConfig::default()
    };
    let db =
        SpatialKeywordDb::build(DeviceSet::in_memory(), objects.clone(), config.clone()).unwrap();
    let shards = objects.len().min(3);
    let sharded = ShardedDb::build(
        (0..shards).map(|_| DeviceSet::in_memory()).collect(),
        objects.clone(),
        config,
    )
    .unwrap();

    // The standalone structures (grid, flat signature file) share one
    // object store, exactly like the A4 ablation harness.
    let store = Arc::new(ObjectStore::<2, _>::create(MemDevice::new()));
    let mut items: Vec<(ObjPtr, ir2tree::geo::Point<2>, Vec<String>)> = Vec::new();
    for o in &objects {
        let ptr = store.append(o).unwrap();
        let mut terms: Vec<String> = tokenize(&o.text).collect();
        terms.sort_unstable();
        terms.dedup();
        items.push((ptr, o.point, terms));
    }
    store.flush().unwrap();
    let scheme = SignatureScheme::from_bytes_len(8, 4, 1);
    let grid = GridIndex::build(
        MemDevice::new(),
        GridConfig::for_objects(objects.len(), 4, scheme),
        &items,
    )
    .unwrap();
    let ssf = SignatureFile::build(
        MemDevice::new(),
        scheme,
        items.iter().map(|(p, _, terms)| (*p, terms.as_slice())),
    )
    .unwrap();
    Engines {
        db,
        sharded,
        store,
        grid,
        ssf,
    }
}

impl Engines {
    /// Runs `q` through all seven engines, in [`NAMES`] order.
    fn run_all(
        &self,
        q: &DistanceFirstQuery<2>,
    ) -> Vec<Result<Vec<(u64, f64)>, ir2tree::storage::StorageError>> {
        let ids = |hits: Vec<(SpatialObject<2>, f64)>| {
            hits.into_iter().map(|(o, d)| (o.id, d)).collect::<Vec<_>>()
        };
        let mut out = Vec::new();
        for alg in [
            Algorithm::RTree,
            Algorithm::Iio,
            Algorithm::Ir2,
            Algorithm::Mir2,
        ] {
            out.push(self.db.distance_first(alg, q).map(|r| ids(r.results)));
        }
        out.push(self.grid.topk(self.store.as_ref(), q).map(|(r, _)| ids(r)));
        out.push(self.ssf.topk(self.store.as_ref(), q).map(|(r, _)| ids(r)));
        out.push(
            self.sharded
                .distance_first(Algorithm::Ir2, q)
                .map(|r| ids(r.results)),
        );
        out
    }
}

fn scatter(n: usize) -> Vec<SpatialObject<2>> {
    (0..n)
        .map(|i| {
            let x = ((i * 37) % 101) as f64 + (i % 7) as f64 * 0.013;
            let y = ((i * 53) % 89) as f64 + (i % 11) as f64 * 0.029;
            let text = if i % 2 == 0 { "pool wifi" } else { "spa sauna" };
            SpatialObject::new(i as u64, [x, y], text)
        })
        .collect()
}

#[test]
fn k_zero_is_empty_on_every_engine() {
    let e = engines(scatter(40));
    let q = DistanceFirstQuery::new([17.3, 42.9], &["pool"], 0);
    for (name, res) in NAMES.iter().zip(e.run_all(&q)) {
        let hits = res.unwrap_or_else(|err| panic!("{name}: {err}"));
        assert!(hits.is_empty(), "{name}: k=0 must return empty");
    }
    // The general ranked path too (both trees), and the sharded engine on
    // every algorithm.
    let rank = LinearRank {
        ir_weight: 1.0,
        dist_weight: 0.05,
    };
    for alg in [Algorithm::Ir2, Algorithm::Mir2] {
        let req = TopkRequest::from_query(alg, &q).ranked(SaturatingTfIdf, rank);
        let rep = e.db.run(&req).unwrap();
        assert!(rep.results.is_empty(), "general {}", alg.label());
    }
    for alg in [
        Algorithm::RTree,
        Algorithm::Iio,
        Algorithm::Ir2,
        Algorithm::Mir2,
    ] {
        let rep = e.sharded.distance_first(alg, &q).unwrap();
        assert!(rep.results.is_empty(), "sharded {}", alg.label());
    }
}

#[test]
fn empty_keywords_mean_pure_nn_except_iio() {
    let objects = scatter(40);
    let e = engines(objects.clone());
    let empty: [&str; 0] = [];
    let q = DistanceFirstQuery::new([17.3, 42.9], &empty, 5);
    // Ground truth: 5 nearest objects regardless of text.
    let mut truth: Vec<(u64, f64)> = objects
        .iter()
        .map(|o| (o.id, q.point.distance(&o.point)))
        .collect();
    truth.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
    truth.truncate(5);
    for (name, res) in NAMES.iter().zip(e.run_all(&q)) {
        if *name == "iio" {
            // IIO has no spatial access path without keywords: it must
            // refuse loudly, not return a wrong (empty) answer.
            assert!(res.is_err(), "iio must reject pure-NN queries");
            continue;
        }
        let hits = res.unwrap_or_else(|err| panic!("{name}: {err}"));
        assert_eq!(hits.len(), truth.len(), "{name}");
        for ((id, d), (tid, td)) in hits.iter().zip(truth.iter()) {
            assert_eq!(id, tid, "{name}");
            assert!((d - td).abs() < 1e-9, "{name}: {d} vs {td}");
        }
    }
    // The keyword check precedes the k check: empty keywords error out of
    // IIO even at k=0 (a silent empty answer would mask the misuse).
    let q0 = DistanceFirstQuery::new([17.3, 42.9], &empty, 0);
    assert!(e.db.distance_first(Algorithm::Iio, &q0).is_err());
    assert!(e.sharded.distance_first(Algorithm::Iio, &q0).is_err());
}

/// Two concentric rings around the origin: four objects at distance 1,
/// four at distance 2, two decoys far away. Every tie boundary a top-k can
/// land on is covered.
fn rings() -> Vec<SpatialObject<2>> {
    let mut objs = vec![
        SpatialObject::new(0, [1.0, 0.0], "pool ring inner"),
        SpatialObject::new(1, [-1.0, 0.0], "pool ring inner"),
        SpatialObject::new(2, [0.0, 1.0], "pool ring inner"),
        SpatialObject::new(3, [0.0, -1.0], "pool ring inner"),
        SpatialObject::new(4, [2.0, 0.0], "pool ring outer"),
        SpatialObject::new(5, [-2.0, 0.0], "pool ring outer"),
        SpatialObject::new(6, [0.0, 2.0], "pool ring outer"),
        SpatialObject::new(7, [0.0, -2.0], "pool ring outer"),
    ];
    objs.push(SpatialObject::new(8, [50.0, 50.0], "pool far decoy"));
    objs.push(SpatialObject::new(9, [-60.0, 60.0], "pool far decoy"));
    objs
}

#[test]
fn tied_kth_distance_yields_consistent_sets() {
    let e = engines(rings());
    let at = [0.0, 0.0];

    // k = 4: the k-th distance (1.0) ties across the whole inner ring,
    // which exactly fills k — the result set is unique and every engine
    // must return it.
    let q4 = DistanceFirstQuery::new(at, &["pool"], 4);
    for (name, res) in NAMES.iter().zip(e.run_all(&q4)) {
        let mut ids: Vec<u64> = res.unwrap().into_iter().map(|(id, _)| id).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![0, 1, 2, 3], "{name}: inner ring set");
    }

    // k = 8: both rings, again a unique set.
    let q8 = DistanceFirstQuery::new(at, &["pool"], 8);
    for (name, res) in NAMES.iter().zip(e.run_all(&q8)) {
        let mut ids: Vec<u64> = res.unwrap().into_iter().map(|(id, _)| id).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..8).collect::<Vec<u64>>(), "{name}: both rings");
    }

    // k = 6: the k-th distance (2.0) ties across four objects with only
    // two slots. Every engine canonicalizes ties by (distance, id), so
    // the whole answer — including the *choice* of tied tail — is
    // deterministic and identical across engines: the inner ring in id
    // order, then the two smallest outer-ring ids. (Before the
    // fuzzer-driven canonicalization sweep this tail was engine-specific:
    // grid/ssf/IIO keyed their heaps by record pointer, the monolithic
    // collectors emitted traversal order.)
    let q6 = DistanceFirstQuery::new(at, &["pool"], 6);
    for (name, res) in NAMES.iter().zip(e.run_all(&q6)) {
        let ids: Vec<u64> = res.unwrap().into_iter().map(|(id, _)| id).collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4, 5], "{name}: canonical tied tail");
    }

    // Same canonical tail through the sharded merge on another algorithm.
    let rep = e.sharded.distance_first(Algorithm::Mir2, &q6).unwrap();
    let tail: Vec<u64> = rep.results[4..].iter().map(|(o, _)| o.id).collect();
    assert_eq!(tail, vec![4, 5]);
}

#[test]
fn k_zero_with_ties_and_decoys_still_empty() {
    // Belt-and-braces for the reported GridIndex::topk k==0 panic: the
    // degenerate fixture (every candidate tied) with k == 0 must return
    // empty on all engines, grid included.
    let e = engines(
        (0..12)
            .map(|i| SpatialObject::new(i, [3.0, 4.0], "pool stacked"))
            .collect(),
    );
    let q = DistanceFirstQuery::new([3.0, 4.0], &["pool"], 0);
    for (name, res) in NAMES.iter().zip(e.run_all(&q)) {
        assert!(res.unwrap().is_empty(), "{name}");
    }
}
