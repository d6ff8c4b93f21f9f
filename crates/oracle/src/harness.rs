//! The config-matrix fuzz harness: builds every engine variant over one
//! generated scenario and checks every answer against the brute-force
//! reference plus the metamorphic invariants.

use std::collections::BTreeSet;
use std::fmt;
use std::time::Duration;

use ir2_grid::{GridConfig, GridIndex};
use ir2_sigscan::SignatureFile;
use ir2tree::geo::{Point, Rect};
use ir2tree::model::{DistanceFirstQuery, ObjPtr, ObjectStore, SpatialObject};
use ir2tree::sigfile::SignatureScheme;
use ir2tree::storage::testing::FaultPlan;
use ir2tree::storage::{MemDevice, StorageError};
use ir2tree::text::{tokenize, LinearRank, SaturatingTfIdf};
use ir2tree::{
    Algorithm, DbConfig, DeviceSet, QueryLimits, QueryReport, RetryDevice, ShardedDb,
    SpatialKeywordDb, TopkRequest,
};

use crate::minimize;
use crate::reference::{reference_general, reference_ranking};
use crate::scenario::{self, Caps, Scenario};

/// Everything one fuzz run needs to know.
#[derive(Clone, Copy, Debug)]
pub struct FuzzOptions {
    /// Base seed of the sweep.
    pub seed: u64,
    /// Number of iterations to run.
    pub iters: u64,
    /// First iteration index (repro commands pin a single iteration by
    /// setting this and `iters = 1`).
    pub start_iter: u64,
    /// Scenario size caps.
    pub caps: Caps,
    /// Deliberately corrupt one engine's answers to prove the harness
    /// (and the repro round trip) catches divergences.
    pub inject_bug: bool,
    /// Shrink the first divergence to minimal reproducing caps.
    pub minimize: bool,
}

impl Default for FuzzOptions {
    fn default() -> Self {
        Self {
            seed: 42,
            iters: 100,
            start_iter: 0,
            caps: Caps::default(),
            inject_bug: false,
            minimize: true,
        }
    }
}

/// Result of a fuzz run.
#[derive(Debug)]
pub struct FuzzOutcome {
    /// Iterations actually executed (stops at the first divergence).
    pub iterations: u64,
    /// Individual invariant checks performed.
    pub checks: u64,
    /// The first divergence found, minimized if requested.
    pub divergence: Option<Divergence>,
}

/// One reproducible disagreement between an engine and the oracle (or a
/// violated metamorphic invariant).
#[derive(Clone, Debug)]
pub struct Divergence {
    /// Sweep seed.
    pub seed: u64,
    /// Iteration the divergence occurred in.
    pub iter: u64,
    /// Caps the scenario was generated under.
    pub caps: Caps,
    /// Whether the deliberate bug injection was active.
    pub inject: bool,
    /// Engine variant that diverged (e.g. `ir2(sharded:2)`).
    pub engine: String,
    /// Violated invariant (e.g. `oracle-exact`).
    pub invariant: String,
    /// The query, rendered.
    pub query: String,
    /// What the invariant demanded.
    pub expected: String,
    /// What the engine produced.
    pub got: String,
}

impl Divergence {
    /// The one-line `ir2` command that replays exactly this case.
    pub fn repro_command(&self) -> String {
        format!(
            "ir2 fuzz --seed {} --start-iter {} --iters 1 --objects {} --queries {} --no-minimize{}",
            self.seed,
            self.iter,
            self.caps.max_objects,
            self.caps.max_queries,
            if self.inject { " --inject-bug" } else { "" }
        )
    }
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "divergence: engine={} invariant={}",
            self.engine, self.invariant
        )?;
        writeln!(
            f,
            "  seed={} iter={} objects-cap={} queries-cap={}",
            self.seed, self.iter, self.caps.max_objects, self.caps.max_queries
        )?;
        writeln!(f, "  query: {}", self.query)?;
        writeln!(f, "  expected: {}", self.expected)?;
        writeln!(f, "  got:      {}", self.got)?;
        write!(f, "  repro: {}", self.repro_command())
    }
}

/// Runs the sweep. `progress(iterations_done, checks_so_far)` is called
/// after every iteration; the run stops at the first divergence.
pub fn run_fuzz(opts: &FuzzOptions, progress: &mut dyn FnMut(u64, u64)) -> FuzzOutcome {
    let mut checks = 0;
    for i in 0..opts.iters {
        let iter = opts.start_iter + i;
        let out = fuzz_one(opts.seed, iter, opts.caps, opts.inject_bug);
        checks += out.checks;
        if let Some(d) = out.divergence {
            let d = if opts.minimize {
                minimize::shrink(opts.seed, iter, opts.caps, opts.inject_bug).unwrap_or(d)
            } else {
                d
            };
            return FuzzOutcome {
                iterations: i + 1,
                checks,
                divergence: Some(d),
            };
        }
        progress(i + 1, checks);
    }
    FuzzOutcome {
        iterations: opts.iters,
        checks,
        divergence: None,
    }
}

/// Outcome of a single iteration (used directly by the minimizer).
pub(crate) struct IterOutcome {
    pub(crate) checks: u64,
    pub(crate) divergence: Option<Divergence>,
}

/// Generates and checks one scenario. Deterministic in all arguments.
pub(crate) fn fuzz_one(seed: u64, iter: u64, caps: Caps, inject: bool) -> IterOutcome {
    let sc = scenario::generate(seed, iter, &caps);
    let mut cx = Checker {
        seed,
        iter,
        caps,
        inject,
        checks: 0,
    };
    let divergence = cx.run(&sc).err().map(|d| *d);
    IterOutcome {
        checks: cx.checks,
        divergence,
    }
}

type Hits = Vec<(u64, f64)>;

fn hits_of(results: &[(SpatialObject<2>, f64)]) -> Hits {
    results.iter().map(|(o, d)| (o.id, *d)).collect()
}

/// Bitwise result equality: same ids, same distance bits, same order —
/// what two engines' answers to one query must show.
fn same_hits(a: &[(u64, f64)], b: &[(u64, f64)]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.0 == y.0 && x.1.to_bits() == y.1.to_bits())
}

/// How far, in units in the last place, an engine's distance may lie from
/// the reference's own ([`reference_distance`](crate::reference::reference_distance)).
const DISTANCE_ULPS: u64 = 4;

/// Whether an engine's distance `got` agrees with the reference's `want`:
/// equal, or both finite and non-negative and at most [`DISTANCE_ULPS`]
/// apart (the bits of non-negative doubles are ordered like the values).
fn close(want: f64, got: f64) -> bool {
    want == got
        || want >= 0.0
            && got >= 0.0
            && want.is_finite()
            && got.is_finite()
            && want.to_bits().abs_diff(got.to_bits()) <= DISTANCE_ULPS
}

/// An answer agrees with the reference's: the same ids in the same order,
/// and every distance [`close`] to the reference's.
fn agrees(want: &[(u64, f64)], got: &[(u64, f64)]) -> bool {
    want.len() == got.len()
        && want
            .iter()
            .zip(got)
            .all(|(w, g)| w.0 == g.0 && close(w.1, g.1))
}

/// The ranking the general-query checks score with: relevance minus a
/// tenth of the distance, so on the scenarios' grid neither term decides
/// alone.
const RANK: LinearRank = LinearRank {
    ir_weight: 1.0,
    dist_weight: 0.1,
};

/// Whether two combined scores agree: equal up to a few ulps of the
/// larger magnitude (a score may be negative, so [`close`] does not
/// apply).
fn close_score(want: f64, got: f64) -> bool {
    want == got || (want - got).abs() <= 1e-15 * want.abs().max(got.abs()).max(1.0)
}

fn fmt_hits(h: &[(u64, f64)]) -> String {
    format!("{h:?}")
}

fn fmt_query(q: &DistanceFirstQuery<2>) -> String {
    format!(
        "point={:?} keywords={:?} k={}",
        q.point.coords(),
        q.keywords,
        q.k
    )
}

struct Checker {
    seed: u64,
    iter: u64,
    caps: Caps,
    inject: bool,
    checks: u64,
}

impl Checker {
    // Boxed: a `Divergence` is wide (several strings), and the error arm
    // is the rare path — keep the Ok-path `Result` thin (clippy:
    // result_large_err).
    fn diverge(
        &self,
        engine: &str,
        invariant: &str,
        query: String,
        expected: String,
        got: String,
    ) -> Box<Divergence> {
        Box::new(Divergence {
            seed: self.seed,
            iter: self.iter,
            caps: self.caps,
            inject: self.inject,
            engine: engine.to_owned(),
            invariant: invariant.to_owned(),
            query,
            expected,
            got,
        })
    }

    fn build_fail(&self, engine: &str, e: &StorageError) -> Box<Divergence> {
        self.diverge(
            engine,
            "engine-error",
            "(build)".into(),
            "successful build".into(),
            format!("{e}"),
        )
    }

    /// Oracle agreement on a plain result list: the reference's ids in its
    /// order, each distance within a few ulps of the reference's own.
    fn exact(
        &mut self,
        engine: &str,
        q: &DistanceFirstQuery<2>,
        expected: &[(u64, f64)],
        got: Result<Hits, StorageError>,
    ) -> Result<(), Box<Divergence>> {
        self.checks += 1;
        match got {
            Ok(h) if agrees(expected, &h) => Ok(()),
            Ok(h) => Err(self.diverge(
                engine,
                "oracle-exact",
                fmt_query(q),
                fmt_hits(expected),
                fmt_hits(&h),
            )),
            Err(e) => Err(self.diverge(
                engine,
                "engine-error",
                fmt_query(q),
                fmt_hits(expected),
                format!("{e}"),
            )),
        }
    }

    /// Counter conservation: every visited node was served by the cache
    /// or decoded from disk — never both, never neither.
    fn conservation(
        &mut self,
        engine: &str,
        q: &DistanceFirstQuery<2>,
        r: &QueryReport,
    ) -> Result<(), Box<Divergence>> {
        self.checks += 1;
        let c = &r.counters;
        if c.nodes_read == c.cache_hits + c.cache_misses {
            Ok(())
        } else {
            Err(self.diverge(
                engine,
                "counter-conservation",
                fmt_query(q),
                "nodes_read == cache_hits + cache_misses".into(),
                format!(
                    "nodes_read={} cache_hits={} cache_misses={}",
                    c.nodes_read, c.cache_hits, c.cache_misses
                ),
            ))
        }
    }

    /// Oracle equality + conservation on a full [`QueryReport`].
    fn check_report(
        &mut self,
        engine: &str,
        q: &DistanceFirstQuery<2>,
        expected: &[(u64, f64)],
        r: Result<QueryReport, StorageError>,
    ) -> Result<(), Box<Divergence>> {
        match r {
            Ok(rep) => {
                self.conservation(engine, q, &rep)?;
                self.exact(engine, q, expected, Ok(hits_of(&rep.results)))
            }
            Err(e) => self.exact(engine, q, expected, Err(e)),
        }
    }

    /// Oracle agreement on a ranked answer: the reference's ids in its
    /// canonical order, each score [`close_score`] to the reference's.
    fn ranked(
        &mut self,
        engine: &str,
        q: &DistanceFirstQuery<2>,
        want: &[(u64, f64)],
        got: Result<Hits, StorageError>,
    ) -> Result<(), Box<Divergence>> {
        self.checks += 1;
        let agrees = |h: &Hits| {
            h.len() == want.len()
                && h.iter()
                    .zip(want)
                    .all(|(g, w)| g.0 == w.0 && close_score(w.1, g.1))
        };
        match got {
            Ok(h) if agrees(&h) => Ok(()),
            Ok(h) => Err(self.diverge(
                engine,
                "oracle-ranked",
                fmt_query(q),
                fmt_hits(want),
                fmt_hits(&h),
            )),
            Err(e) => Err(self.diverge(
                engine,
                "engine-error",
                fmt_query(q),
                fmt_hits(want),
                format!("{e}"),
            )),
        }
    }

    /// Tie-aware truncated-prefix invariant: a truncated answer's
    /// distance sequence is a prefix of the full canonical ranking (each
    /// distance within a few ulps of the reference's); entries strictly below the boundary distance match the
    /// canonical ranking exactly, entries tied at the boundary need only
    /// belong to the oracle's tie group (a budget that trips mid-drain
    /// cannot canonicalize the cut tie group's membership).
    fn truncated_prefix(
        &mut self,
        engine: &str,
        q: &DistanceFirstQuery<2>,
        full: &[(u64, f64)],
        rep: &QueryReport,
    ) -> Result<(), Box<Divergence>> {
        self.checks += 1;
        let got = hits_of(&rep.results);
        let limit = q.k.min(full.len());
        let fail = |cx: &Self, why: &str| {
            cx.diverge(
                engine,
                "truncated-prefix",
                fmt_query(q),
                format!("{why}; full ranking {}", fmt_hits(&full[..limit])),
                fmt_hits(&got),
            )
        };
        if rep.outcome.is_none() {
            return if agrees(&full[..limit], &got) {
                Ok(())
            } else {
                Err(fail(self, "completed run must equal the exact top-k"))
            };
        }
        if got.len() > limit {
            return Err(fail(self, "more results than the full answer holds"));
        }
        let boundary = got.last().map(|&(_, d)| d.to_bits());
        let mut seen = std::collections::HashSet::new();
        for (i, &(id, d)) in got.iter().enumerate() {
            if !close(full[i].1, d) {
                return Err(fail(self, "distance sequence is not a ranking prefix"));
            }
            if !seen.insert(id) {
                return Err(fail(self, "duplicate id"));
            }
            if Some(d.to_bits()) != boundary {
                if id != full[i].0 {
                    return Err(fail(self, "below-boundary entry is not canonical"));
                }
            } else if !full.iter().any(|&(fid, fd)| fid == id && close(fd, d)) {
                return Err(fail(self, "boundary entry outside the oracle tie group"));
            }
        }
        Ok(())
    }

    /// One commit of the insert/delete tail on the warm `db`, whose live
    /// set it turns into `now`. A scan that visits every IR² node runs
    /// before and after: the commit must have cost the cache the nodes it
    /// wrote and no others — a node of the new tree that the old tree had
    /// too is a hit, every other one a miss, never a stale image — and the
    /// answer is the reference's. The catalog is saved afterwards, so the
    /// extents this commit freed are what the next one writes over.
    /// Asserted, not counted: `checks` counts the query sweep.
    fn tail_commit<T>(
        &self,
        db: &mut SpatialKeywordDb<MemDevice>,
        now: &[SpatialObject<2>],
        commit: impl FnOnce(&mut SpatialKeywordDb<MemDevice>) -> Result<T, StorageError>,
    ) -> Result<T, Box<Divergence>> {
        let fail = |e: StorageError| self.build_fail("mutated", &e);
        let scan = DistanceFirstQuery::<2>::new([5.0, 5.0], &[] as &[&str], now.len() + 2);
        db.distance_first(Algorithm::Ir2, &scan).map_err(fail)?;
        let node_ids = |db: &SpatialKeywordDb<MemDevice>| {
            let ids = db.ir2_tree().node_ids().map_err(fail)?;
            Ok::<_, Box<Divergence>>(BTreeSet::from_iter(ids))
        };
        let before = node_ids(db)?;
        let out = commit(db).map_err(fail)?;
        let after = node_ids(db)?;
        let rep = db.distance_first(Algorithm::Ir2, &scan).map_err(fail)?;
        db.save_catalog().map_err(fail)?;

        let kept = after.intersection(&before).count() as u64;
        let c = &rep.counters;
        if (c.cache_hits, c.cache_misses) != (kept, after.len() as u64 - kept) {
            return Err(self.diverge(
                "ir2(mutated)",
                "commit-invalidates-what-it-wrote",
                fmt_query(&scan),
                format!(
                    "cache_hits={kept} cache_misses={}",
                    after.len() as u64 - kept
                ),
                format!(
                    "cache_hits={} cache_misses={}",
                    c.cache_hits, c.cache_misses
                ),
            ));
        }
        let expect = reference_ranking(now, &scan);
        let got = hits_of(&rep.results);
        if !agrees(&expect, &got) {
            return Err(self.diverge(
                "ir2(mutated)",
                "oracle-exact",
                fmt_query(&scan),
                fmt_hits(&expect),
                fmt_hits(&got),
            ));
        }
        Ok(out)
    }

    fn run(&mut self, sc: &Scenario) -> Result<(), Box<Divergence>> {
        let live = sc.live();
        let cfg = DbConfig {
            capacity: Some(4), // deep trees even at fuzz-sized datasets
            sig_bytes: 8,
            ..DbConfig::default()
        };
        let warm_cfg = DbConfig {
            node_cache: 64,
            ..cfg.clone()
        };

        let cold = SpatialKeywordDb::build(DeviceSet::in_memory(), live.clone(), cfg.clone())
            .map_err(|e| self.build_fail("cold", &e))?;
        let warm = SpatialKeywordDb::build(DeviceSet::in_memory(), live.clone(), warm_cfg)
            .map_err(|e| self.build_fail("warm", &e))?;
        // Transient faults on every device: the retry layer must absorb
        // them without changing a single answer.
        let flaky = SpatialKeywordDb::build(
            DeviceSet::in_memory()
                .map(|_role, d| RetryDevice::new(FaultPlan::every_kth(5).wrap(d))),
            live.clone(),
            cfg.clone(),
        )
        .map_err(|e| self.build_fail("flaky", &e))?;

        let mut sharded: Vec<(usize, ShardedDb<MemDevice>)> = Vec::new();
        for s in [1usize, 2, 4] {
            if s <= live.len() {
                let db = ShardedDb::build(
                    (0..s).map(|_| DeviceSet::in_memory()).collect(),
                    live.clone(),
                    cfg.clone(),
                )
                .map_err(|e| self.build_fail(&format!("sharded:{s}"), &e))?;
                sharded.push((s, db));
            }
        }

        // Replicated shards over faulty devices: every replica sees a
        // transient fault every 5th access (absorbed by the retry layer),
        // and halfway through the query sweep every shard's primary
        // replica is killed outright — queries must fail over to the
        // survivor with bitwise-identical answers and zero failures.
        let replicated = if live.len() >= 2 {
            let (s, r) = (2usize, 2usize);
            let raw: Vec<Vec<DeviceSet<std::sync::Arc<MemDevice>>>> = (0..s)
                .map(|_| {
                    (0..r)
                        .map(|_| DeviceSet::in_memory().map(|_role, d| std::sync::Arc::new(d)))
                        .collect()
                })
                .collect();
            // Populate (and byte-verify) the replicas through shared Arc
            // handles, then reopen them behind the fault injectors.
            drop(
                ShardedDb::build_replicated(raw.clone(), live.clone(), cfg.clone())
                    .map_err(|e| self.build_fail("replicated", &e))?,
            );
            let kills: Vec<Vec<FaultPlan>> = (0..s)
                .map(|_| (0..r).map(|_| FaultPlan::new()).collect())
                .collect();
            let groups = raw
                .into_iter()
                .zip(&kills)
                .map(|(group, ks)| {
                    group
                        .into_iter()
                        .zip(ks)
                        .map(|(set, k)| {
                            set.map(|_role, d| {
                                RetryDevice::new(FaultPlan::every_kth(5).wrap(k.wrap(d)))
                            })
                        })
                        .collect()
                })
                .collect();
            let db = ShardedDb::from_replica_groups(groups)
                .map_err(|e| self.build_fail("replicated", &e))?;
            Some((db, kills))
        } else {
            None
        };

        // Standalone baselines share one object store (A4 ablation setup).
        let store = ObjectStore::<2, _>::create(MemDevice::new());
        let mut items: Vec<(ObjPtr, ir2tree::geo::Point<2>, Vec<String>)> = Vec::new();
        for o in &live {
            let ptr = store.append(o).map_err(|e| self.build_fail("store", &e))?;
            let mut terms: Vec<String> = tokenize(&o.text).collect();
            terms.sort_unstable();
            terms.dedup();
            items.push((ptr, o.point, terms));
        }
        store.flush().map_err(|e| self.build_fail("store", &e))?;
        let scheme = SignatureScheme::from_bytes_len(8, 4, 1);
        let grid = GridIndex::build(
            MemDevice::new(),
            GridConfig::for_objects(live.len(), 4, scheme),
            &items,
        )
        .map_err(|e| self.build_fail("grid", &e))?;
        let ssf = SignatureFile::build(
            MemDevice::new(),
            scheme,
            items.iter().map(|(p, _, terms)| (*p, terms.as_slice())),
        )
        .map_err(|e| self.build_fail("ssf", &e))?;

        // The mutated database starts from `initial` and replays the
        // insert/delete tail. Its inverted index is stale by design
        // (IIO is the paper's static baseline), so only the three tree
        // algorithms are compared on it. It is a warm engine whose cache
        // holds its trees whole, so `tail_commit` can say exactly which
        // images each commit may cost it.
        let mutated_cfg = DbConfig {
            node_cache: 4096,
            ..cfg.clone()
        };
        let mut mutated =
            SpatialKeywordDb::build(DeviceSet::in_memory(), sc.initial.clone(), mutated_cfg)
                .map_err(|e| self.build_fail("mutated", &e))?;
        let mut now = sc.initial.clone();
        let mut ins_ptrs: Vec<ObjPtr> = Vec::new();
        for o in &sc.inserts {
            now.push(o.clone());
            ins_ptrs.push(self.tail_commit(&mut mutated, &now, |db| db.insert(o))?);
        }
        for &i in &sc.delete_idx {
            now.retain(|o| o.id != sc.inserts[i].id);
            let found = self.tail_commit(&mut mutated, &now, |db| db.delete(ins_ptrs[i]))?;
            if !found {
                return Err(self.diverge(
                    "mutated",
                    "delete-missing",
                    format!("(delete insert #{i})"),
                    "delete of a live object returns true".into(),
                    "false".into(),
                ));
            }
        }

        const TREE_ALGS: [Algorithm; 3] = [Algorithm::RTree, Algorithm::Ir2, Algorithm::Mir2];

        // The warm variants prune through the bit-sliced block every
        // cached image holds from its install on; the cold variants cover
        // the in-place path.
        for (qi, q) in sc.queries.iter().enumerate() {
            let full = reference_ranking(&live, q);
            let expect = &full[..q.k.min(full.len())];

            if let Some((db, kills)) = &replicated {
                // Mid-sweep: kill every primary replica's devices.
                if qi == sc.queries.len() / 2 {
                    for ks in kills {
                        ks[0].set_budget(0);
                    }
                }
                self.check_report(
                    "ir2(replicated)",
                    q,
                    expect,
                    db.distance_first(Algorithm::Ir2, q),
                )?;
                if !q.keywords.is_empty() {
                    self.check_report(
                        "iio(replicated)",
                        q,
                        expect,
                        db.distance_first(Algorithm::Iio, q),
                    )?;
                }
            }

            if q.keywords.is_empty() {
                // IIO has no spatial access path: an empty keyword list
                // must be rejected, not mis-answered.
                self.checks += 1;
                if let Ok(rep) = cold.distance_first(Algorithm::Iio, q) {
                    return Err(self.diverge(
                        "iio(cold)",
                        "iio-empty-keywords-error",
                        fmt_query(q),
                        "an error (IIO cannot answer pure NN)".into(),
                        fmt_hits(&hits_of(&rep.results)),
                    ));
                }
            }

            for alg in Algorithm::ALL {
                if alg == Algorithm::Iio && q.keywords.is_empty() {
                    continue;
                }
                let key = alg.key();

                // Oracle equality on cold and warm monolithic databases.
                let rep = cold.distance_first(alg, q);
                if self.inject && alg == Algorithm::Ir2 {
                    // Deliberate corruption: drop the last result.
                    let got = rep.map(|r| {
                        let mut h = hits_of(&r.results);
                        h.pop();
                        h
                    });
                    self.exact("ir2(cold)", q, expect, got)?;
                } else {
                    self.check_report(&format!("{key}(cold)"), q, expect, rep)?;
                }
                self.check_report(
                    &format!("{key}(warm)"),
                    q,
                    expect,
                    warm.distance_first(alg, q),
                )?;

                // Sharded scatter-gather at every shard count.
                for (s, db) in &sharded {
                    self.check_report(
                        &format!("{key}(sharded:{s})"),
                        q,
                        expect,
                        db.distance_first(alg, q),
                    )?;
                }

                // Metamorphic: top-k is an exact prefix of top-(k+1).
                // Canonical total order makes this prefix exact, not
                // merely set-wise.
                let mut q1 = q.clone();
                q1.k = q.k + 1;
                let rk = cold.distance_first(alg, q).map(|r| hits_of(&r.results));
                let rk1 = cold.distance_first(alg, &q1).map(|r| hits_of(&r.results));
                self.checks += 1;
                match (rk, rk1) {
                    (Ok(a), Ok(b)) => {
                        let prefix = &b[..q.k.min(b.len())];
                        if !same_hits(&a, prefix) {
                            return Err(self.diverge(
                                &format!("{key}(cold)"),
                                "k-prefix-of-k-plus-1",
                                fmt_query(q),
                                fmt_hits(prefix),
                                fmt_hits(&a),
                            ));
                        }
                    }
                    (Err(e), _) | (_, Err(e)) => {
                        return Err(self.diverge(
                            &format!("{key}(cold)"),
                            "engine-error",
                            fmt_query(q),
                            "both k and k+1 answered".into(),
                            format!("{e}"),
                        ));
                    }
                }
            }

            // The §5.3 general query on the signature trees of the cold,
            // warm and mutated engines, anchored at the query point and at
            // an area around it, against the reference scored with each
            // engine's own vocabulary (the mutated engine's document
            // frequencies are those of its initial build).
            let ranked = |db: &SpatialKeywordDb<MemDevice>, alg, region, rank: LinearRank| {
                let req = TopkRequest::new(alg, region, &q.keywords, q.k);
                db.run(&req.ranked(SaturatingTfIdf, rank))
                    .map(|r| hits_of(&r.results))
            };
            let [x, y] = *q.point.coords();
            let area = Rect::new(
                Point::new([x - 2.0, y - 1.0]),
                Point::new([x + 1.0, y + 2.0]),
            );
            for (shape, region) in [("point", q.point.into()), ("area", area.into())] {
                for (name, db, objects) in [
                    ("cold", &cold, &live),
                    ("warm", &warm, &live),
                    ("mutated", &mutated, &now),
                ] {
                    let want = reference_general(
                        objects,
                        &region,
                        &q.keywords,
                        q.k,
                        db.vocab(),
                        &SaturatingTfIdf,
                        &RANK,
                    );
                    for alg in [Algorithm::Ir2, Algorithm::Mir2] {
                        let engine = format!("{}({name}, ranked at {shape})", alg.key());
                        self.ranked(&engine, q, &want, ranked(db, alg, region, RANK))?;
                    }
                }
            }

            // Metamorphic: ranked by distance alone, a one-keyword general
            // query is the distance-first query (the keyword's presence is
            // a positive IR score), ids and order.
            if q.keywords.len() == 1 {
                let by_distance = LinearRank {
                    ir_weight: 0.0,
                    dist_weight: 1.0,
                };
                for alg in [Algorithm::Ir2, Algorithm::Mir2] {
                    let engine = format!("{}(cold, ranked by distance)", alg.key());
                    let ids = |h: Result<Hits, StorageError>| {
                        h.map(|h| h.iter().map(|&(id, _)| id).collect::<Vec<_>>())
                    };
                    let want = ids(cold.distance_first(alg, q).map(|r| hits_of(&r.results)));
                    let got = ids(ranked(&cold, alg, q.point.into(), by_distance));
                    self.checks += 1;
                    match (want, got) {
                        (Ok(want), Ok(got)) if want == got => {}
                        (Ok(want), Ok(got)) => {
                            return Err(self.diverge(
                                &engine,
                                "ranked-equals-distance-first",
                                fmt_query(q),
                                format!("{want:?}"),
                                format!("{got:?}"),
                            ));
                        }
                        (Err(e), _) | (_, Err(e)) => {
                            return Err(self.diverge(
                                &engine,
                                "engine-error",
                                fmt_query(q),
                                "both rankings answered".into(),
                                format!("{e}"),
                            ));
                        }
                    }
                }
            }

            // Fault injection: transient faults must be invisible.
            self.check_report(
                "ir2(flaky)",
                q,
                expect,
                flaky.distance_first(Algorithm::Ir2, q),
            )?;

            // Incremental maintenance: the mutated database answers the
            // live set exactly (tree algorithms only; see above).
            for alg in TREE_ALGS {
                self.check_report(
                    &format!("{}(mutated)", alg.key()),
                    q,
                    expect,
                    mutated.distance_first(alg, q),
                )?;
            }

            // Standalone baselines.
            self.exact(
                "grid",
                q,
                expect,
                grid.topk(&store, q).map(|(r, _)| hits_of(&r)),
            )?;
            self.exact(
                "ssf",
                q,
                expect,
                ssf.topk(&store, q).map(|(r, _)| hits_of(&r)),
            )?;

            // Execution limits: truncated answers are tie-aware prefixes
            // of the full ranking, and conservation holds in every
            // report. Budget 0 trips immediately; 1 and 8 cut mid-way.
            for alg in [Algorithm::RTree, Algorithm::Ir2] {
                for budget in [0u64, 1, 8] {
                    let limits = QueryLimits::none().with_io_budget(budget);
                    match cold.run(&TopkRequest::from_query(alg, q).limited(limits)) {
                        Ok(rep) => {
                            self.conservation(&format!("{}(budget:{budget})", alg.key()), q, &rep)?;
                            self.truncated_prefix(
                                &format!("{}(budget:{budget})", alg.key()),
                                q,
                                &full,
                                &rep,
                            )?;
                        }
                        Err(e) => {
                            return Err(self.diverge(
                                &format!("{}(budget:{budget})", alg.key()),
                                "engine-error",
                                fmt_query(q),
                                "a (possibly truncated) report".into(),
                                format!("{e}"),
                            ));
                        }
                    }
                }
            }

            // An already-expired deadline truncates deterministically
            // with no results — except k == 0, which completes trivially
            // before the first cooperative limit check.
            let limits = QueryLimits::none().with_deadline(Duration::ZERO);
            match cold.run(&TopkRequest::from_query(Algorithm::Ir2, q).limited(limits)) {
                Ok(rep) => {
                    self.checks += 1;
                    if (rep.outcome.is_none() && q.k > 0) || !rep.results.is_empty() {
                        return Err(self.diverge(
                            "ir2(deadline:0)",
                            "expired-deadline",
                            fmt_query(q),
                            "truncated with no results".into(),
                            format!("outcome={:?} results={}", rep.outcome, rep.results.len()),
                        ));
                    }
                }
                Err(e) => {
                    return Err(self.diverge(
                        "ir2(deadline:0)",
                        "engine-error",
                        fmt_query(q),
                        "a truncated report".into(),
                        format!("{e}"),
                    ));
                }
            }

            // IIO degrades all-or-nothing under limits.
            if !q.keywords.is_empty() {
                self.checks += 1;
                let starved = QueryLimits::none().with_io_budget(1);
                match cold.run(&TopkRequest::from_query(Algorithm::Iio, q).limited(starved)) {
                    Ok(rep) => {
                        let ok = if rep.outcome.is_some() {
                            rep.results.is_empty()
                        } else {
                            agrees(expect, &hits_of(&rep.results))
                        };
                        if !ok {
                            return Err(self.diverge(
                                "iio(budget:1)",
                                "iio-all-or-nothing",
                                fmt_query(q),
                                "empty results when truncated, exact top-k otherwise".into(),
                                fmt_hits(&hits_of(&rep.results)),
                            ));
                        }
                    }
                    Err(e) => {
                        return Err(self.diverge(
                            "iio(budget:1)",
                            "engine-error",
                            fmt_query(q),
                            "a (possibly truncated) report".into(),
                            format!("{e}"),
                        ));
                    }
                }
            }
        }

        // Delete + reinsert is invisible: answers before and after must
        // be bitwise identical (the reinserted object gets a new record
        // pointer — results must not depend on pointers).
        if let Some(probe) = (0..sc.inserts.len()).find(|i| !sc.delete_idx.contains(i)) {
            let q = DistanceFirstQuery::<2>::new([5.0, 5.0], &[] as &[&str], live.len());
            let r1 = mutated
                .distance_first(Algorithm::Ir2, &q)
                .map_err(|e| self.build_fail("mutated", &e))?;
            let found = mutated
                .delete(ins_ptrs[probe])
                .map_err(|e| self.build_fail("mutated", &e))?;
            if !found {
                return Err(self.diverge(
                    "mutated",
                    "delete-reinsert-idempotence",
                    fmt_query(&q),
                    "delete of a live object returns true".into(),
                    "false".into(),
                ));
            }
            mutated
                .insert(&sc.inserts[probe])
                .map_err(|e| self.build_fail("mutated", &e))?;
            let r2 = mutated
                .distance_first(Algorithm::Ir2, &q)
                .map_err(|e| self.build_fail("mutated", &e))?;
            self.checks += 1;
            let (h1, h2) = (hits_of(&r1.results), hits_of(&r2.results));
            if !same_hits(&h1, &h2) {
                return Err(self.diverge(
                    "ir2(mutated)",
                    "delete-reinsert-idempotence",
                    fmt_query(&q),
                    fmt_hits(&h1),
                    fmt_hits(&h2),
                ));
            }
        }

        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::reference_topk;

    /// An engine that measures an object 1e-200 from the query point at
    /// distance 0 (a rule that squares the gap and underflows) diverges
    /// from the reference, whichever way it then breaks the tie; the true
    /// distance, or one a few ulps off, agrees.
    #[test]
    fn a_zero_distance_for_a_tiny_gap_is_a_divergence() {
        let objects = vec![
            SpatialObject::new(1, [1e-200, 0.0], "cafe"),
            SpatialObject::new(2, [0.0, 0.0], "cafe"),
        ];
        let q = DistanceFirstQuery::new([0.0, 0.0], &["cafe"], 2);
        let want = reference_topk(&objects, &q);
        assert_eq!(want, vec![(2, 0.0), (1, 1e-200)]);

        let off = f64::from_bits(1e-200f64.to_bits() + DISTANCE_ULPS);
        assert!(agrees(&want, &[(2, 0.0), (1, 1e-200)]));
        assert!(agrees(&want, &[(2, 0.0), (1, off)]));
        assert!(!agrees(
            &want,
            &[(2, 0.0), (1, f64::from_bits(off.to_bits() + 1))]
        ));
        for underflowed in [vec![(1, 0.0), (2, 0.0)], vec![(2, 0.0), (1, 0.0)]] {
            assert!(!agrees(&want, &underflowed), "{underflowed:?}");
            let mut checker = Checker {
                seed: 0,
                iter: 0,
                caps: Caps::default(),
                inject: false,
                checks: 0,
            };
            let caught = checker
                .exact("ir2(cold)", &q, &want, Ok(underflowed))
                .unwrap_err();
            assert_eq!(caught.invariant, "oracle-exact");
            assert_eq!(checker.checks, 1);
        }
    }
}
