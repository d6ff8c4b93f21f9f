//! The four workloads: their plans, their shared set-up, and the untraced
//! run that yields the end-to-end metrics.
//!
//! Conditions common to all: devices are `DeviceSet::in_memory()` (the
//! numbers are the sandbox's CPU cost, not a disk's), prefetch is off, the
//! algorithm is IR², k = 10, and the loop is closed — a client sends its
//! next operation when the previous one returns.

use std::sync::Barrier;
use std::time::{Duration, Instant};

use ir2_datagen::DatasetSpec;
use ir2tree::model::{DistanceFirstQuery, SpatialObject};
use ir2tree::storage::MemDevice;
use ir2tree::{Algorithm, DbConfig, DeviceSet, QueryReport, ShardedDb, SpatialKeywordDb};

use crate::inputs;
use crate::json::num;
use crate::reference::{digest_results, Checker, Reference};
use crate::stats::{highest_percentile, median, percentile, samples_beyond};

pub type Db = SpatialKeywordDb<MemDevice>;

/// Writes beside the reads: each round inserts one fresh object, commits,
/// then answers `queries_per_round` queries.
#[derive(Debug, Clone, Copy)]
pub struct Writes {
    pub queries_per_round: usize,
    /// Rounds the metrics are taken over. Each round inserts a different
    /// object at a very different cost (30 ms, or 600 ms when the MIR²-Tree
    /// recomputes signatures), so only a fixed run of rounds compares
    /// between runs; rounds past it keep the clock's promise and are
    /// verified, but not measured.
    pub count_rounds: usize,
}

#[derive(Debug, Clone)]
pub struct Plan {
    pub spec: DatasetSpec,
    pub config: DbConfig,
    /// 0: one monolithic database. Otherwise `ShardedDb` with one replica.
    pub shards: usize,
    /// Benchmark-owned client threads; capped at the host's cores.
    pub clients: usize,
    /// Distinct queries in the list Q.
    pub queries: usize,
    pub writes: Option<Writes>,
    /// Traced run: queries replayed layer by layer, and piecewise inserts.
    pub trace_queries: usize,
    pub trace_inserts: usize,
}

pub const WORKLOADS: [&str; 4] = [
    "cold_hotels",
    "warm_hotels",
    "mixed_hotels",
    "sharded_restaurants",
];

impl Plan {
    pub fn named(name: &str) -> Option<Plan> {
        let hotels = |node_cache, queries, writes| Plan {
            spec: DatasetSpec::hotels(),
            config: DbConfig::hotels().with_node_cache(node_cache),
            shards: 0,
            clients: 1,
            queries,
            writes,
            trace_queries: 128,
            trace_inserts: 100,
        };
        Some(match name {
            // The default configuration: no decoded-node cache, so every
            // node visit pays device read, CRC, decode and block build.
            // A cold query takes ~13 ms on average: one pass over 1024
            // fills the window.
            "cold_hotels" => hotels(0, 1024, None),
            // The IR² tree is ~7.7k blocks; 16 384 nodes per tree hold it.
            "warm_hotels" => hotels(16_384, 4096, None),
            "mixed_hotels" => hotels(
                16_384,
                4096,
                // 24 rounds take ~11 s here: the window ends with them.
                Some(Writes {
                    queries_per_round: 100,
                    count_rounds: 24,
                }),
            ),
            "sharded_restaurants" => Plan {
                spec: DatasetSpec::restaurants(),
                config: DbConfig::restaurants().with_node_cache(8192),
                shards: 4,
                clients: 2,
                queries: 1024,
                writes: None,
                trace_queries: 128,
                trace_inserts: 100,
            },
            _ => return None,
        })
    }

    /// The plan on a `factor`-sized dataset (tests and quick looks; the
    /// reported numbers are full scale).
    pub fn scaled(mut self, factor: f64) -> Plan {
        if factor != 1.0 {
            self.spec = self.spec.scaled(factor);
        }
        self
    }
}

pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

pub enum Engine {
    Mono(Box<Db>),
    Sharded(ShardedDb<MemDevice>),
}

impl Engine {
    pub fn query(
        &self,
        alg: Algorithm,
        q: &DistanceFirstQuery<2>,
    ) -> ir2tree::storage::Result<QueryReport> {
        match self {
            Engine::Mono(db) => db.distance_first(alg, q),
            Engine::Sharded(db) => db.distance_first(alg, q),
        }
    }

    /// The database a query's point falls in: the monolithic one, or the
    /// shard whose bounds are nearest. Layer replays run against it.
    pub fn home(&self, q: &DistanceFirstQuery<2>) -> &Db {
        match self {
            Engine::Mono(db) => db,
            Engine::Sharded(db) => {
                let nearest = db
                    .bounds()
                    .iter()
                    .enumerate()
                    .filter_map(|(i, b)| b.map(|r| (r.min_dist(&q.point), i)))
                    .min_by(|a, b| a.0.total_cmp(&b.0))
                    .map_or(0, |(_, i)| i);
                db.shards().nth(nearest).expect("shard index in range")
            }
        }
    }

    pub fn databases(&self) -> Vec<&Db> {
        match self {
            Engine::Mono(db) => vec![db],
            Engine::Sharded(db) => db.shards().collect(),
        }
    }

    /// Bytes of every structure of every database, object file included.
    pub fn stored_bytes(&self) -> u64 {
        self.databases().into_iter().map(stored_bytes).sum()
    }
}

/// Bytes of every structure of `db`, object file included.
pub fn stored_bytes(db: &Db) -> u64 {
    let s = db.index_sizes();
    s.iio + s.rtree + s.ir2 + s.mir2 + s.objects
}

/// One executed query: its index in Q and the digest of its answer (`None`
/// when it returned an error).
pub type Op = (u32, Option<u64>);

/// Everything a run needs, and what setting it up cost.
pub struct Prepared {
    pub engine: Engine,
    pub queries: Vec<DistanceFirstQuery<2>>,
    /// Fresh objects for inserts, ids continuing past the dataset's.
    pub tail: Vec<SpatialObject<2>>,
    pub checker: Checker,
    pub clients: usize,
    pub tsv_bytes: u64,
    pub generate_s: f64,
    pub build_s: f64,
    pub warmup_s: f64,
    /// The benchmark's own work (fingerprints, query list, reference
    /// index); not part of `setup_s`.
    pub reference_s: f64,
    pub dataset_fingerprint: u64,
    pub query_fingerprint: u64,
}

impl Prepared {
    pub fn setup_s(&self) -> f64 {
        self.generate_s + self.build_s + self.warmup_s
    }
}

pub fn prepare(plan: &Plan, seed: u64) -> Result<Prepared, String> {
    let t = Instant::now();
    let (base, tail) = inputs::generate(&plan.spec, inputs::INSERT_TAIL);
    let generate_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let dataset_fingerprint = inputs::fingerprint_objects(base.iter().chain(&tail));
    inputs::check_dataset_pin(plan.spec.name, base.len() + tail.len(), dataset_fingerprint)?;
    let words = inputs::query_words(&plan.spec);
    let mut reference = Reference::new(&words);
    base.iter().for_each(|o| reference.add(o));
    let queries = inputs::queries(&base, &words, seed, plan.queries, |q| reference.matches(q));
    let query_fingerprint = inputs::fingerprint_queries(&queries);
    inputs::check_query_pin(
        plan.spec.name,
        base.len(),
        seed,
        queries.len(),
        query_fingerprint,
    )?;
    let tsv_bytes = inputs::tsv_bytes(&base);
    let reference_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let engine = if plan.shards == 0 {
        SpatialKeywordDb::build(DeviceSet::in_memory(), base, plan.config.clone())
            .map(|db| Engine::Mono(Box::new(db)))
    } else {
        let devices = (0..plan.shards).map(|_| DeviceSet::in_memory()).collect();
        ShardedDb::build(devices, base, plan.config.clone()).map(Engine::Sharded)
    }
    .map_err(|e| format!("build failed: {e}"))?;
    let build_s = t.elapsed().as_secs_f64();

    let mut prepared = Prepared {
        engine,
        checker: Checker::new(reference, queries.len()),
        queries,
        tail,
        clients: plan.clients.min(host_cores()),
        tsv_bytes,
        generate_s,
        build_s,
        warmup_s: 0.0,
        reference_s,
        dataset_fingerprint,
        query_fingerprint,
    };
    // Under writes every insert empties the caches again, so there is
    // nothing to warm.
    if plan.config.node_cache > 0 && plan.writes.is_none() {
        let t = Instant::now();
        for db in prepared.engine.databases() {
            preload(db).map_err(|e| format!("warm-up failed: {e}"))?;
        }
        prepared.warmup_s = t.elapsed().as_secs_f64();
    }
    Ok(prepared)
}

/// Warm-up: reads every node of the IR² tree through its decoded-node
/// cache, so the timed window starts with the whole tree cached, as it is
/// in steady state when the cache holds the tree. Warming by queries would
/// cost a cold pass over Q; this costs a tenth of a second. Signature
/// blocks are still built on a node's first visit (~6 µs each, once).
fn preload(db: &Db) -> ir2tree::storage::Result<()> {
    let tree = db.ir2_tree();
    let mut frontier: Vec<u64> = tree.root().into_iter().collect();
    while let Some(id) = frontier.pop() {
        let (node, _) = tree.read_node_cached(id)?;
        if !node.is_leaf() {
            frontier.extend(node.children());
        }
    }
    Ok(())
}

/// Sums over one client's first full pass of its share of Q. Fixed work,
/// so these repeat exactly whatever the run length. The end-to-end run
/// reports the first four; the traced run the rest.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct Counts {
    pub queries: u64,
    pub blocks: u64,
    pub sim_ns: u128,
    pub object_loads: u64,
    pub random_blocks: u64,
    pub seq_blocks: u64,
    pub nodes: u64,
    pub cache_hits: u64,
    pub candidates: u64,
    pub false_positives: u64,
}

impl Counts {
    fn add_report(&mut self, r: &QueryReport) {
        self.queries += 1;
        self.blocks += r.io.total();
        self.sim_ns += r.simulated.as_nanos();
        self.object_loads += r.object_loads;
        self.random_blocks += r.io.random();
        self.seq_blocks += r.io.sequential();
        self.nodes += r.counters.nodes_read;
        self.cache_hits += r.counters.cache_hits;
        self.candidates += r.counters.candidates_checked;
        self.false_positives += r.counters.false_positives;
    }

    pub fn merge(&mut self, o: &Counts) {
        self.queries += o.queries;
        self.blocks += o.blocks;
        self.sim_ns += o.sim_ns;
        self.object_loads += o.object_loads;
        self.random_blocks += o.random_blocks;
        self.seq_blocks += o.seq_blocks;
        self.nodes += o.nodes;
        self.cache_hits += o.cache_hits;
        self.candidates += o.candidates;
        self.false_positives += o.false_positives;
    }
}

#[derive(Default)]
pub struct ClientLog {
    pub ops: Vec<Op>,
    /// Per op: latency, and completion time since the client started.
    pub latency_ns: Vec<u64>,
    pub end_ns: Vec<u64>,
    pub counts: Counts,
}

impl ClientLog {
    fn record(
        &mut self,
        qi: u32,
        started: Instant,
        epoch: Instant,
        out: ir2tree::storage::Result<QueryReport>,
        counting: bool,
    ) {
        let done = Instant::now();
        self.latency_ns.push((done - started).as_nanos() as u64);
        self.end_ns.push((done - epoch).as_nanos() as u64);
        match out {
            Ok(report) => {
                if counting {
                    self.counts.add_report(&report);
                }
                self.ops.push((qi, Some(digest_results(&report.results))));
            }
            Err(_) => self.ops.push((qi, None)),
        }
    }
}

/// Runs the read-only closed loop: client `c` of `n` cycles through the
/// `c`-th contiguous share of Q (a run of the bit-reversed order spans the
/// cost profile; every `n`-th query would not) in whole passes, until
/// `window` has passed.
pub fn run_clients(
    p: &Prepared,
    alg: Algorithm,
    queries: &[DistanceFirstQuery<2>],
    clients: usize,
    window: Duration,
) -> Vec<ClientLog> {
    let n = clients;
    let barrier = Barrier::new(n);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..n)
            .map(|c| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let share = queries.len() / n;
                    let mine: Vec<u32> = (c * share..(c + 1) * share).map(|i| i as u32).collect();
                    let mut log = ClientLog::default();
                    barrier.wait();
                    let epoch = Instant::now();
                    let mut i = 0;
                    while i % mine.len() != 0 || i == 0 || epoch.elapsed() < window {
                        let qi = mine[i % mine.len()];
                        let started = Instant::now();
                        let out = p.engine.query(alg, &queries[qi as usize]);
                        log.record(qi, started, epoch, out, i < mine.len());
                        i += 1;
                    }
                    log
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    })
}

pub fn check_logs(p: &mut Prepared, logs: &[ClientLog]) {
    for &(qi, got) in logs.iter().flat_map(|l| &l.ops) {
        p.checker.check(qi as usize, &p.queries[qi as usize], got);
    }
}

/// What the write rounds recorded beside the query log.
#[derive(Default)]
pub struct WriteLog {
    pub insert_ns: Vec<u64>,
    pub commit_ns: Vec<u64>,
    /// Per round: did insert and commit succeed, and how many query ops
    /// had been logged when the round ended.
    pub rounds: Vec<(bool, bool, usize)>,
    /// Stored bytes after the last counted round's commit.
    pub stored_bytes_at_count: u64,
}

/// Runs the mixed closed loop on one client: rounds of insert, commit and
/// `queries_per_round` queries continuing through Q, for at least
/// `count_rounds` rounds and until `window` has passed.
pub fn run_mixed(p: &mut Prepared, writes: Writes, window: Duration) -> (ClientLog, WriteLog) {
    let Engine::Mono(db) = &mut p.engine else {
        panic!("writes need the monolithic engine: ShardedDb has no insert");
    };
    let mut log = ClientLog::default();
    let mut wlog = WriteLog::default();
    let epoch = Instant::now();
    let mut cursor = 0usize;
    for (round, obj) in p.tail.iter().enumerate() {
        if round >= writes.count_rounds && epoch.elapsed() >= window {
            break;
        }
        let t = Instant::now();
        let inserted = db.insert(obj).is_ok();
        wlog.insert_ns.push(t.elapsed().as_nanos() as u64);
        let t = Instant::now();
        let committed = db.save_catalog().is_ok();
        wlog.commit_ns.push(t.elapsed().as_nanos() as u64);
        for _ in 0..writes.queries_per_round {
            let qi = (cursor % p.queries.len()) as u32;
            cursor += 1;
            let started = Instant::now();
            let out = db.distance_first(Algorithm::Ir2, &p.queries[qi as usize]);
            log.record(qi, started, epoch, out, round < writes.count_rounds);
        }
        wlog.rounds.push((inserted, committed, log.ops.len()));
        if round + 1 == writes.count_rounds {
            wlog.stored_bytes_at_count = stored_bytes(db);
        }
    }
    (log, wlog)
}

/// Replays the rounds against the reference: each successful insert is
/// visible to the queries of its own round and later.
pub fn check_mixed(p: &mut Prepared, log: &ClientLog, wlog: &WriteLog) {
    let mut from = 0;
    for (round, &(inserted, committed, to)) in wlog.rounds.iter().enumerate() {
        p.checker.count(inserted);
        p.checker.count(committed);
        if inserted {
            p.checker.add(&p.tail[round]);
        }
        for &(qi, got) in &log.ops[from..to] {
            p.checker.check(qi as usize, &p.queries[qi as usize], got);
        }
        from = to;
    }
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    /// How many samples the value summarizes.
    pub samples: u64,
}

pub fn metric(name: &str, value: f64, samples: u64) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        samples,
    }
}

pub struct RunResult {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// Raw values behind the metrics, as (key, JSON) pairs for the result
    /// file.
    pub extra: Vec<(String, String)>,
}

/// Peak resident set of this process (`VmHWM`), in MiB. It includes the
/// benchmark's own reference index and logs, which are the same at every
/// commit.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Timing of one pass: one trip through Q (each client through its share),
/// or `count_rounds` write rounds. Passes are equal work, so their timings
/// compare directly, and the run reports its median pass. (The best pass
/// was tried and is no steadier: on this host interference lasts longer
/// than a run.)
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PassTiming {
    pub p50_ns: u64,
    pub p99_ns: u64,
    /// Queries per second of wall time, summed over clients. Anything a
    /// client did between its queries (inserts, commits) is in the time.
    pub qps: f64,
}

/// Per-pass timings over the passes every client completed; a trailing
/// partial pass is not timed. `pass_len` is one client's operations per
/// pass.
fn pass_timings(logs: &[ClientLog], pass_len: usize) -> Vec<PassTiming> {
    let passes = logs
        .iter()
        .map(|l| l.end_ns.len() / pass_len)
        .min()
        .unwrap_or(0);
    (0..passes)
        .map(|pass| {
            let (from, to) = (pass * pass_len, (pass + 1) * pass_len);
            let mut latencies: Vec<u64> = logs
                .iter()
                .flat_map(|l| l.latency_ns[from..to].iter().copied())
                .collect();
            latencies.sort_unstable();
            let qps = logs
                .iter()
                .map(|l| {
                    let started_ns = if from == 0 { 0 } else { l.end_ns[from - 1] };
                    pass_len as f64 / ((l.end_ns[to - 1] - started_ns).max(1) as f64 / 1e9)
                })
                .sum();
            PassTiming {
                p50_ns: percentile(&latencies, 500),
                p99_ns: percentile(&latencies, 990),
                qps,
            }
        })
        .collect()
}

pub fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn json_list(values: impl IntoIterator<Item = f64>) -> String {
    let items: Vec<String> = values.into_iter().map(num).collect();
    format!("[{}]", items.join(", "))
}

/// The untraced run: set up, measure for `seconds`, check every answer,
/// report the end-to-end metrics.
pub fn run_end_to_end(plan: &Plan, seed: u64, seconds: f64) -> Result<RunResult, String> {
    let mut p = prepare(plan, seed)?;
    let window = Duration::from_secs_f64(seconds);
    let mut extra = Vec::new();

    let (logs, pass_len, stored_bytes) = match plan.writes {
        None => {
            let logs = run_clients(&p, Algorithm::Ir2, &p.queries, p.clients, window);
            check_logs(&mut p, &logs);
            (logs, p.queries.len() / p.clients, p.engine.stored_bytes())
        }
        Some(writes) => {
            let (log, wlog) = run_mixed(&mut p, writes, window);
            check_mixed(&mut p, &log, &wlog);
            let mut inserts = wlog.insert_ns.clone();
            let mut commits = wlog.commit_ns.clone();
            inserts.sort_unstable();
            commits.sort_unstable();
            extra.push(("rounds".into(), wlog.rounds.len().to_string()));
            extra.push(("insert_p50_ms".into(), num(ms(percentile(&inserts, 500)))));
            extra.push(("insert_p90_ms".into(), num(ms(percentile(&inserts, 900)))));
            extra.push((
                "insert_max_ms".into(),
                num(ms(*inserts.last().expect("at least one round"))),
            ));
            extra.push(("commit_p50_ms".into(), num(ms(percentile(&commits, 500)))));
            let pass_len = writes.count_rounds * writes.queries_per_round;
            (vec![log], pass_len, wlog.stored_bytes_at_count)
        }
    };

    let mut counts = Counts::default();
    logs.iter().for_each(|l| counts.merge(&l.counts));
    let per_query = |total: f64| total / counts.queries as f64;
    let mut passes = pass_timings(&logs, pass_len);
    if plan.writes.is_some() {
        passes.truncate(1); // later rounds are different work
    }
    let over_passes = |f: fn(&PassTiming) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
    let n = (passes.len() * pass_len * logs.len()) as u64;

    let metrics = vec![
        metric("setup_s", p.setup_s(), 1),
        metric("query_p50_ms", over_passes(|t| ms(t.p50_ns)), n),
        metric("query_p99_ms", over_passes(|t| ms(t.p99_ns)), n),
        metric("query_qps", over_passes(|t| t.qps), n),
        metric(
            "blocks_per_query",
            per_query(counts.blocks as f64),
            counts.queries,
        ),
        metric(
            "sim_ms_per_query",
            per_query(counts.sim_ns as f64 / 1e6),
            counts.queries,
        ),
        metric(
            "object_loads_per_query",
            per_query(counts.object_loads as f64),
            counts.queries,
        ),
        metric("space_amp", stored_bytes as f64 / p.tsv_bytes as f64, 1),
        metric("peak_rss_mb", peak_rss_mb(), 1),
    ];

    let per_pass = pass_len * logs.len();
    extra.push(("clients".into(), p.clients.to_string()));
    extra.push(("passes".into(), passes.len().to_string()));
    extra.push(("queries_per_pass".into(), per_pass.to_string()));
    extra.push((
        "beyond_p99_per_pass".into(),
        samples_beyond(per_pass, 990).to_string(),
    ));
    extra.push((
        "highest_percentile_with_10_beyond".into(),
        highest_percentile(per_pass).map_or("null".into(), |p| num(p as f64 / 10.0)),
    ));
    extra.push(("pass_qps".into(), json_list(passes.iter().map(|t| t.qps))));
    extra.push((
        "pass_p50_ms".into(),
        json_list(passes.iter().map(|t| ms(t.p50_ns))),
    ));
    extra.push((
        "pass_p99_ms".into(),
        json_list(passes.iter().map(|t| ms(t.p99_ns))),
    ));
    extra.push(("generate_s".into(), num(p.generate_s)));
    extra.push(("build_s".into(), num(p.build_s)));
    extra.push(("warmup_s".into(), num(p.warmup_s)));
    extra.push(("reference_s".into(), num(p.reference_s)));
    extra.push((
        "dataset_fingerprint".into(),
        format!("\"{:#018x}\"", p.dataset_fingerprint),
    ));
    extra.push((
        "query_fingerprint".into(),
        format!("\"{:#018x}\"", p.query_fingerprint),
    ));
    Ok(RunResult {
        metrics,
        attempted: p.checker.attempted,
        failed: p.checker.failed,
        extra,
    })
}

#[cfg(test)]
pub mod tests {
    use super::*;

    /// A plan small enough for a debug-build test: 1% datasets, a short
    /// query list, and few traced operations.
    pub fn small_plan(name: &str) -> Plan {
        let mut plan = Plan::named(name).expect("known workload").scaled(0.01);
        plan.queries = 64;
        plan.trace_queries = 16;
        plan.trace_inserts = 12;
        if let Some(w) = &mut plan.writes {
            w.queries_per_round = 10;
            w.count_rounds = 3;
        }
        plan
    }

    fn count_metrics(r: &RunResult) -> Vec<(String, u64)> {
        [
            "blocks_per_query",
            "sim_ms_per_query",
            "object_loads_per_query",
            "space_amp",
        ]
        .iter()
        .map(|name| {
            let m = r
                .metrics
                .iter()
                .find(|m| m.name == *name)
                .expect("metric reported");
            (m.name.clone(), m.value.to_bits())
        })
        .collect()
    }

    #[test]
    fn every_workload_runs_clean_and_counts_repeat_exactly() {
        let spec = crate::spec::Spec::load();
        for name in WORKLOADS {
            let plan = small_plan(name);
            let a = run_end_to_end(&plan, 7, 0.05).unwrap();
            let b = run_end_to_end(&plan, 7, 0.15).unwrap();
            for r in [&a, &b] {
                assert_eq!(r.failed, 0, "{name}: wrong answers");
                assert!(r.attempted >= 30, "{name}: only {} operations", r.attempted);
                let reported: Vec<&str> = r.metrics.iter().map(|m| m.name.as_str()).collect();
                let wanted: Vec<&str> = spec.end_to_end.iter().map(|m| m.name.as_str()).collect();
                assert_eq!(reported, wanted, "{name}: end-to-end metric list");
                for m in &r.metrics {
                    assert!(
                        m.value.is_finite() && m.value > 0.0,
                        "{name}: {} = {}",
                        m.name,
                        m.value
                    );
                }
            }
            // Same seed, different run lengths: the count metrics are bit-identical.
            assert_eq!(count_metrics(&a), count_metrics(&b), "{name}");
            let c = run_end_to_end(&plan, 8, 0.05).unwrap();
            assert_eq!(c.failed, 0, "{name}: wrong answers on another seed");
            assert_ne!(
                count_metrics(&a),
                count_metrics(&c),
                "{name}: the seed must change the queries"
            );
        }
    }

    #[test]
    fn workload_names_match_the_contract() {
        let spec = crate::spec::Spec::load();
        let named: Vec<&str> = spec.workloads.iter().map(|w| w.0.as_str()).collect();
        assert_eq!(named, WORKLOADS);
        assert!(Plan::named("no_such_workload").is_none());
    }

    #[test]
    fn timings_are_per_complete_pass_and_clients_add_up() {
        // Two clients, passes of 4 ops; the second client stops mid-pass.
        let client = |latencies: &[u64]| {
            let mut log = ClientLog::default();
            let mut now = 0;
            for &l in latencies {
                now += l;
                log.latency_ns.push(l);
                log.end_ns.push(now);
            }
            log
        };
        let a = client(&[10, 10, 10, 10, 20, 20, 20, 20, 5, 5, 5, 5]);
        let b = client(&[10, 10, 10, 10, 40, 40, 40, 40, 5, 5]);
        let passes = pass_timings(&[a, b], 4);
        assert_eq!(passes.len(), 2, "the partial third pass is not timed");
        assert_eq!((passes[0].p50_ns, passes[0].p99_ns), (10, 10));
        assert_eq!((passes[1].p50_ns, passes[1].p99_ns), (20, 40));
        // Pass 0: each client 4 ops in 40 ns. Pass 1: 4 in 80 ns and 4 in 160 ns.
        assert!((passes[0].qps - 2e8).abs() < 1.0);
        assert!((passes[1].qps - 0.75e8).abs() < 1.0);
    }
}
