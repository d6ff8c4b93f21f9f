//! Command implementations.

use std::io::{BufReader, BufWriter, Write};
use std::sync::Arc;
use std::time::Duration;

use ir2_datagen::DatasetSpec;
use ir2tree::geo::{Point, Rect};
use ir2tree::irtree::{density_profile, TraceEvent, VecSink};
use ir2tree::model::{tsv, DistanceFirstQuery, QueryRegion};
use ir2tree::storage::{FileDevice, MetricsRegistry};
use ir2tree::text::{IrScorer, LinearRank, SaturatingTfIdf};
use ir2tree::{
    scrub_dir, shard_layout, sharded_manifest, Algorithm, DbConfig, DeviceSet, Gather, IndexSizes,
    QueryError, QueryLimits, QueryReport, RetryDevice, RetryPolicy, ShardedDb, SpatialKeywordDb,
    TopkRequest,
};

use crate::args::{parse_area, parse_point, Flags};

type CliResult = Result<(), String>;

/// `writeln!` with the io error mapped into the CLI error type.
macro_rules! say {
    ($out:expr, $($arg:tt)*) => {
        writeln!($out, $($arg)*).map_err(io_err)?
    };
}

fn io_err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// `ir2 generate` — synthesize a TSV dataset from a Table-1 preset.
pub fn generate(args: &[String], out: &mut impl Write) -> CliResult {
    let f = Flags::parse("generate", args, "preset out count seed", "")?;
    let preset = f.required("preset")?;
    let out_path = f.required("out")?;
    let mut spec = match preset {
        "hotels" => DatasetSpec::hotels(),
        "restaurants" => DatasetSpec::restaurants(),
        other => return Err(format!("unknown preset `{other}` (hotels|restaurants)")),
    };
    let count: usize = f.get_or("count", spec.num_objects)?;
    spec.num_objects = count;
    spec.seed = f.get_or("seed", spec.seed)?;

    let file = std::fs::File::create(out_path).map_err(io_err)?;
    let mut w = BufWriter::new(file);
    let objs: Vec<_> = spec.generate().collect();
    tsv::write_tsv(&mut w, &objs).map_err(io_err)?;
    say!(out, "wrote {count} {preset} objects to {out_path}");
    Ok(())
}

fn db_config(f: &Flags) -> Result<DbConfig, String> {
    let mut config = DbConfig {
        sig_bytes: f.get_or("sig-bytes", 16usize)?,
        seed: f.get_or("seed", DbConfig::default().seed)?,
        ..DbConfig::default()
    };
    if let Some(cap) = f.optional("capacity") {
        config.capacity = Some(cap.parse().map_err(|e| format!("bad --capacity: {e}"))?);
    }
    if f.switch("incremental") {
        config.bulk_load = false;
    }
    config.node_cache = f.get_or("node-cache", 0usize)?;
    Ok(config)
}

/// `ir2 build` — import a TSV file into a new on-disk database directory.
pub fn build(args: &[String], out: &mut impl Write) -> CliResult {
    let f = Flags::parse(
        "build",
        args,
        "tsv db sig-bytes seed capacity node-cache shards replicas",
        "incremental",
    )?;
    let tsv_path = f.required("tsv")?;
    let db_dir = f.required("db")?;
    let config = db_config(&f)?;

    let file = std::fs::File::open(tsv_path).map_err(io_err)?;
    let objects = tsv::read_tsv::<2, _>(BufReader::new(file))
        .collect::<Result<Vec<_>, _>>()
        .map_err(io_err)?;
    let n = objects.len();
    let shards: usize = f.get_or("shards", 1)?;
    let replicas: usize = f.get_or("replicas", 1)?;
    if replicas == 0 {
        return Err("--replicas must be at least 1".into());
    }
    if replicas > 1 && shards <= 1 {
        return Err("--replicas requires a sharded build (--shards 2 or more)".into());
    }

    let t0 = std::time::Instant::now();
    if shards > 1 {
        let db = ShardedDb::create_in_dir_replicated(db_dir, objects, config, shards, replicas)
            .map_err(io_err)?;
        say!(
            out,
            "built {n} objects into {shards} shards × {replicas} replica(s) under {db_dir} \
             in {:.1}s{}",
            t0.elapsed().as_secs_f64(),
            if replicas > 1 {
                " (replicas byte-verified)"
            } else {
                ""
            }
        );
        for (i, shard) in db.shards().enumerate() {
            let s = shard.build_stats();
            say!(
                out,
                "  shard {i:>3}: {} objects, {} words",
                s.objects,
                s.unique_words
            );
        }
        return Ok(());
    }
    let devices = DeviceSet::create_in_dir(db_dir).map_err(io_err)?;
    let db = SpatialKeywordDb::build(devices, objects, config).map_err(io_err)?;
    say!(
        out,
        "built {n} objects into {db_dir} in {:.1}s (vocabulary: {} words)",
        t0.elapsed().as_secs_f64(),
        db.build_stats().unique_words
    );
    print_sizes(out, &db.index_sizes())?;
    Ok(())
}

type Device = RetryDevice<FileDevice>;

/// What `--db` names: a monolithic directory or a sharded one (it has a
/// `SHARDS` manifest). `query` and `batch` send the same request to
/// either.
enum Engine {
    Mono(Box<SpatialKeywordDb<Device>>),
    Sharded(ShardedDb<Device>),
}

impl Engine {
    fn run(&self, req: &TopkRequest) -> Result<QueryReport, String> {
        match self {
            Engine::Mono(db) => db.run(req),
            Engine::Sharded(db) => db.run(req),
        }
        .map_err(io_err)
    }

    fn run_batch(
        &self,
        reqs: &[TopkRequest],
        threads: usize,
    ) -> Vec<Result<QueryReport, QueryError>> {
        match self {
            Engine::Mono(db) => db.run_batch(reqs, threads),
            Engine::Sharded(db) => db.run_batch(reqs, threads),
        }
    }

    /// The banner's " over S shards" (nothing on a monolithic database).
    fn over_shards(&self) -> String {
        match self {
            Engine::Mono(_) => String::new(),
            Engine::Sharded(db) => format!(" over {} shards", db.shard_count()),
        }
    }
}

/// Opens `--db` with every device wrapped in a [`RetryDevice`]: transient
/// I/O faults (interrupted/timed-out reads) are absorbed by jittered
/// exponential backoff, and blocks that keep failing permanently are
/// quarantined. The retry layer shares one metrics registry with the
/// database (across shards, per device role), so `ir2 stats --prometheus`
/// exposes retry and quarantine counters next to the query metrics.
///
/// `--node-cache` overrides the persisted cache capacity for this
/// process. Shards keep the configuration they were built with, so on a
/// sharded directory the flag is refused, not ignored.
fn open_engine(f: &Flags) -> Result<Engine, String> {
    let dir = f.required("db")?;
    let node_cache: Option<usize> = f
        .optional("node-cache")
        .map(|v| v.parse().map_err(|e| format!("bad --node-cache: {e}")))
        .transpose()?;
    let registry = Arc::new(MetricsRegistry::new());
    let wrap = |name, d| RetryDevice::with_metrics(d, RetryPolicy::default(), &registry, name);
    if sharded_manifest(dir).map_err(io_err)?.is_some() {
        if node_cache.is_some() {
            return Err(format!(
                "--node-cache cannot override a sharded database: every shard of {dir} keeps \
                 the cache configuration it was built with"
            ));
        }
        return ShardedDb::open_dir_mapped(dir, wrap)
            .map(Engine::Sharded)
            .map_err(io_err);
    }
    let devices = DeviceSet::open_dir(dir).map_err(io_err)?.map(wrap);
    let mut db = SpatialKeywordDb::open_with_registry(devices, registry).map_err(io_err)?;
    if let Some(n) = node_cache {
        db.configure_node_cache(n);
    }
    Ok(Engine::Mono(Box::new(db)))
}

/// [`open_engine`] for the commands that read one database's own
/// structures (`ranked`, `trace`).
fn open_db(f: &Flags) -> Result<SpatialKeywordDb<Device>, String> {
    match open_engine(f)? {
        Engine::Mono(db) => Ok(*db),
        Engine::Sharded(_) => Err(format!(
            "{} is a sharded database; this command supports monolithic databases only \
             (query, batch, stats, and check handle sharded directories automatically)",
            f.required("db")?
        )),
    }
}

/// Parses the shared execution-limit flags (`--deadline-ms`,
/// `--io-budget`) into a [`QueryLimits`]. For a batch, the deadline is
/// resolved here — once — so it bounds the whole batch, not each query.
fn parse_limits(f: &Flags) -> Result<QueryLimits, String> {
    let mut limits = QueryLimits::none();
    if let Some(ms) = f.optional("deadline-ms") {
        let ms: u64 = ms.parse().map_err(|e| format!("bad --deadline-ms: {e}"))?;
        limits = limits.with_deadline(Duration::from_millis(ms));
    }
    if let Some(budget) = f.optional("io-budget") {
        let budget: u64 = budget
            .parse()
            .map_err(|e| format!("bad --io-budget: {e}"))?;
        limits = limits.with_io_budget(budget);
    }
    Ok(limits)
}

/// Parses `--hedge-ms` (sharded databases only: fire a second replica for
/// any shard pull still running after this many milliseconds).
fn parse_hedge(f: &Flags) -> Result<Option<Duration>, String> {
    match f.optional("hedge-ms") {
        None => Ok(None),
        Some(ms) => {
            let ms: u64 = ms.parse().map_err(|e| format!("bad --hedge-ms: {e}"))?;
            Ok(Some(Duration::from_millis(ms)))
        }
    }
}

fn keywords_of(f: &Flags) -> Result<Vec<String>, String> {
    Ok(f.required("keywords")?
        .split_whitespace()
        .map(str::to_owned)
        .collect())
}

fn print_report(out: &mut impl Write, report: &QueryReport) -> CliResult {
    for (obj, dist) in &report.results {
        let preview: String = obj.text.chars().take(60).collect();
        say!(out, "  #{:<8} {:>10.4}  {preview}", obj.id, dist);
    }
    if report.results.is_empty() {
        say!(out, "  (no results)");
    }
    say!(out,
        "  [{} random + {} sequential block accesses, {} object loads, {:.1} ms simulated disk time]",
        report.io.random(),
        report.io.sequential(),
        report.object_loads,
        report.simulated.as_secs_f64() * 1e3
    );
    if report.counters.cache_hits > 0 {
        say!(
            out,
            "  [{} of {} node visits served from the decoded-node cache]",
            report.counters.cache_hits,
            report.counters.nodes_read
        );
    }
    if report.retries > 0 {
        say!(
            out,
            "  [{} transient faults recovered by retry, {:.2} ms backoff]",
            report.retries,
            report.backoff.as_secs_f64() * 1e3
        );
    }
    if let Some(reason) = report.outcome {
        say!(
            out,
            "  ! truncated by {reason}: the {} results above are the exact \
             top-{} prefix of the full answer",
            report.results.len(),
            report.results.len()
        );
    }
    Ok(())
}

fn parse_alg(f: &Flags) -> Result<Algorithm, String> {
    match f.optional("alg").unwrap_or("ir2") {
        "rtree" => Ok(Algorithm::RTree),
        "iio" => Ok(Algorithm::Iio),
        "ir2" => Ok(Algorithm::Ir2),
        "mir2" => Ok(Algorithm::Mir2),
        other => Err(format!("unknown algorithm `{other}` (rtree|iio|ir2|mir2)")),
    }
}

/// `ir2 query` — distance-first top-k (point- or area-anchored). Sharded
/// directories are detected automatically and answered by the exact
/// scatter-gather merge (`--threads` > 1 drains shards in parallel,
/// `--hedge-ms` races a second replica; under `--deadline-ms` /
/// `--io-budget` the merge is sequential whatever `--threads` says).
pub fn query(args: &[String], out: &mut impl Write) -> CliResult {
    let f = Flags::parse(
        "query",
        args,
        "db at area keywords k alg deadline-ms io-budget threads node-cache hedge-ms",
        "",
    )?;
    let (region, anchor): (QueryRegion<2>, String) = if let Some(area) = f.optional("area") {
        let (a, b) = parse_area(area).map_err(|e| format!("bad --area: {e}"))?;
        let rect = Rect::from_corners(Point::new(a), Point::new(b));
        (rect.into(), format!("in/near area {a:?}..{b:?}"))
    } else {
        let at = f.point("at")?;
        (Point::new(at).into(), format!("near {at:?}"))
    };
    let engine = open_engine(&f)?;
    let keywords = keywords_of(&f)?;
    let k: usize = f.get_or("k", 10)?;
    let alg = parse_alg(&f)?;
    let limits = parse_limits(&f)?;
    let threads: usize = f.get_or("threads", 1)?;
    let gather = match parse_hedge(&f)? {
        Some(delay) => Gather::Hedged(delay),
        None if threads > 1 && limits.is_unlimited() => Gather::Parallel(threads),
        None => Gather::Sequential,
    };
    let replicas = match &engine {
        Engine::Sharded(db) if db.replica_count() > 1 => {
            format!(" × {} replicas", db.replica_count())
        }
        _ => String::new(),
    };
    say!(
        out,
        "top-{k} {keywords:?} {anchor} via {}{}{replicas}:",
        alg.label(),
        engine.over_shards()
    );
    let req = TopkRequest::new(alg, region, &keywords, k)
        .limited(limits)
        .gathered(gather);
    print_report(out, &engine.run(&req)?)?;
    Ok(())
}

/// Parses a batch query file: one query per line, `LAT,LON` followed by
/// whitespace and the keywords. Blank lines and `#` comments are skipped.
fn parse_batch_file(path: &str, k: usize) -> Result<Vec<DistanceFirstQuery<2>>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut queries = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let bad = |m: String| format!("{path}:{}: {m}", lineno + 1);
        let (point, rest) = line
            .split_once(char::is_whitespace)
            .ok_or_else(|| bad("expected `LAT,LON keywords…`".into()))?;
        let at = parse_point(point).map_err(bad)?;
        let keywords: Vec<&str> = rest.split_whitespace().collect();
        queries.push(DistanceFirstQuery::new(at, &keywords, k));
    }
    if queries.is_empty() {
        return Err(format!("{path}: no queries"));
    }
    Ok(queries)
}

/// `ir2 batch` — run a file of distance-first queries concurrently on the
/// fault-isolated batch engine and report per-query results plus batch
/// throughput. `--deadline-ms` bounds the *whole batch* (queries past the
/// deadline come back truncated with whatever exact prefix they reached);
/// `--io-budget` bounds each query. A query that fails outright occupies
/// only its own slot — siblings still complete — and makes the exit code
/// nonzero.
pub fn batch(args: &[String], out: &mut impl Write) -> CliResult {
    let f = Flags::parse(
        "batch",
        args,
        "db queries threads k alg deadline-ms io-budget node-cache hedge-ms",
        "",
    )?;
    let alg = parse_alg(&f)?;
    let k: usize = f.get_or("k", 10)?;
    let threads: usize = f.get_or("threads", 4)?;
    let queries = parse_batch_file(f.required("queries")?, k)?;
    let limits = parse_limits(&f)?;
    let hedge = parse_hedge(&f)?;
    let engine = open_engine(&f)?;

    say!(
        out,
        "batch of {} top-{k} queries via {} on {threads} threads{}{}:",
        queries.len(),
        alg.label(),
        engine.over_shards(),
        match hedge {
            Some(delay) => format!(" (hedging after {} ms)", delay.as_millis()),
            None => String::new(),
        }
    );
    let gather = hedge.map_or(Gather::Sequential, Gather::Hedged);
    let reqs: Vec<TopkRequest> = queries
        .iter()
        .map(|q| {
            TopkRequest::from_query(alg, q)
                .limited(limits)
                .gathered(gather)
        })
        .collect();
    let t0 = std::time::Instant::now();
    let outcomes = engine.run_batch(&reqs, threads);
    let wall = t0.elapsed();
    let (mut ok, mut truncated, mut failed) = (0u64, 0u64, 0u64);
    let (mut total_io, mut retries) = (0u64, 0u64);
    for (i, (q, outcome)) in queries.iter().zip(&outcomes).enumerate() {
        match outcome {
            Ok(r) => {
                total_io += r.io.total();
                retries += r.retries;
                let top = r
                    .results
                    .first()
                    .map(|(o, d)| format!("#{} at {d:.4}", o.id))
                    .unwrap_or_else(|| "no results".into());
                let status = match r.outcome {
                    Some(reason) => {
                        truncated += 1;
                        format!("; truncated by {reason}")
                    }
                    None => {
                        ok += 1;
                        String::new()
                    }
                };
                say!(
                    out,
                    "  [{i:>3}] {:?} {:?}: {} hits ({top}); {} random + {} sequential \
                     accesses{status}",
                    q.point.coords(),
                    q.keywords,
                    r.results.len(),
                    r.io.random(),
                    r.io.sequential()
                );
            }
            Err(e) => {
                failed += 1;
                say!(
                    out,
                    "  [{i:>3}] {:?} {:?}: FAILED — {e}",
                    q.point.coords(),
                    q.keywords
                );
            }
        }
    }
    let qps = queries.len() as f64 / wall.as_secs_f64();
    say!(out,
        "  [{} queries in {:.1} ms wall — {qps:.0} queries/sec; {total_io} attributed block accesses]",
        queries.len(),
        wall.as_secs_f64() * 1e3
    );
    say!(
        out,
        "  [ok={ok} truncated={truncated} failed={failed} retries={retries}]"
    );
    if failed > 0 {
        return Err(format!("{failed} of {} queries failed", queries.len()));
    }
    Ok(())
}

/// `ir2 ranked` — general top-k by f(distance, IRscore) on the IR²-Tree.
pub fn ranked(args: &[String], out: &mut impl Write) -> CliResult {
    let f = Flags::parse(
        "ranked",
        args,
        "db at keywords k dist-weight node-cache",
        "",
    )?;
    let at = f.point("at")?;
    // Section 5.3's bound `Upper(v)` needs a score that does not grow with
    // distance: a negative or non-finite weight would rank out of order.
    let dist_weight: f64 = f.get_or("dist-weight", 0.05)?;
    if !(dist_weight.is_finite() && dist_weight >= 0.0) {
        return Err(format!(
            "bad --dist-weight: `{dist_weight}` is not a finite, non-negative weight"
        ));
    }
    let db = open_db(&f)?;
    let keywords = keywords_of(&f)?;
    let k: usize = f.get_or("k", 10)?;

    let rank = LinearRank {
        ir_weight: 1.0,
        dist_weight,
    };
    let req = TopkRequest::new(Algorithm::Ir2, at, &keywords, k).ranked(SaturatingTfIdf, rank);
    let report = db.run(&req).map_err(io_err)?;
    say!(
        out,
        "ranked top-{k} {keywords:?} near {at:?} (relevance − {dist_weight}·distance):"
    );
    let vocab = db.vocab();
    let terms: Vec<_> = req
        .keywords
        .iter()
        .filter_map(|w| vocab.term_id(w))
        .collect();
    for (obj, score) in &report.results {
        let preview: String = obj.text.chars().take(50).collect();
        say!(
            out,
            "  #{:<8} score {:>7.3} (dist {:>8.3}, rel {:>5.2})  {preview}",
            obj.id,
            score,
            obj.point.distance(&Point::new(at)),
            SaturatingTfIdf.score(vocab, &terms, &obj.token_counts())
        );
    }
    if report.results.is_empty() {
        say!(out, "  (no results)");
    }
    say!(
        out,
        "  [{} random + {} sequential block accesses, {:.1} ms simulated]",
        report.io.random(),
        report.io.sequential(),
        report.simulated.as_secs_f64() * 1e3
    );
    Ok(())
}

/// `ir2 trace` — run one distance-first query with full event tracing:
/// prints the step log (node pops, signature tests, object fetches), a
/// per-level pruning table comparing the *observed* signature match rate
/// against the `density_profile` *prediction* (the paper's Section VI
/// false-positive tables), then the usual result report.
pub fn trace(args: &[String], out: &mut impl Write) -> CliResult {
    let f = Flags::parse("trace", args, "db at keywords k alg steps node-cache", "")?;
    let at = f.point("at")?;
    let db = open_db(&f)?;
    let keywords = keywords_of(&f)?;
    let k: usize = f.get_or("k", 10)?;
    let alg = parse_alg(&f)?;
    let limit: usize = f.get_or("steps", 40)?;

    let q = DistanceFirstQuery::new(at, &keywords, k);
    let mut sink = VecSink::new();
    let report = db
        .distance_first_traced(alg, &q, &mut sink)
        .map_err(io_err)?;

    say!(
        out,
        "trace of top-{k} {keywords:?} near {at:?} via {}:",
        alg.label()
    );
    for (i, e) in sink.events.iter().take(limit).enumerate() {
        match e {
            TraceEvent::NodeVisited {
                node,
                level,
                mindist,
                entries,
                heap_size,
            } => say!(
                out,
                "  [{i:>4}] visit node {node} (level {level}) mindist {mindist:.4}, \
                 {entries} entries, frontier {heap_size}"
            ),
            TraceEvent::SignatureTest { level, matched } => say!(
                out,
                "  [{i:>4}] sig test @ level {level}: {}",
                if *matched { "match" } else { "pruned" }
            ),
            TraceEvent::ObjectFetched {
                ptr,
                distance,
                matched,
            } => say!(
                out,
                "  [{i:>4}] fetch object @{ptr} dist {distance:.4}: {}",
                if *matched {
                    "verified"
                } else {
                    "false positive"
                }
            ),
        }
    }
    if sink.events.len() > limit {
        say!(
            out,
            "  … {} more events (raise --steps to see them)",
            sink.events.len() - limit
        );
    }

    let c = &report.counters;
    say!(
        out,
        "summary: {} nodes visited, {} entries scanned, {} signature tests \
         ({} pruned), {} objects fetched ({} false positives), max frontier {}",
        c.nodes_read,
        c.entries_scanned,
        c.sig_tests(),
        c.pruned_by_signature(),
        c.candidates_checked,
        c.false_positives,
        c.max_heap
    );

    let profile = match alg {
        Algorithm::Ir2 => Some(density_profile(db.ir2_tree()).map_err(io_err)?),
        Algorithm::Mir2 => Some(density_profile(db.mir2_tree()).map_err(io_err)?),
        _ => None,
    };
    if let Some(profile) = profile {
        say!(
            out,
            "level  bits  density  predicted-fp  sig-tests  matched  observed"
        );
        for ld in &profile {
            let lp = c
                .per_level
                .get(ld.level as usize)
                .copied()
                .unwrap_or_default();
            say!(
                out,
                "{:>5}  {:>4}  {:>7.4}  {:>12.4}  {:>9}  {:>7}  {:>8.4}",
                ld.level,
                ld.bits,
                ld.mean_density,
                ld.expected_fp,
                lp.tests,
                lp.matched,
                lp.match_rate()
            );
        }
    }
    print_report(out, &report)?;
    Ok(())
}

/// `ir2 check` — fsck-style offline integrity check: verifies the catalog
/// (shadow epoch + checksums), re-reads every object record (per-record
/// CRCs), and walks all three trees validating page checksums, MBR
/// containment, and signature containment. Nonzero exit on any corruption.
pub fn check(args: &[String], out: &mut impl Write) -> CliResult {
    let f = Flags::parse("check", args, "db", "")?;
    let dir = f.required("db")?;
    let root = std::path::Path::new(dir);
    if let Some(layout) = shard_layout(root).map_err(io_err)? {
        say!(
            out,
            "manifest OK    {} shards × {} replica(s)",
            layout.shards,
            layout.replicas
        );
        let mut all_ok = true;
        for i in 0..layout.shards {
            for (m, rep_dir) in layout.replica_dirs(root, i).iter().enumerate() {
                if layout.replicas > 1 {
                    say!(out, "shard {i} replica {m}:");
                } else {
                    say!(out, "shard {i}:");
                }
                if !rep_dir.is_dir() {
                    say!(out, "devices  MISSING  {}", rep_dir.display());
                    all_ok = false;
                    continue;
                }
                match check_one(rep_dir, out) {
                    Ok(ok) => all_ok &= ok,
                    Err(e) => {
                        say!(out, "devices  FAIL  {e}");
                        all_ok = false;
                    }
                }
            }
        }
        // Directories beyond the manifest's shard count are stale or from
        // a torn re-shard — surface them rather than silently ignoring.
        if let Ok(entries) = std::fs::read_dir(root) {
            for entry in entries.flatten() {
                let name = entry.file_name();
                let name = name.to_string_lossy();
                if let Some(idx) = name.strip_prefix("shard-") {
                    if idx.parse::<usize>().is_ok_and(|i| i >= layout.shards) {
                        say!(out, "extra    FAIL  `{name}` beyond manifest shard count");
                        all_ok = false;
                    }
                }
            }
        }
        return if all_ok {
            Ok(())
        } else {
            Err("database failed integrity check".into())
        };
    }
    if check_one(root, out)? {
        Ok(())
    } else {
        Err("database failed integrity check".into())
    }
}

/// `ir2 scrub` — online replica scrubber: diffs every replica of every
/// shard block-for-block against a healthy reference replica and (with
/// `--repair`) re-copies divergent files from the reference. Nonzero exit
/// unless the directory is fully consistent after the pass.
pub fn scrub(args: &[String], out: &mut impl Write) -> CliResult {
    let f = Flags::parse("scrub", args, "db", "repair")?;
    let dir = f.required("db")?;
    let repair = f.switch("repair");
    let report = scrub_dir(dir, repair, None).map_err(io_err)?;
    say!(
        out,
        "scrubbed {} shards × {} replica(s): {} pages compared, {} mismatches, {} files repaired",
        report.shards,
        report.replicas,
        report.pages,
        report.mismatches,
        report.repairs
    );
    for line in &report.details {
        say!(out, "  {line}");
    }
    if report.clean() {
        say!(out, "clean");
        Ok(())
    } else if repair {
        Err(format!(
            "{} page(s) still divergent, {} shard(s) unscrubbable",
            report.unrepaired, report.unscrubbed_shards
        ))
    } else {
        Err(format!(
            "{} divergent page(s) found (re-run with --repair to fix)",
            report.unrepaired
        ))
    }
}

/// `ir2 fuzz` — differential oracle fuzzing: every engine variant vs the
/// brute-force reference, over seeded random datasets, mutations, and
/// queries. Exit status is non-zero when a divergence is found; the
/// printed `repro:` line replays exactly that case.
pub fn fuzz(args: &[String], out: &mut impl Write) -> CliResult {
    let f = Flags::parse(
        "fuzz",
        args,
        "seed iters start-iter objects queries",
        "inject-bug no-minimize",
    )?;
    let opts = ir2_oracle::FuzzOptions {
        seed: f.get_or("seed", 42u64)?,
        iters: f.get_or("iters", 100u64)?,
        start_iter: f.get_or("start-iter", 0u64)?,
        caps: ir2_oracle::scenario::Caps {
            max_objects: f.get_or("objects", 64usize)?,
            max_queries: f.get_or("queries", 64usize)?,
        },
        inject_bug: f.switch("inject-bug"),
        minimize: !f.switch("no-minimize"),
    };
    say!(
        out,
        "fuzzing: seed={} iters={} start-iter={} objects<={} queries<={}{}",
        opts.seed,
        opts.iters,
        opts.start_iter,
        opts.caps.max_objects,
        opts.caps.max_queries,
        if opts.inject_bug { " [inject-bug]" } else { "" }
    );
    let mut progress_err = None;
    let outcome = ir2_oracle::run_fuzz(&opts, &mut |done, checks| {
        if done % 100 == 0 {
            if let Err(e) = writeln!(out, "  …{done} iterations, {checks} checks") {
                progress_err.get_or_insert(e);
            }
        }
    });
    if let Some(e) = progress_err {
        return Err(io_err(e));
    }
    match outcome.divergence {
        None => {
            say!(
                out,
                "ok: {} iterations, {} checks, zero divergences",
                outcome.iterations,
                outcome.checks
            );
            Ok(())
        }
        Some(d) => {
            say!(out, "{d}");
            Err("cross-engine divergence found (repro command above)".into())
        }
    }
}

/// Checks one (monolithic) database directory, printing per-structure
/// verdicts; returns whether everything passed.
fn check_one(dir: &std::path::Path, out: &mut impl Write) -> Result<bool, String> {
    let devices = DeviceSet::open_dir(dir).map_err(io_err)?;
    let db = match SpatialKeywordDb::open(devices) {
        Ok(db) => db,
        Err(e) => {
            say!(out, "catalog  FAIL  {e}");
            return Ok(false);
        }
    };
    let report = db.check_integrity();
    say!(out, "catalog  OK    epoch {}", report.catalog_epoch);
    for s in &report.structures {
        say!(
            out,
            "{:<8} {}  {}",
            s.name,
            if s.ok { "OK  " } else { "FAIL" },
            s.detail
        );
    }
    Ok(report.ok())
}

/// `ir2 stats` — Table-1/Table-2 style report for a database directory.
/// With `--prometheus`, emits the metrics registry in Prometheus text
/// exposition format instead (gauges carry the dataset and per-device I/O
/// totals of this process; query counters accumulate as queries run).
pub fn stats(args: &[String], out: &mut impl Write) -> CliResult {
    let f = Flags::parse("stats", args, "db", "prometheus")?;
    let db = match open_engine(&f)? {
        Engine::Mono(db) => db,
        Engine::Sharded(db) => {
            if f.switch("prometheus") {
                write!(out, "{}", db.metrics_prometheus()).map_err(io_err)?;
                return Ok(());
            }
            say!(out, "shards:             {}", db.shard_count());
            say!(out, "replicas:           {}", db.replica_count());
            say!(out, "objects:            {}", db.total_objects());
            for (i, shard) in db.shards().enumerate() {
                let s = shard.build_stats();
                say!(
                    out,
                    "  shard {i:>3}: {} objects, {} words, {:.1} MB object file",
                    s.objects,
                    s.unique_words,
                    s.object_file_bytes as f64 / 1_048_576.0
                );
            }
            return Ok(());
        }
    };
    if f.switch("prometheus") {
        write!(out, "{}", db.metrics_prometheus()).map_err(io_err)?;
        return Ok(());
    }
    let s = db.build_stats();
    say!(out, "objects:            {}", s.objects);
    say!(out, "avg words/object:   {:.1}", s.avg_unique_words);
    say!(out, "vocabulary:         {}", s.unique_words);
    say!(
        out,
        "object file:        {:.1} MB",
        s.object_file_bytes as f64 / 1_048_576.0
    );
    say!(out, "avg blocks/object:  {:.2}", s.avg_blocks_per_object);
    say!(out, "tree fanout:        {}", db.tree_config().max_entries);
    // Per-level signature weight — the paper's false-positive driver is
    // exactly how many 1s superimposition has accumulated per level.
    for (label, profile) in [
        ("ir2", density_profile(db.ir2_tree()).map_err(io_err)?),
        ("mir2", density_profile(db.mir2_tree()).map_err(io_err)?),
    ] {
        for ld in &profile {
            say!(
                out,
                "signature {label:<5} L{}: density {:.4}, avg {:.1}/{} bits set \
                 ({} entries)",
                ld.level,
                ld.mean_density,
                ld.mean_set_bits,
                ld.bits,
                ld.entries
            );
        }
    }
    let cache = db.node_cache_stats();
    if cache.is_empty() {
        say!(out, "node cache:         off");
    } else {
        for (tree, hits, misses, invalidated) in cache {
            say!(
                out,
                "node cache {tree:<8} {hits} hits / {misses} misses / \
                 {invalidated} invalidated this process"
            );
        }
    }
    print_sizes(out, &db.index_sizes())?;
    Ok(())
}

fn print_sizes(out: &mut impl Write, sizes: &ir2tree::IndexSizes) -> CliResult {
    say!(out, "index sizes (MB):");
    say!(out, "  inverted index:   {:.1}", IndexSizes::mb(sizes.iio));
    say!(
        out,
        "  R-Tree:           {:.1}",
        IndexSizes::mb(sizes.rtree)
    );
    say!(out, "  IR2-Tree:         {:.1}", IndexSizes::mb(sizes.ir2));
    say!(out, "  MIR2-Tree:        {:.1}", IndexSizes::mb(sizes.mir2));
    Ok(())
}
