//! The traced run: where a query's (and an insert's) time goes, layer by
//! layer.
//!
//! Spans inside the program are a later change; this one records spans from
//! the benchmark's own files, around the calls into each layer. For each
//! sampled query the run captures which nodes and objects the real query
//! touched (`distance_first_traced` + `VecSink`), then replays exactly those
//! through each layer's public call in isolation, one span per batch. A
//! layer's per-unit cost is its spans' self time over the units replayed.
//! Counts (nodes, entries, hit rate, …) come from running the sample in the
//! workload's own pattern first.
//!
//! Layer names are the crate names; the in-program spans that replace this
//! replay must reuse them.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use ir2tree::geo::Rect;
use ir2tree::irtree::{
    distance_first_topk, insert_object, NopSink, SigPayload, TraceEvent, VecSink,
};
use ir2tree::model::{DistanceFirstQuery, ObjPtr, ObjectSource, SpatialObject};
use ir2tree::rtree::{NodeBuf, NodeCache, PayloadOps};
use ir2tree::sigfile::{EntryMask, SignatureBlock};
use ir2tree::storage::{page, BlockDevice, Result as StorageResult, BLOCK_SIZE, PAGE_PAYLOAD};
use ir2tree::text::TokenSet;
use ir2tree::Algorithm;

use crate::spans::SpanLog;
use crate::stats::{median, percentile};
use crate::workloads::{
    self, check_logs, check_mixed, metric, ms, run_clients, run_mixed, stored_bytes, Db, Engine,
    Metric, Plan, Prepared, RunResult, Writes,
};

/// What the real query touched, from its trace events.
#[derive(Default)]
struct Touched {
    /// (node id, level, entries)
    nodes: Vec<(u64, u16, usize)>,
    /// (object pointer, did the text match)
    objects: Vec<(u64, bool)>,
    sig_matched: usize,
    max_heap: usize,
}

impl Touched {
    fn from_events(events: &[TraceEvent]) -> Self {
        let mut t = Touched::default();
        for e in events {
            match *e {
                TraceEvent::NodeVisited {
                    node,
                    level,
                    entries,
                    heap_size,
                    ..
                } => {
                    t.nodes.push((node, level, entries));
                    t.max_heap = t.max_heap.max(heap_size);
                }
                TraceEvent::SignatureTest { matched, .. } => t.sig_matched += usize::from(matched),
                TraceEvent::ObjectFetched { ptr, matched, .. } => t.objects.push((ptr, matched)),
            }
        }
        t
    }

    fn entries(&self) -> usize {
        self.nodes.iter().map(|n| n.2).sum()
    }
}

/// Units each layer's spans covered in one pass, to turn self time into a
/// per-unit cost.
#[derive(Default)]
struct Units {
    queries: u64,
    blocks: u64,
    nodes: u64,
    entries: u64,
    sig_matched: u64,
    max_heap: u64,
    signings: u64,
    candidates: u64,
    /// Of the direct calls' node visits, those the cache served.
    direct_nodes: u64,
    direct_hits: u64,
    /// Replays whose outcome differed from the traced query's.
    mismatches: u64,
}

/// Replays one query's touched nodes and objects through each layer, one
/// span per batch, all children of one `bench.replay` span.
fn replay(
    log: &mut SpanLog,
    qid: u64,
    db: &Db,
    q: &DistanceFirstQuery<2>,
    touched: &Touched,
    blocks: &mut Vec<Box<[u8; BLOCK_SIZE]>>,
    units: &mut Units,
) -> StorageResult<()> {
    let tree = db.ir2_tree();
    let dev = tree.device();
    let parent = log.open("bench.replay", None, qid);
    let span = |log: &mut SpanLog, name| log.open(name, Some(parent), qid);

    // storage: device read, CRC verify and seal, block by block.
    let extents: Vec<(u64, usize)> = touched
        .nodes
        .iter()
        .map(|&(id, level, _)| (id, tree.node_blocks(level) as usize))
        .collect();
    let nblocks: usize = extents.iter().map(|e| e.1).sum();
    while blocks.len() < nblocks {
        blocks.push(ir2tree::storage::zeroed_block());
    }
    let blocks = &mut blocks[..nblocks];
    let s = span(log, "storage.read_block");
    let mut slot = 0;
    for &(id, n) in &extents {
        for i in 0..n {
            dev.read_block(id + i as u64, &mut blocks[slot])?;
            slot += 1;
        }
    }
    log.close(s);
    let s = span(log, "storage.page_verify");
    for block in blocks.iter() {
        page::verify(block)?;
    }
    log.close(s);
    let s = span(log, "storage.page_seal");
    for block in blocks.iter_mut() {
        page::seal(block);
    }
    log.close(s);

    // rtree: decode the verified payload bytes; then the tree's own read
    // path, which does all of the above plus the copy into one buffer.
    let mut slot = 0;
    let images: Vec<(u64, Vec<u8>, usize)> = touched
        .nodes
        .iter()
        .zip(&extents)
        .map(|(&(id, level, _), &(_, n))| {
            let mut image = Vec::with_capacity(n * PAGE_PAYLOAD);
            for block in &blocks[slot..slot + n] {
                image.extend_from_slice(&block[..PAGE_PAYLOAD]);
            }
            slot += n;
            (id, image, tree.ops().entry_size(level))
        })
        .collect();
    let s = span(log, "rtree.node_decode");
    let nodes: Vec<NodeBuf<2>> = images
        .into_iter()
        .map(|(id, image, payload_size)| NodeBuf::decode(id, image, payload_size))
        .collect::<StorageResult<_>>()?;
    log.close(s);
    let s = span(log, "rtree.read_node_buf");
    for &(id, _) in &extents {
        std::hint::black_box(tree.read_node_buf(id)?);
    }
    log.close(s);

    // sigfile: columnar block per node, the query signature per level, and
    // the batched containment mask.
    let s = span(log, "sigfile.block_build");
    let sig_blocks: Vec<SignatureBlock> = nodes
        .iter()
        .map(|n| {
            SignatureBlock::from_payloads(tree.ops().scheme_at(n.level()).bits(), n.payloads())
        })
        .collect();
    log.close(s);
    let mut levels: Vec<u16> = nodes.iter().map(NodeBuf::level).collect();
    levels.sort_unstable();
    levels.dedup();
    let s = span(log, "sigfile.sign_query");
    let query_sigs: BTreeMap<u16, _> = levels
        .iter()
        .map(|&level| {
            let scheme = tree.ops().scheme_at(level);
            (
                level,
                scheme.sign_terms(q.keywords.iter().map(String::as_str)),
            )
        })
        .collect();
    log.close(s);
    let mut mask = EntryMask::new();
    let mut matched = 0;
    let s = span(log, "sigfile.mask");
    for (node, block) in nodes.iter().zip(&sig_blocks) {
        block.matches_mask_into(&query_sigs[&node.level()], &mut mask);
        matched += mask.count_ones();
    }
    log.close(s);

    // model and text: fetch each candidate, then check its words.
    let s = span(log, "model.object_load");
    let objects: Vec<SpatialObject<2>> = touched
        .objects
        .iter()
        .map(|&(ptr, _)| db.object_store().load(ObjPtr(ptr)))
        .collect::<StorageResult<_>>()?;
    log.close(s);
    let s = span(log, "text.verify");
    let verdicts: Vec<bool> = objects
        .iter()
        .map(|o| TokenSet::from_text(&o.text).contains_all(&q.keywords))
        .collect();
    log.close(s);
    log.close(parent);

    // The replay must have redone the real query's work, not something
    // like it.
    let same = matched == touched.sig_matched
        && verdicts.iter().eq(touched.objects.iter().map(|o| &o.1))
        && nodes
            .iter()
            .map(NodeBuf::len)
            .eq(touched.nodes.iter().map(|n| n.2));
    units.mismatches += u64::from(!same);
    units.queries += 1;
    units.blocks += nblocks as u64;
    units.nodes += nodes.len() as u64;
    units.entries += touched.entries() as u64;
    units.sig_matched += touched.sig_matched as u64;
    units.max_heap = units.max_heap.max(touched.max_heap as u64);
    units.signings += levels.len() as u64;
    units.candidates += objects.len() as u64;
    Ok(())
}

/// One pass over the sample: the real call four ways (direct on the tree,
/// through the engine's facade, untraced and traced), then the replays.
/// Each way is its own sweep over the whole sample, so that no call finds
/// the CPU caches warmed by the same query run a moment before. Returns
/// what each query touched.
fn replay_pass(
    log: &mut SpanLog,
    p: &Prepared,
    sample: &[DistanceFirstQuery<2>],
    units: &mut Units,
) -> StorageResult<Vec<Touched>> {
    let numbered = || sample.iter().enumerate().map(|(qid, q)| (qid as u64, q));
    for (qid, q) in numbered() {
        let db = p.engine.home(q);
        let (_, counters) = log.time("irtree.topk_direct", None, qid, || {
            distance_first_topk(db.ir2_tree(), db.object_store(), q)
        })?;
        units.direct_nodes += counters.nodes_read;
        units.direct_hits += counters.cache_hits;
    }
    for (qid, q) in numbered() {
        log.time("core.distance_first", None, qid, || {
            p.engine.query(Algorithm::Ir2, q)
        })?;
    }
    for (qid, q) in numbered() {
        log.time("irtree.topk_untraced", None, qid, || {
            p.engine
                .home(q)
                .distance_first_traced(Algorithm::Ir2, q, NopSink)
        })?;
    }
    let mut all = Vec::with_capacity(sample.len());
    for (qid, q) in numbered() {
        let mut sink = VecSink::new();
        log.time("irtree.topk_traced", None, qid, || {
            p.engine
                .home(q)
                .distance_first_traced(Algorithm::Ir2, q, &mut sink)
        })?;
        all.push(Touched::from_events(&sink.events));
    }
    // Block buffers are reused across queries: a fresh allocation would be
    // charged its page faults as device read time.
    let mut scratch = Vec::new();
    for ((qid, q), touched) in numbered().zip(&all) {
        replay(log, qid, p.engine.home(q), q, touched, &mut scratch, units)?;
    }
    Ok(all)
}

/// Per-unit layer costs of one pass, from the spans' self times.
fn pass_values(log: &SpanLog, u: &Units) -> BTreeMap<&'static str, f64> {
    let self_ns = log.self_ns_by_name();
    let ns = |span: &str| self_ns.get(span).copied().unwrap_or(0) as f64;
    let over = |count: u64, units: u64| count as f64 / units.max(1) as f64;
    let per_query_us = |span: &str| ns(span) / u.queries.max(1) as f64 / 1e3;
    // (metric, the span whose self time it divides, units replayed)
    let per_unit = [
        ("storage.read_block_ns", "storage.read_block", u.blocks),
        ("storage.page_verify_ns", "storage.page_verify", u.blocks),
        ("storage.page_seal_ns", "storage.page_seal", u.blocks),
        ("rtree.node_decode_ns", "rtree.node_decode", u.nodes),
        ("rtree.read_node_buf_ns", "rtree.read_node_buf", u.nodes),
        (
            "sigfile.block_build_ns_per_entry",
            "sigfile.block_build",
            u.entries,
        ),
        ("sigfile.mask_ns_per_entry", "sigfile.mask", u.entries),
        ("sigfile.sign_query_ns", "sigfile.sign_query", u.signings),
        ("model.object_load_ns", "model.object_load", u.candidates),
        ("text.verify_ns", "text.verify", u.candidates),
    ];
    let mut v: BTreeMap<&'static str, f64> = per_unit
        .into_iter()
        .map(|(metric, span, units)| (metric, ns(span) / units.max(1) as f64))
        .collect();
    v.insert("irtree.topk_direct_us", per_query_us("irtree.topk_direct"));
    v.insert(
        "core.facade_overhead_us",
        per_query_us("core.distance_first") - per_query_us("irtree.topk_direct"),
    );
    v.insert(
        "irtree.trace_overhead_pct",
        (ns("irtree.topk_traced") / ns("irtree.topk_untraced").max(1.0) - 1.0) * 100.0,
    );
    // Signature tests and the frontier are only in the trace events (a
    // sharded report does not fold them), so these count the traced query —
    // on a sharded engine, the query run on its nearest shard.
    v.insert("sigfile.tests_per_query", over(u.entries, u.queries));
    v.insert("irtree.entries_per_query", over(u.entries, u.queries));
    v.insert("sigfile.match_rate", over(u.sig_matched, u.entries));
    v.insert("irtree.max_heap", u.max_heap as f64);
    // The `bench.` values are not contract metrics; they feed the budget.
    v.insert("bench.direct_hit_rate", over(u.direct_hits, u.direct_nodes));
    v.insert("bench.blocks_per_node", over(u.blocks, u.nodes));
    v.insert("bench.nodes_per_direct_query", over(u.nodes, u.queries));
    v.insert(
        "bench.signings_per_direct_query",
        over(u.signings, u.queries),
    );
    v.insert(
        "bench.candidates_per_direct_query",
        over(u.candidates, u.queries),
    );
    v
}

/// The hit path, on a cache that holds every touched node: the cache probe
/// alone, and the tree's cached read around it.
fn probe_hits(
    log: &mut SpanLog,
    p: &Prepared,
    sample: &[DistanceFirstQuery<2>],
    touched: &[Touched],
) -> StorageResult<u64> {
    let mut probes = 0;
    for (qid, (q, t)) in sample.iter().zip(touched).enumerate() {
        let tree = p.engine.home(q).ir2_tree();
        let cache: &NodeCache<2> = tree.node_cache().expect("the caller attached a node cache");
        for &(id, _, _) in &t.nodes {
            tree.read_node_cached(id)?; // untimed: make sure it is resident
        }
        log.time("storage.cache_probe_hit", None, qid as u64, || {
            for &(id, _, _) in &t.nodes {
                std::hint::black_box(cache.get(id));
            }
        });
        log.time("rtree.read_node_cached_hit", None, qid as u64, || {
            t.nodes
                .iter()
                .try_for_each(|&(id, _, _)| tree.read_node_cached(id).map(|n| debug_assert!(n.1)))
        })?;
        probes += t.nodes.len() as u64;
    }
    Ok(probes)
}

/// What the write path recorded.
struct InsertCosts {
    values: BTreeMap<&'static str, f64>,
    samples: u64,
}

/// Inserts `objects` into `db` piecewise — the same four calls
/// `SpatialKeywordDb::insert` makes, each under its own span inside one
/// `core.insert` span — and commits after each.
fn piecewise_inserts(
    log: &mut SpanLog,
    db: &Db,
    objects: &[SpatialObject<2>],
) -> StorageResult<InsertCosts> {
    let writes = |db: &Db| {
        let t = db.io_totals();
        [t.0, t.1, t.2, t.3, t.4]
            .iter()
            .map(|s| s.random_writes + s.seq_writes)
            .sum::<u64>()
    };
    let (writes_before, stored_before) = (writes(db), stored_bytes(db));
    let first_span = log.spans.len();
    for (i, obj) in objects.iter().enumerate() {
        let qid = i as u64;
        let insert_span = log.open("core.insert", None, qid);
        let insert = Some(insert_span);
        let ptr = log.time("model.append", insert, qid, || {
            let ptr = db.object_store().append(obj)?;
            db.object_store().flush().map(|()| ptr)
        })?;
        log.time("rtree.insert", insert, qid, || {
            db.rtree().insert(ptr.0, Rect::from_point(obj.point), &[])
        })?;
        log.time("irtree.ir2_insert", insert, qid, || {
            insert_object(db.ir2_tree(), ptr, obj)
        })?;
        log.time("irtree.mir2_insert", insert, qid, || {
            insert_object(db.mir2_tree(), ptr, obj)
        })?;
        log.close(insert_span);
        log.time("core.commit", None, qid, || db.save_catalog())?;
    }
    let n = objects.len().max(1) as f64;
    let durations = |name: &str| log.durations(first_span, name);
    let mean_us = |name: &str| durations(name).iter().sum::<u64>() as f64 / n / 1e3;
    let (inserts, commits) = (durations("core.insert"), durations("core.commit"));
    let mut values = BTreeMap::new();
    values.insert("rtree.insert_us", mean_us("rtree.insert"));
    values.insert("irtree.ir2_insert_us", mean_us("irtree.ir2_insert"));
    values.insert("irtree.mir2_insert_us", mean_us("irtree.mir2_insert"));
    values.insert("core.insert_p50_ms", ms(percentile(&inserts, 500)));
    values.insert("core.insert_p90_ms", ms(percentile(&inserts, 900)));
    values.insert("core.commit_p50_ms", ms(percentile(&commits, 500)));
    values.insert(
        "storage.blocks_written_per_insert",
        (writes(db) - writes_before) as f64 / n,
    );
    values.insert(
        "storage.device_growth_bytes_per_insert",
        (stored_bytes(db) - stored_before) as f64 / n,
    );
    // What `save_catalog` hands the shadow pair: four length-prefixed chunks.
    let catalog = 4 * 4
        + db.config().encode().len()
        + db.vocab().encode().len()
        + db.inverted_index().encode_dictionary().len()
        + 144;
    values.insert("core.catalog_bytes", catalog as f64);
    Ok(InsertCosts {
        values,
        samples: objects.len() as u64,
    })
}

/// Latency median and mean blocks of `alg` over the sample (the
/// comparison algorithms: an IR²-only change should move neither).
fn other_algorithm(
    p: &mut Prepared,
    alg: Algorithm,
    sample: &[DistanceFirstQuery<2>],
) -> (f64, f64) {
    let logs = run_clients(p, alg, sample, 1, Duration::ZERO);
    check_logs(p, &logs);
    let mut latencies = logs[0].latency_ns.clone();
    latencies.sort_unstable();
    let c = &logs[0].counts;
    (
        ms(percentile(&latencies, 500)),
        c.blocks as f64 / c.queries.max(1) as f64,
    )
}

fn throughput(p: &Prepared, sample: &[DistanceFirstQuery<2>], clients: usize) -> f64 {
    let logs = run_clients(p, Algorithm::Ir2, sample, clients, Duration::from_secs(1));
    logs.iter()
        .map(|l| l.end_ns.len() as f64 / (l.end_ns.last().copied().unwrap_or(1) as f64 / 1e9))
        .sum()
}

/// A direct call's time composed from the per-unit layer costs, in µs per
/// query. A node visit is a hit or a miss at the rate the direct calls saw;
/// a miss pays the device read, the CRC, the decode and the block build.
/// What the direct call took beyond the sum is `irtree.residual_us`: the
/// heap, MINDIST, result assembly, and whatever replaying layers in
/// isolation does not reproduce.
fn budget(values: &BTreeMap<&'static str, f64>) -> Vec<(&'static str, f64)> {
    let v = |k: &str| values[k];
    let hit = v("bench.direct_hit_rate");
    let nodes = v("bench.nodes_per_direct_query");
    let missed = (1.0 - hit) * nodes;
    let entries = v("irtree.entries_per_query");
    let candidates = v("bench.candidates_per_direct_query");
    let blocks_per_node = v("bench.blocks_per_node");
    let read_and_verify =
        (v("storage.read_block_ns") + v("storage.page_verify_ns")) * blocks_per_node;
    vec![
        (
            "rtree.read_node_cached (hits)",
            nodes * hit * v("rtree.read_node_cached_hit_ns") / 1e3,
        ),
        (
            "storage.read_block",
            missed * v("storage.read_block_ns") * blocks_per_node / 1e3,
        ),
        (
            "storage.page_verify",
            missed * v("storage.page_verify_ns") * blocks_per_node / 1e3,
        ),
        (
            "rtree.node_decode",
            missed * v("rtree.node_decode_ns") / 1e3,
        ),
        (
            "rtree.read_node_buf (copy, alloc)",
            missed * (v("rtree.read_node_buf_ns") - v("rtree.node_decode_ns") - read_and_verify)
                / 1e3,
        ),
        (
            "sigfile.block_build",
            (1.0 - hit) * entries * v("sigfile.block_build_ns_per_entry") / 1e3,
        ),
        (
            "sigfile.sign_query",
            v("bench.signings_per_direct_query") * v("sigfile.sign_query_ns") / 1e3,
        ),
        (
            "sigfile.mask",
            entries * v("sigfile.mask_ns_per_entry") / 1e3,
        ),
        (
            "model.object_load",
            candidates * v("model.object_load_ns") / 1e3,
        ),
        ("text.verify", candidates * v("text.verify_ns") / 1e3),
    ]
}

/// The traced run: set up as the untraced run does, then measure layer by
/// layer. Returns the per-layer metrics and the spans to write out.
pub fn run_traced(plan: &Plan, seed: u64, seconds: f64) -> Result<(RunResult, SpanLog), String> {
    let storage = |e: ir2tree::storage::StorageError| format!("traced run failed: {e}");
    let mut p = workloads::prepare(plan, seed)?;
    let sample: Vec<DistanceFirstQuery<2>> =
        p.queries[..plan.trace_queries.min(p.queries.len())].to_vec();

    // Counts, from the sample run in the workload's own pattern.
    let (counts, rounds_used) = match plan.writes {
        None => {
            let logs = run_clients(&p, Algorithm::Ir2, &sample, 1, Duration::ZERO);
            check_logs(&mut p, &logs);
            (logs[0].counts, 0)
        }
        Some(w) => {
            let rounds = sample.len().div_ceil(w.queries_per_round);
            let writes = Writes {
                count_rounds: rounds,
                ..w
            };
            let (log, wlog) = run_mixed(&mut p, writes, Duration::ZERO);
            check_mixed(&mut p, &log, &wlog);
            (log.counts, rounds)
        }
    };
    let shards_touched = match &p.engine {
        Engine::Mono(_) => 1.0,
        Engine::Sharded(db) => db
            .metrics()
            .histogram("sharded_query_shards_touched")
            .summary()
            .mean(),
    };

    // Layer costs: replay passes until the time is up; the first pass's
    // spans are the ones written out.
    let started = Instant::now();
    let mut first_log: Option<SpanLog> = None;
    let mut touched = Vec::new();
    let mut passes: Vec<BTreeMap<&'static str, f64>> = Vec::new();
    let mut mismatches = 0;
    while passes.is_empty() || started.elapsed().as_secs_f64() < seconds {
        let mut log = SpanLog::new();
        let mut units = Units::default();
        touched = replay_pass(&mut log, &p, &sample, &mut units).map_err(storage)?;
        passes.push(pass_values(&log, &units));
        mismatches += units.mismatches;
        first_log.get_or_insert(log);
    }
    let mut log = first_log.expect("at least one pass ran");
    let mut values: BTreeMap<&'static str, f64> = passes[0]
        .keys()
        .map(|&k| {
            (
                k,
                median(&passes.iter().map(|pass| pass[k]).collect::<Vec<_>>()),
            )
        })
        .collect();

    let (mir2_p50, mir2_blocks) = other_algorithm(&mut p, Algorithm::Mir2, &sample);
    let (iio_p50, iio_blocks) = other_algorithm(&mut p, Algorithm::Iio, &sample);
    let one_client = throughput(&p, &sample, 1);
    let two_clients = throughput(&p, &sample, 2.min(workloads::host_cores()));

    // The hit path needs a cache that holds the touched nodes; a workload
    // that runs without one gets it attached for this measurement only.
    let attached = match &mut p.engine {
        Engine::Mono(db) if db.ir2_tree().node_cache().is_none() => {
            db.configure_node_cache(16_384);
            true
        }
        _ => false,
    };
    let span_mark = log.spans.len();
    let probes = probe_hits(&mut log, &p, &sample, &touched).map_err(storage)?;
    let hit_ns = |name: &str| {
        log.durations(span_mark, name).iter().sum::<u64>() as f64 / probes.max(1) as f64
    };
    values.insert(
        "storage.cache_probe_hit_ns",
        hit_ns("storage.cache_probe_hit"),
    );
    values.insert(
        "rtree.read_node_cached_hit_ns",
        hit_ns("rtree.read_node_cached_hit"),
    );
    if let (true, Engine::Mono(db)) = (attached, &mut p.engine) {
        db.configure_node_cache(0);
    }

    // The write path, last: it changes the data under everything above.
    let fresh = &p.tail[rounds_used..rounds_used + plan.trace_inserts];
    let inserts = piecewise_inserts(&mut log, p.engine.databases()[0], fresh).map_err(storage)?;
    values.extend(inserts.values.iter().map(|(&k, &v)| (k, v)));

    let budget_us = budget(&values);
    let layers_us: f64 = budget_us.iter().map(|b| b.1).sum();
    let direct_us = values["irtree.topk_direct_us"];
    values.insert("irtree.residual_us", direct_us - layers_us);

    let q = counts.queries.max(1) as f64;
    let n = counts.queries;
    let mut metrics: Vec<Metric> = vec![
        metric(
            "storage.cache_hit_rate",
            counts.cache_hits as f64 / counts.nodes.max(1) as f64,
            counts.nodes,
        ),
        metric(
            "storage.random_blocks_per_query",
            counts.random_blocks as f64 / q,
            n,
        ),
        metric(
            "storage.seq_blocks_per_query",
            counts.seq_blocks as f64 / q,
            n,
        ),
        metric("irtree.nodes_per_query", counts.nodes as f64 / q, n),
        metric(
            "model.candidates_per_query",
            counts.candidates as f64 / q,
            n,
        ),
        metric(
            "model.false_positive_rate",
            counts.false_positives as f64 / counts.candidates.max(1) as f64,
            counts.candidates,
        ),
        metric("irtree.mir2_query_p50_ms", mir2_p50, n),
        metric("irtree.mir2_blocks_per_query", mir2_blocks, n),
        metric("invindex.iio_query_p50_ms", iio_p50, n),
        metric("invindex.iio_blocks_per_query", iio_blocks, n),
        metric("core.shards_touched_per_query", shards_touched, n),
        metric("core.shard_scaling_2c", two_clients / one_client, 2),
        metric("core.build_s", p.build_s, 1),
        metric("core.warmup_s", p.warmup_s, 1),
        metric("datagen.generate_s", p.generate_s, 1),
    ];
    let replayed = passes.len() as u64 * sample.len() as u64;
    metrics.extend(
        values
            .iter()
            .filter(|(k, _)| !k.starts_with("bench."))
            .map(|(&k, &value)| {
                let samples = if inserts.values.contains_key(k) {
                    inserts.samples
                } else {
                    replayed
                };
                metric(k, value, samples)
            }),
    );

    let mut extra: Vec<(String, String)> = vec![
        ("replay_passes".into(), passes.len().to_string()),
        ("replayed_queries_per_pass".into(), sample.len().to_string()),
        ("replay_mismatches".into(), mismatches.to_string()),
        ("spans".into(), log.spans.len().to_string()),
        (
            "direct_hit_rate".into(),
            crate::json::num(values["bench.direct_hit_rate"]),
        ),
        ("qps_1_client".into(), crate::json::num(one_client)),
        ("qps_2_clients".into(), crate::json::num(two_clients)),
        ("budget.direct_call_us".into(), crate::json::num(direct_us)),
        (
            "budget.residual_us (heap, MINDIST, results)".into(),
            crate::json::num(direct_us - layers_us),
        ),
    ];
    for (name, us) in &budget_us {
        extra.push((
            format!("budget.{name}"),
            format!(
                "\"{us:.1} us = {:.1}% of a direct call\"",
                us / direct_us * 100.0
            ),
        ));
    }
    let result = RunResult {
        metrics,
        attempted: p.checker.attempted + replayed,
        failed: p.checker.failed + mismatches,
        extra,
    };
    Ok((result, log))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::tests::small_plan;

    #[test]
    fn every_workload_reports_every_layer_metric_and_writes_spans() {
        let spec = crate::spec::Spec::load();
        for name in workloads::WORKLOADS {
            let plan = small_plan(name);
            let (r, log) = run_traced(&plan, 3, 0.05).unwrap();
            assert_eq!(
                r.failed, 0,
                "{name}: wrong answers or a replay that diverged"
            );
            for def in &spec.per_layer {
                let m = r
                    .metrics
                    .iter()
                    .find(|m| m.name == def.name)
                    .unwrap_or_else(|| panic!("{name}: no value for {}", def.name));
                assert!(m.value.is_finite(), "{name}: {} = {}", m.name, m.value);
            }
            assert_eq!(
                r.metrics.len(),
                spec.per_layer.len(),
                "{name}: unlisted metrics"
            );
            assert!(
                log.spans.len() > plan.trace_queries * 10,
                "{name}: {} spans",
                log.spans.len()
            );
            let replays = log
                .spans
                .iter()
                .filter(|s| s.name == "bench.replay")
                .count();
            assert_eq!(
                replays, plan.trace_queries,
                "{name}: one replay span per sampled query"
            );
            let cached = plan.config.node_cache > 0 && plan.writes.is_none();
            let hit_rate = r
                .metrics
                .iter()
                .find(|m| m.name == "storage.cache_hit_rate")
                .unwrap()
                .value;
            assert_eq!(hit_rate == 1.0, cached, "{name}: hit rate {hit_rate}");
        }
    }
}
