//! Reproduces every table and figure of the paper's evaluation (Section
//! VI), printing paper-style tables. See `DESIGN.md` §3 for the experiment
//! index and `EXPERIMENTS.md` for a recorded run.
//!
//! Usage:
//!   experiments [--scale F] [--queries N] [EXPERIMENT...]
//!
//! Experiments: table1 table2 fig9 fig10 fig11 fig12 fig13 fig14
//!              ablation-maintenance ablation-buffer ablation-general all
//!
//! `--scale F` multiplies both dataset sizes (default 1.0 = the paper's
//! 129 319 hotels and 456 288 restaurants); `--queries N` sets the number
//! of queries averaged per experiment point (default 20).

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Instant;

use ir2_bench::{build_db, run_distance_first, workload, BenchDb, Measurement};
use ir2_datagen::DatasetSpec;
use ir2tree::irtree::{distance_first_topk, insert_object, Ir2Payload, MirPayload};
use ir2tree::model::{ObjectSource, ObjectStore, SpatialObject};
use ir2tree::rtree::{RTree, RTreeConfig};
use ir2tree::sigfile::{MultiLevelScheme, SignatureScheme};
use ir2tree::storage::{BufferPool, CostModel, MemDevice, TrackedDevice};
use ir2tree::text::{LinearRank, SaturatingTfIdf};
use ir2tree::{Algorithm, IndexSizes, TopkRequest};

const K_SWEEP: [usize; 5] = [1, 5, 10, 20, 50];
const KW_SWEEP: [usize; 5] = [1, 2, 3, 4, 5];
const HOTELS_SIG_SWEEP: [usize; 5] = [63, 126, 189, 252, 315];
const RESTAURANTS_SIG_SWEEP: [usize; 5] = [2, 4, 8, 16, 32];
const HOTELS_SIG_DEFAULT: usize = 189;
const RESTAURANTS_SIG_DEFAULT: usize = 8;

struct Args {
    scale: f64,
    queries: usize,
    which: BTreeSet<String>,
}

fn parse_args() -> Args {
    let mut scale = 1.0;
    let mut queries = 20;
    let mut which = BTreeSet::new();
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--scale" => scale = it.next().expect("--scale F").parse().expect("scale factor"),
            "--queries" => {
                queries = it
                    .next()
                    .expect("--queries N")
                    .parse()
                    .expect("query count")
            }
            other => {
                which.insert(other.to_string());
            }
        }
    }
    if which.is_empty() || which.contains("all") {
        which = [
            "table1",
            "table2",
            "fig9",
            "fig10",
            "fig11",
            "fig12",
            "fig13",
            "fig14",
            "ablation-maintenance",
            "ablation-buffer",
            "ablation-general",
            "ablation-grid",
            "ablation-split",
        ]
        .into_iter()
        .map(String::from)
        .collect();
    }
    Args {
        scale,
        queries,
        which,
    }
}

/// Lazily-built per-dataset database shared by the experiments that use
/// the default signature lengths.
struct Lazy {
    spec: DatasetSpec,
    sig: usize,
    db: Option<BenchDb>,
}

impl Lazy {
    fn new(spec: DatasetSpec, sig: usize) -> Self {
        Self {
            spec,
            sig,
            db: None,
        }
    }

    fn get(&mut self) -> &BenchDb {
        if self.db.is_none() {
            let t = Instant::now();
            eprintln!(
                "[build] {} ({} objects, sig {} B)…",
                self.spec.name, self.spec.num_objects, self.sig
            );
            self.db = Some(build_db(&self.spec, self.sig));
            eprintln!("[build] done in {:.1}s", t.elapsed().as_secs_f64());
        }
        self.db.as_ref().expect("just built")
    }
}

fn main() {
    let args = parse_args();
    let hotels_spec = DatasetSpec::hotels().scaled(args.scale);
    let restaurants_spec = DatasetSpec::restaurants().scaled(args.scale);
    let mut hotels = Lazy::new(hotels_spec.clone(), HOTELS_SIG_DEFAULT);
    let mut restaurants = Lazy::new(restaurants_spec.clone(), RESTAURANTS_SIG_DEFAULT);

    println!("# IR2-Tree experiment reproduction");
    println!(
        "scale={} (Hotels {} objects, Restaurants {} objects), {} queries/point, k/keyword/sig defaults per paper",
        args.scale, hotels_spec.num_objects, restaurants_spec.num_objects, args.queries
    );

    for exp in &args.which {
        let t = Instant::now();
        match exp.as_str() {
            "table1" => table1(hotels.get(), restaurants.get()),
            "table2" => table2(hotels.get(), restaurants.get()),
            "fig9" => vary_k("Figure 9: varying k — Hotels", hotels.get(), args.queries),
            "fig12" => vary_k(
                "Figure 12: varying k — Restaurants",
                restaurants.get(),
                args.queries,
            ),
            "fig10" => vary_keywords(
                "Figure 10: varying #keywords — Hotels",
                hotels.get(),
                args.queries,
            ),
            "fig13" => vary_keywords(
                "Figure 13: varying #keywords — Restaurants",
                restaurants.get(),
                args.queries,
            ),
            "fig11" => vary_siglen(
                "Figure 11: varying signature length — Hotels",
                &hotels_spec,
                &HOTELS_SIG_SWEEP,
                args.queries,
            ),
            "fig14" => vary_siglen(
                "Figure 14: varying signature length — Restaurants",
                &restaurants_spec,
                &RESTAURANTS_SIG_SWEEP,
                args.queries,
            ),
            "ablation-maintenance" => ablation_maintenance(&restaurants_spec),
            "ablation-buffer" => ablation_buffer(restaurants.get(), args.queries),
            "ablation-general" => ablation_general(restaurants.get(), args.queries),
            "ablation-grid" => ablation_grid(&restaurants_spec, args.queries),
            "ablation-split" => ablation_split(&restaurants_spec, args.queries),
            other => eprintln!("unknown experiment: {other}"),
        }
        eprintln!("[{exp}] finished in {:.1}s", t.elapsed().as_secs_f64());
    }
}

// ---------------------------------------------------------------------
// Table 1: dataset details.
// ---------------------------------------------------------------------

fn table1(hotels: &BenchDb, restaurants: &BenchDb) {
    println!("\n### Table 1: dataset details\n");
    println!(
        "{:<12} {:>10} {:>12} {:>16} {:>15} {:>14}",
        "Dataset", "Size (MB)", "# objects", "avg words/obj", "unique words", "blocks/object"
    );
    for b in [hotels, restaurants] {
        let s = b.db.build_stats();
        println!(
            "{:<12} {:>10.1} {:>12} {:>16.1} {:>15} {:>14.2}",
            b.spec.name,
            s.object_file_bytes as f64 / 1_048_576.0,
            s.objects,
            s.avg_unique_words,
            s.unique_words,
            s.avg_blocks_per_object
        );
    }
}

// ---------------------------------------------------------------------
// Table 2: index structure sizes.
// ---------------------------------------------------------------------

fn table2(hotels: &BenchDb, restaurants: &BenchDb) {
    println!("\n### Table 2: sizes (MB) of indexing structures\n");
    println!(
        "{:<12} {:>8} {:>8} {:>10} {:>10}",
        "Dataset", "IIO", "R-Tree", "IR2-Tree", "MIR2-Tree"
    );
    for b in [hotels, restaurants] {
        let s = b.db.index_sizes();
        println!(
            "{:<12} {:>8.1} {:>8.1} {:>10.1} {:>10.1}",
            b.spec.name,
            IndexSizes::mb(s.iio),
            IndexSizes::mb(s.rtree),
            IndexSizes::mb(s.ir2),
            IndexSizes::mb(s.mir2)
        );
    }
}

// ---------------------------------------------------------------------
// Figures 9 / 12: varying k.
// ---------------------------------------------------------------------

fn vary_k(title: &str, bench: &BenchDb, queries: usize) {
    let mut rows = Vec::new();
    for k in K_SWEEP {
        let w = workload(&bench.spec, queries, 2, k);
        let cols: Vec<(Algorithm, Measurement)> = Algorithm::ALL
            .iter()
            .map(|&alg| (alg, run_distance_first(bench, alg, &w)))
            .collect();
        rows.push((k.to_string(), cols));
    }
    ir2_bench::print_table(
        &format!("{title} (a) execution time"),
        "k",
        &rows,
        |m| m.time_ms,
        "simulated ms",
    );
    ir2_bench::print_table(
        &format!("{title} (b) random block accesses"),
        "k",
        &rows,
        |m| m.random,
        "blocks",
    );
    ir2_bench::print_table(
        &format!("{title} (b) sequential block accesses"),
        "k",
        &rows,
        |m| m.sequential,
        "blocks",
    );
}

// ---------------------------------------------------------------------
// Figures 10 / 13: varying number of keywords.
// ---------------------------------------------------------------------

fn vary_keywords(title: &str, bench: &BenchDb, queries: usize) {
    let mut rows = Vec::new();
    for kw in KW_SWEEP {
        let w = workload(&bench.spec, queries, kw, 10);
        let cols: Vec<(Algorithm, Measurement)> = Algorithm::ALL
            .iter()
            .map(|&alg| (alg, run_distance_first(bench, alg, &w)))
            .collect();
        rows.push((kw.to_string(), cols));
    }
    ir2_bench::print_table(
        &format!("{title} (a) execution time"),
        "#keywords",
        &rows,
        |m| m.time_ms,
        "simulated ms",
    );
    ir2_bench::print_table(
        &format!("{title} (b) random block accesses"),
        "#keywords",
        &rows,
        |m| m.random,
        "blocks",
    );
    ir2_bench::print_table(
        &format!("{title} (b) sequential block accesses"),
        "#keywords",
        &rows,
        |m| m.sequential,
        "blocks",
    );
}

// ---------------------------------------------------------------------
// Figures 11 / 14: varying signature length (IR² and MIR² only).
// ---------------------------------------------------------------------

fn vary_siglen(title: &str, spec: &DatasetSpec, sweep: &[usize], queries: usize) {
    let mut rows = Vec::new();
    for &sig in sweep {
        eprintln!("[build] {} at signature length {sig} B…", spec.name);
        let bench = build_db(spec, sig);
        let w = workload(spec, queries, 2, 10);
        let cols: Vec<(Algorithm, Measurement)> = [Algorithm::Ir2, Algorithm::Mir2]
            .iter()
            .map(|&alg| (alg, run_distance_first(&bench, alg, &w)))
            .collect();
        rows.push((format!("{sig} B"), cols));
    }
    ir2_bench::print_table(
        &format!("{title} (a) execution time"),
        "sig len",
        &rows,
        |m| m.time_ms,
        "simulated ms",
    );
    ir2_bench::print_table(
        &format!("{title} (b) object accesses"),
        "sig len",
        &rows,
        |m| m.object_loads,
        "objects",
    );
}

// ---------------------------------------------------------------------
// Ablation A1: maintenance cost, IR² vs MIR² (fast and strict).
// ---------------------------------------------------------------------

fn ablation_maintenance(spec: &DatasetSpec) {
    // Insert a few thousand objects one by one into each tree variant and
    // count the object accesses signature maintenance causes.
    let n = (spec.num_objects / 40).clamp(500, 5_000);
    let objs: Vec<SpatialObject<2>> = spec.generate().take(n).collect();
    println!("\n### Ablation A1: maintenance cost of {n} incremental inserts + 10% deletes\n");
    println!(
        "{:<22} {:>12} {:>14} {:>14}",
        "variant", "wall (ms)", "object loads", "tree blocks"
    );

    let store = Arc::new(ObjectStore::<2, _>::create(MemDevice::new()));
    let ptrs: Vec<_> = objs.iter().map(|o| store.append(o).unwrap()).collect();
    store.flush().unwrap();
    let vocab_size = spec.vocab_size;
    let cfg = RTreeConfig::for_dims::<2>();

    let scheme = SignatureScheme::from_bytes_len(RESTAURANTS_SIG_DEFAULT, 4, 1);
    let mk_schemes = move || {
        MultiLevelScheme::new(
            RESTAURANTS_SIG_DEFAULT,
            4,
            1,
            cfg.max_entries,
            spec.avg_words_per_object as f64,
            vocab_size,
        )
    };

    let run = |label: &str, wall: f64, loads: u64, blocks: u64| {
        println!("{label:<22} {wall:>12.1} {loads:>14} {blocks:>14}");
    };

    // IR²-Tree.
    {
        let tracked = TrackedDevice::new(MemDevice::new());
        let stats = tracked.stats();
        let tree = RTree::create(tracked, cfg, Ir2Payload::new(scheme)).unwrap();
        let before_loads = store.loads();
        let t = Instant::now();
        for (p, o) in ptrs.iter().zip(&objs) {
            insert_object(&tree, *p, o).unwrap();
        }
        for (p, o) in ptrs.iter().zip(&objs).take(n / 10) {
            ir2tree::irtree::delete_object(&tree, *p, o).unwrap();
        }
        run(
            "IR2-Tree",
            t.elapsed().as_secs_f64() * 1e3,
            store.loads() - before_loads,
            stats.snapshot().total(),
        );
    }
    // MIR²-Tree, fast path (OR-lift on pure inserts).
    {
        let tracked = TrackedDevice::new(MemDevice::new());
        let stats = tracked.stats();
        let ops = MirPayload::new(mk_schemes(), Arc::clone(&store) as Arc<dyn ObjectSource<2>>);
        let tree = RTree::create(tracked, cfg, ops).unwrap();
        let before_loads = store.loads();
        let t = Instant::now();
        for (p, o) in ptrs.iter().zip(&objs) {
            insert_object(&tree, *p, o).unwrap();
        }
        for (p, o) in ptrs.iter().zip(&objs).take(n / 10) {
            ir2tree::irtree::delete_object(&tree, *p, o).unwrap();
        }
        run(
            "MIR2-Tree",
            t.elapsed().as_secs_f64() * 1e3,
            store.loads() - before_loads,
            stats.snapshot().total(),
        );
    }
    // MIR²-Tree, the paper's literal rule (recompute ancestors per insert).
    {
        let tracked = TrackedDevice::new(MemDevice::new());
        let stats = tracked.stats();
        let ops =
            MirPayload::new(mk_schemes(), Arc::clone(&store) as Arc<dyn ObjectSource<2>>).strict();
        let tree = RTree::create(tracked, cfg, ops).unwrap();
        let before_loads = store.loads();
        let t = Instant::now();
        for (p, o) in ptrs.iter().zip(&objs) {
            insert_object(&tree, *p, o).unwrap();
        }
        for (p, o) in ptrs.iter().zip(&objs).take(n / 10) {
            ir2tree::irtree::delete_object(&tree, *p, o).unwrap();
        }
        run(
            "MIR2-Tree (strict)",
            t.elapsed().as_secs_f64() * 1e3,
            store.loads() - before_loads,
            stats.snapshot().total(),
        );
    }
}

// ---------------------------------------------------------------------
// Ablation A2: LRU buffer pool in front of the IR²-Tree.
// ---------------------------------------------------------------------

fn ablation_buffer(bench: &BenchDb, queries: usize) {
    // Rebuild a standalone IR²-Tree behind buffer pools of varying size and
    // replay the same workload; report post-cache block accesses.
    let spec = &bench.spec;
    let n = spec.num_objects.min(20_000);
    let objs: Vec<SpatialObject<2>> = spec.generate().take(n).collect();
    let store = Arc::new(ObjectStore::<2, _>::create(MemDevice::new()));
    let items: Vec<_> = objs
        .iter()
        .map(|o| (store.append(o).unwrap(), o.clone()))
        .collect();
    store.flush().unwrap();

    println!("\n### Ablation A2: IR2-Tree block accesses vs LRU buffer-pool size ({n} objects)\n");
    println!(
        "{:<16} {:>10} {:>10} {:>12}",
        "pool (blocks)", "random", "seq", "sim. ms"
    );
    let w = workload(spec, queries, 2, 10);
    for pool_blocks in [0usize, 64, 256, 1024, 4096] {
        let tracked = TrackedDevice::new(MemDevice::new());
        let stats = tracked.stats();
        let pool = BufferPool::new(tracked, pool_blocks);
        let scheme = SignatureScheme::from_bytes_len(RESTAURANTS_SIG_DEFAULT, 4, 1);
        let tree =
            RTree::create(pool, RTreeConfig::for_dims::<2>(), Ir2Payload::new(scheme)).unwrap();
        ir2tree::irtree::bulk_load_objects(&tree, items.clone()).unwrap();
        stats.reset();
        for q in &w {
            let _ = distance_first_topk(&tree, store.as_ref(), q).unwrap();
        }
        let io = stats.snapshot();
        let per_query = 1.0 / w.len() as f64;
        println!(
            "{:<16} {:>10.1} {:>10.1} {:>12.1}",
            pool_blocks,
            io.random() as f64 * per_query,
            io.sequential() as f64 * per_query,
            CostModel::HDD_10K.time(io).as_secs_f64() * 1e3 * per_query,
        );
    }
}

// ---------------------------------------------------------------------
// Ablation A4: grid-based spatio-textual baseline (Vaid et al. style) vs
// the IR²-Tree with the same signature scheme.
// ---------------------------------------------------------------------

fn ablation_grid(spec: &DatasetSpec, queries: usize) {
    use ir2_grid::{GridConfig, GridIndex};
    use ir2tree::text::tokenize;

    let n = spec.num_objects.min(40_000);
    println!("\n### Ablation A4: uniform grid (related work) vs IR2-Tree ({n} objects)\n");
    let objs: Vec<SpatialObject<2>> = spec.generate().take(n).collect();
    let store = Arc::new(ObjectStore::<2, _>::create(TrackedDevice::new(
        MemDevice::new(),
    )));
    let mut items = Vec::with_capacity(n);
    for o in &objs {
        let ptr = store.append(o).unwrap();
        let mut terms: Vec<String> = tokenize(&o.text).collect();
        terms.sort_unstable();
        terms.dedup();
        items.push((ptr, o.point, terms));
    }
    store.flush().unwrap();
    let scheme = SignatureScheme::from_bytes_len(RESTAURANTS_SIG_DEFAULT, 4, 1);

    // Grid sized for ~capacity objects per cell, like a leaf node.
    let grid_dev = TrackedDevice::new(MemDevice::new());
    let grid_stats = grid_dev.stats();
    let grid = GridIndex::build(
        grid_dev,
        GridConfig::for_objects(n, RTreeConfig::for_dims::<2>().max_entries, scheme),
        &items,
    )
    .unwrap();

    // IR²-Tree with the same scheme over the same store.
    let tree_dev = TrackedDevice::new(MemDevice::new());
    let tree_stats = tree_dev.stats();
    let tree = RTree::create(
        tree_dev,
        RTreeConfig::for_dims::<2>(),
        Ir2Payload::new(scheme),
    )
    .unwrap();
    tree.bulk_load(
        items
            .iter()
            .map(|(p, pt, terms)| {
                let sig = scheme.sign_terms(terms.iter().map(String::as_str));
                let mut bytes = vec![0u8; scheme.byte_len()];
                sig.write_bytes(&mut bytes);
                (p.0, ir2tree::geo::Rect::from_point(*pt), bytes)
            })
            .collect(),
    )
    .unwrap();

    let w = workload(spec, queries, 2, 10);
    println!(
        "{:<12} {:>10} {:>10} {:>14} {:>12}",
        "structure", "random", "seq", "object loads", "size (MB)"
    );
    // Grid.
    grid_stats.reset();
    store.reset_loads();
    let obj_stats_handle = {
        // object loads counted via the store's loads counter
        let mut checked = 0u64;
        for q in &w {
            let (_, c) = grid.topk(store.as_ref(), q).unwrap();
            checked += c.candidates_checked;
        }
        checked
    };
    let gio = grid_stats.snapshot();
    let per = 1.0 / w.len() as f64;
    println!(
        "{:<12} {:>10.1} {:>10.1} {:>14.1} {:>12.1}",
        "grid",
        gio.random() as f64 * per,
        gio.sequential() as f64 * per,
        obj_stats_handle as f64 * per,
        grid.size_bytes() as f64 / 1_048_576.0,
    );
    // IR²-Tree.
    tree_stats.reset();
    let mut checked = 0u64;
    for q in &w {
        let (_, c) = distance_first_topk(&tree, store.as_ref(), q).unwrap();
        checked += c.candidates_checked;
    }
    let tio = tree_stats.snapshot();
    println!(
        "{:<12} {:>10.1} {:>10.1} {:>14.1} {:>12.1}",
        "IR2-Tree",
        tio.random() as f64 * per,
        tio.sequential() as f64 * per,
        checked as f64 * per,
        tree.size_bytes() as f64 / 1_048_576.0,
    );

    // Sequential signature file (the flat [FC84] ancestor).
    let ssf_dev = TrackedDevice::new(MemDevice::new());
    let ssf_stats = ssf_dev.stats();
    let ssf = ir2_sigscan::SignatureFile::build(
        ssf_dev,
        scheme,
        items.iter().map(|(p, _, terms)| (*p, terms.as_slice())),
    )
    .unwrap();
    ssf_stats.reset();
    let mut checked = 0u64;
    for q in &w {
        let (_, c) = ssf.topk(store.as_ref(), q).unwrap();
        checked += c.candidates_checked;
    }
    let sio = ssf_stats.snapshot();
    println!(
        "{:<12} {:>10.1} {:>10.1} {:>14.1} {:>12.1}",
        "SSF (flat)",
        sio.random() as f64 * per,
        sio.sequential() as f64 * per,
        checked as f64 * per,
        ssf.size_bytes() as f64 / 1_048_576.0,
    );
}

// ---------------------------------------------------------------------
// Ablation A5: quadratic vs linear node splitting (build cost vs query
// quality). The paper uses quadratic; linear is Guttman's cheaper variant.
// ---------------------------------------------------------------------

fn ablation_split(spec: &DatasetSpec, queries: usize) {
    use ir2tree::text::tokenize;
    let n = spec.num_objects.min(20_000);
    println!("\n### Ablation A5: quadratic vs linear split ({n} objects, incremental build)\n");
    let objs: Vec<SpatialObject<2>> = spec.generate().take(n).collect();
    let store = Arc::new(ObjectStore::<2, _>::create(MemDevice::new()));
    let scheme = SignatureScheme::from_bytes_len(RESTAURANTS_SIG_DEFAULT, 4, 1);
    let mut items = Vec::with_capacity(n);
    for o in &objs {
        let ptr = store.append(o).unwrap();
        let mut terms: Vec<String> = tokenize(&o.text).collect();
        terms.sort_unstable();
        terms.dedup();
        let sig = scheme.sign_terms(terms.iter().map(String::as_str));
        let mut bytes = vec![0u8; scheme.byte_len()];
        sig.write_bytes(&mut bytes);
        items.push((ptr.0, ir2tree::geo::Rect::from_point(o.point), bytes));
    }
    store.flush().unwrap();

    println!(
        "{:<12} {:>14} {:>12} {:>12} {:>14}",
        "split", "build (ms)", "q random", "q seq", "object loads"
    );
    let w = workload(spec, queries, 2, 10);
    for (label, cfg) in [
        ("quadratic", RTreeConfig::for_dims::<2>()),
        ("linear", RTreeConfig::for_dims::<2>().with_linear_split()),
    ] {
        let tracked = TrackedDevice::new(MemDevice::new());
        let stats = tracked.stats();
        let tree = RTree::create(tracked, cfg, Ir2Payload::new(scheme)).unwrap();
        let t = Instant::now();
        for (c, r, p) in &items {
            tree.insert(*c, *r, p).unwrap();
        }
        let build_ms = t.elapsed().as_secs_f64() * 1e3;
        stats.reset();
        let mut loads = 0u64;
        for q in &w {
            let (_, c) = distance_first_topk(&tree, store.as_ref(), q).unwrap();
            loads += c.candidates_checked;
        }
        let io = stats.snapshot();
        let per = 1.0 / w.len() as f64;
        println!(
            "{:<12} {:>14.1} {:>12.1} {:>12.1} {:>14.1}",
            label,
            build_ms,
            io.random() as f64 * per,
            io.sequential() as f64 * per,
            loads as f64 * per,
        );
    }
}

// ---------------------------------------------------------------------
// Ablation A3: general ranked top-k vs distance-first on the same keywords.
// ---------------------------------------------------------------------

fn ablation_general(bench: &BenchDb, queries: usize) {
    println!("\n### Ablation A3: distance-first vs general ranked top-k (IR2-Tree)\n");
    println!(
        "{:<18} {:>12} {:>12} {:>14}",
        "mode", "random", "seq", "object loads"
    );
    let w = workload(&bench.spec, queries, 2, 10);
    let m = run_distance_first(bench, Algorithm::Ir2, &w);
    println!(
        "{:<18} {:>12.1} {:>12.1} {:>14.1}",
        "distance-first", m.random, m.sequential, m.object_loads
    );

    let rank = LinearRank {
        ir_weight: 1.0,
        dist_weight: 0.05,
    };
    let mut random = 0.0;
    let mut seq = 0.0;
    let mut loads = 0.0;
    for q in &w {
        let req = TopkRequest::from_query(Algorithm::Ir2, q).ranked(SaturatingTfIdf, rank);
        let rep = bench.db.run(&req).unwrap();
        random += rep.io.random() as f64;
        seq += rep.io.sequential() as f64;
        loads += rep.object_loads as f64;
    }
    let n = w.len() as f64;
    println!(
        "{:<18} {:>12.1} {:>12.1} {:>14.1}",
        "general (tf-idf)",
        random / n,
        seq / n,
        loads / n
    );
}
