//! Overhead guard for the query-trace instrumentation.
//!
//! The query algorithms take a `TraceSink` type parameter with a `NopSink`
//! default, so the untraced paths are *claimed* to monomorphize to the
//! uninstrumented code. This benchmark checks the claim where it matters —
//! the batch top-k hot path — by running the same workload three ways:
//!
//! * `nop`   — `distance_first_topk` (the `NopSink` default);
//! * `stats` — the same iterator built with a `StatsSink`, i.e. what
//!   the facade (`run` / `run_batch`) runs on every query;
//! * `vec`   — a `VecSink` storing every event (the `ir2 trace` path).
//!
//! The `stats` overhead versus `nop` is the number EXPERIMENTS.md records;
//! `--assert-max PCT` turns the run into a hard gate.
//!
//! Usage:
//!   trace_overhead [--scale F] [--queries N] [--k K] [--reps R]
//!                  [--assert-max PCT] [--out FILE]

use std::time::Instant;

use ir2_bench::{build_db, workload};
use ir2_datagen::DatasetSpec;
use ir2tree::irtree::{
    collect_topk, distance_first_topk, DistanceFirstIter, SigPayload, StatsSink, TraceSink, VecSink,
};
use ir2tree::model::{DistanceFirstQuery, ObjectSource, SpatialObject};
use ir2tree::rtree::RTree;
use ir2tree::storage::BlockDevice;

/// `distance_first_topk` with every step reported to `sink`.
fn topk_with_sink<D: BlockDevice, P: SigPayload, S: TraceSink>(
    tree: &RTree<2, D, P>,
    store: &dyn ObjectSource<2>,
    q: &DistanceFirstQuery<2>,
    sink: S,
) -> Vec<(SpatialObject<2>, f64)> {
    let mut iter =
        DistanceFirstIter::with_region_sink(tree, store, q.point.into(), q.keywords.clone(), sink);
    let (outcome, _) = collect_topk(&mut iter, q.k).expect("query");
    outcome.into_results()
}

struct Args {
    scale: f64,
    queries: usize,
    k: usize,
    reps: usize,
    assert_max: Option<f64>,
    out: String,
}

fn parse_args() -> Args {
    let mut args = Args {
        scale: 0.02,
        queries: 96,
        k: 10,
        reps: 5,
        assert_max: None,
        out: "BENCH_trace_overhead.json".to_string(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut next = |what: &str| it.next().unwrap_or_else(|| panic!("{arg} needs {what}"));
        match arg.as_str() {
            "--scale" => args.scale = next("F").parse().expect("scale factor"),
            "--queries" => args.queries = next("N").parse().expect("query count"),
            "--k" => args.k = next("K").parse().expect("k"),
            "--reps" => args.reps = next("R").parse().expect("rep count"),
            "--assert-max" => args.assert_max = Some(next("PCT").parse().expect("percent")),
            "--out" => args.out = next("FILE"),
            other => panic!("unknown argument `{other}`"),
        }
    }
    args
}

fn main() {
    let args = parse_args();
    let spec = DatasetSpec::restaurants().scaled(args.scale);
    eprintln!("[build] {} ({} objects)…", spec.name, spec.num_objects);
    let bench = build_db(&spec, 8);
    let queries = workload(&spec, args.queries, 2, args.k);
    let tree = bench.db.ir2_tree();
    let store = bench.db.object_store();

    // Best-of-R wall time for one full pass over the workload.
    let measure = |run: &mut dyn FnMut()| -> f64 {
        let mut best = f64::INFINITY;
        for _ in 0..args.reps.max(1) {
            let t0 = Instant::now();
            run();
            best = best.min(t0.elapsed().as_secs_f64());
        }
        best
    };

    // Warm-up pass (first touch reads every block through the device).
    for q in &queries {
        distance_first_topk(tree, store, q).expect("query");
    }

    let nop = measure(&mut || {
        for q in &queries {
            let (r, _) = distance_first_topk(tree, store, q).expect("query");
            std::hint::black_box(r);
        }
    });
    let stats = measure(&mut || {
        for q in &queries {
            let mut sink = StatsSink::new();
            let r = topk_with_sink(tree, store, q, &mut sink);
            std::hint::black_box((r, sink.stats.sig_tests));
        }
    });
    let vec = measure(&mut || {
        for q in &queries {
            let mut sink = VecSink::new();
            let r = topk_with_sink(tree, store, q, &mut sink);
            std::hint::black_box((r, sink.events.len()));
        }
    });

    let pct = |t: f64| (t / nop - 1.0) * 100.0;
    println!(
        "# trace instrumentation overhead ({} queries x k={}, best of {} reps)",
        queries.len(),
        args.k,
        args.reps
    );
    println!("{:>8} | {:>10} | {:>9}", "sink", "wall (ms)", "overhead");
    println!("{}", "-".repeat(34));
    println!("{:>8} | {:>10.2} | {:>8}", "nop", nop * 1e3, "—");
    println!(
        "{:>8} | {:>10.2} | {:>+8.1}%",
        "stats",
        stats * 1e3,
        pct(stats)
    );
    println!("{:>8} | {:>10.2} | {:>+8.1}%", "vec", vec * 1e3, pct(vec));

    let json = format!(
        "{{\n  \"benchmark\": \"trace_overhead\",\n  \"dataset\": \"{}\",\n  \"objects\": {},\n  \"queries\": {},\n  \"k\": {},\n  \"reps\": {},\n  \"wall_ms\": {{\"nop\": {:.3}, \"stats\": {:.3}, \"vec\": {:.3}}},\n  \"overhead_pct\": {{\"stats\": {:.2}, \"vec\": {:.2}}}\n}}\n",
        spec.name,
        spec.num_objects,
        queries.len(),
        args.k,
        args.reps,
        nop * 1e3,
        stats * 1e3,
        vec * 1e3,
        pct(stats),
        pct(vec)
    );
    std::fs::write(&args.out, json).expect("write json");
    eprintln!("[out] wrote {}", args.out);

    if let Some(max) = args.assert_max {
        assert!(
            pct(stats) <= max,
            "StatsSink overhead {:.1}% exceeds the {max}% budget",
            pct(stats)
        );
        eprintln!("[gate] stats overhead {:.1}% ≤ {max}% — ok", pct(stats));
    }
}
