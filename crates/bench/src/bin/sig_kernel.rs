//! Containment-kernel speedup guard: scalar per-entry tests vs the
//! bit-sliced `SignatureBlock` kernel, at the paper's signature lengths.
//!
//! Two micro scenarios per length (8 B Restaurants, 189 B Hotels):
//!
//! * **tree path** — a node's worth of decoded `Signature`s tested one by
//!   one (`Signature::contains`) vs one `SignatureBlock::matches_mask_into`
//!   pass into a reused bitmask;
//! * **SSF path** — page-packed serialized entries decoded per entry
//!   (`Signature::from_bytes` + `contains`) vs the zero-copy
//!   `bytes_contain` test against the resident bytes.
//!
//! Every pass re-verifies that kernel and scalar verdicts are identical
//! bit for bit; the timings are best-of-R. `--assert-min-speedup X` gates
//! the *minimum* micro speedup across all four cells.
//!
//! A macro sweep then runs a warm distance-first top-k workload twice on
//! one cached database — kernels on (default) vs forced scalar
//! (`ScalarKernelGuard`) — asserting bitwise-identical results and
//! reporting the end-to-end delta (`--assert-max-macro-regression PCT`
//! gates it).
//!
//! Usage:
//!   sig_kernel [--entries N] [--queries N] [--reps R] [--scale F] [--k K]
//!              [--cache NODES] [--assert-min-speedup X]
//!              [--assert-max-macro-regression PCT] [--out FILE]

use std::time::Instant;

use ir2_bench::workload;
use ir2_datagen::DatasetSpec;
use ir2tree::model::DistanceFirstQuery;
use ir2tree::sigfile::{
    bytes_contain, EntryMask, ScalarKernelGuard, Signature, SignatureBlock, SignatureScheme,
};
use ir2tree::{Algorithm, DbConfig, DeviceSet, SpatialKeywordDb};

struct Args {
    entries: usize,
    queries: usize,
    reps: usize,
    scale: f64,
    k: usize,
    cache: usize,
    assert_min_speedup: Option<f64>,
    assert_max_macro_regression: Option<f64>,
    out: String,
}

fn parse_args() -> Args {
    let mut args = Args {
        entries: 4096,
        queries: 128,
        reps: 9,
        scale: 0.02,
        k: 10,
        cache: 4096,
        assert_min_speedup: None,
        assert_max_macro_regression: None,
        out: "BENCH_sig_kernel.json".to_string(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut next = |what: &str| it.next().unwrap_or_else(|| panic!("{arg} needs {what}"));
        match arg.as_str() {
            "--entries" => args.entries = next("N").parse().expect("entry count"),
            "--queries" => args.queries = next("N").parse().expect("query count"),
            "--reps" => args.reps = next("R").parse().expect("rep count"),
            "--scale" => args.scale = next("F").parse().expect("scale factor"),
            "--k" => args.k = next("K").parse().expect("k"),
            "--cache" => args.cache = next("NODES").parse().expect("cache size"),
            "--assert-min-speedup" => {
                args.assert_min_speedup = Some(next("X").parse().expect("speedup factor"))
            }
            "--assert-max-macro-regression" => {
                args.assert_max_macro_regression = Some(next("PCT").parse().expect("percent"))
            }
            "--out" => args.out = next("FILE"),
            other => panic!("unknown argument `{other}`"),
        }
    }
    args
}

/// Deterministic entry signatures: each "document" signs a handful of
/// synthetic terms (1–8, varying by index). No RNG — bins cannot use the
/// dev-only `rand`, and determinism keeps runs comparable.
fn make_entries(scheme: &SignatureScheme, n: usize) -> Vec<Signature> {
    (0..n)
        .map(|i| {
            let terms: Vec<String> = (0..(i % 8 + 1))
                .map(|j| format!("term-{}-{j}", i % 197))
                .collect();
            scheme.sign_terms(terms.iter().map(String::as_str))
        })
        .collect()
}

/// Query signatures: a mix of present terms (will match some entries and
/// exercise the full-row path) and absent terms (early mismatch).
fn make_queries(scheme: &SignatureScheme, n: usize) -> Vec<Signature> {
    (0..n)
        .map(|i| {
            if i % 3 == 0 {
                scheme.sign_term(&format!("term-{}-0", i % 197))
            } else {
                scheme.sign_term(&format!("absent-{i}"))
            }
        })
        .collect()
}

fn best_of(reps: usize, mut pass: impl FnMut() -> f64) -> f64 {
    pass(); // warm-up
    (0..reps.max(1))
        .map(|_| pass())
        .fold(f64::INFINITY, f64::min)
}

/// One micro cell: (scalar_secs, kernel_secs, speedup), with verdicts
/// cross-checked every pass.
struct MicroCell {
    scalar_ms: f64,
    kernel_ms: f64,
    speedup: f64,
}

/// Tree path: per-entry `contains` over decoded signatures vs one batched
/// `matches_mask_into` pass.
fn micro_tree(sigs: &[Signature], queries: &[Signature], reps: usize) -> MicroCell {
    let bits = queries[0].bits();
    let block = SignatureBlock::from_signatures(bits, sigs.iter());
    // Reference verdicts once, for the per-pass exactness check.
    let truth: Vec<u64> = queries
        .iter()
        .map(|q| sigs.iter().filter(|s| s.contains(q)).count() as u64)
        .collect();

    let scalar = best_of(reps, || {
        let t0 = Instant::now();
        let mut total = 0u64;
        for (qi, q) in queries.iter().enumerate() {
            let mut hits = 0u64;
            for s in sigs {
                hits += u64::from(s.contains(q));
            }
            assert_eq!(hits, truth[qi], "scalar verdicts drifted");
            total += hits;
        }
        std::hint::black_box(total);
        t0.elapsed().as_secs_f64()
    });

    let mut mask = EntryMask::new();
    let kernel = best_of(reps, || {
        let t0 = Instant::now();
        let mut total = 0u64;
        for (qi, q) in queries.iter().enumerate() {
            block.matches_mask_into(q, &mut mask);
            let hits = mask.count_ones() as u64;
            assert_eq!(hits, truth[qi], "kernel verdicts diverged from scalar");
            total += hits;
        }
        std::hint::black_box(total);
        t0.elapsed().as_secs_f64()
    });

    // Full per-entry agreement (not just counts) on the last query set.
    for q in queries {
        let m = block.matches_mask(q);
        for (i, s) in sigs.iter().enumerate() {
            assert_eq!(m.get(i), s.contains(q), "verdict mismatch at entry {i}");
        }
    }

    MicroCell {
        scalar_ms: scalar * 1e3,
        kernel_ms: kernel * 1e3,
        speedup: scalar / kernel,
    }
}

/// SSF path: page-resident serialized entries, decode-then-contains vs
/// zero-copy `bytes_contain`.
fn micro_ssf(sigs: &[Signature], queries: &[Signature], reps: usize) -> MicroCell {
    let bits = queries[0].bits();
    let byte_len = sigs[0].byte_len();
    // One packed buffer, like an SSF page run.
    let mut packed = vec![0u8; sigs.len() * byte_len];
    for (i, s) in sigs.iter().enumerate() {
        s.write_bytes(&mut packed[i * byte_len..(i + 1) * byte_len]);
    }
    let truth: Vec<u64> = queries
        .iter()
        .map(|q| sigs.iter().filter(|s| s.contains(q)).count() as u64)
        .collect();

    let scalar = best_of(reps, || {
        let t0 = Instant::now();
        let mut total = 0u64;
        for (qi, q) in queries.iter().enumerate() {
            let mut hits = 0u64;
            for e in 0..sigs.len() {
                let sig = Signature::from_bytes(bits, &packed[e * byte_len..(e + 1) * byte_len]);
                hits += u64::from(sig.contains(q));
            }
            assert_eq!(hits, truth[qi], "scalar verdicts drifted");
            total += hits;
        }
        std::hint::black_box(total);
        t0.elapsed().as_secs_f64()
    });

    let kernel = best_of(reps, || {
        let t0 = Instant::now();
        let mut total = 0u64;
        for (qi, q) in queries.iter().enumerate() {
            let mut hits = 0u64;
            for e in 0..sigs.len() {
                hits += u64::from(bytes_contain(&packed[e * byte_len..(e + 1) * byte_len], q));
            }
            assert_eq!(hits, truth[qi], "kernel verdicts diverged from scalar");
            total += hits;
        }
        std::hint::black_box(total);
        t0.elapsed().as_secs_f64()
    });

    MicroCell {
        scalar_ms: scalar * 1e3,
        kernel_ms: kernel * 1e3,
        speedup: scalar / kernel,
    }
}

type MemDb = SpatialKeywordDb<ir2tree::storage::MemDevice>;

fn macro_pass(db: &MemDb, queries: &[DistanceFirstQuery<2>]) -> (f64, Vec<Vec<(u64, u64)>>) {
    let t0 = Instant::now();
    let results: Vec<Vec<(u64, u64)>> = queries
        .iter()
        .map(|q| {
            db.distance_first(Algorithm::Ir2, q)
                .expect("query")
                .results
                .iter()
                .map(|(o, d)| (o.id, d.to_bits()))
                .collect()
        })
        .collect();
    (t0.elapsed().as_secs_f64(), results)
}

fn main() {
    let args = parse_args();

    // Paper operating points: Restaurants 8 B, Hotels 189 B.
    let lengths: [(usize, &str); 2] = [(8, "8B"), (189, "189B")];
    let mut cells: Vec<(String, MicroCell)> = Vec::new();
    for (bytes, label) in lengths {
        let scheme = SignatureScheme::from_bytes_len(bytes, 4, 9);
        let sigs = make_entries(&scheme, args.entries);
        let queries = make_queries(&scheme, args.queries);
        cells.push((
            format!("tree/{label}"),
            micro_tree(&sigs, &queries, args.reps),
        ));
        cells.push((
            format!("ssf/{label}"),
            micro_ssf(&sigs, &queries, args.reps),
        ));
    }

    println!(
        "# containment kernels: {} entries x {} queries, best of {} reps",
        args.entries, args.queries, args.reps
    );
    println!(
        "{:>10} | {:>11} | {:>11} | {:>8}",
        "cell", "scalar (ms)", "kernel (ms)", "speedup"
    );
    println!("{}", "-".repeat(50));
    for (name, c) in &cells {
        println!(
            "{:>10} | {:>11.3} | {:>11.3} | {:>7.2}x",
            name, c.scalar_ms, c.kernel_ms, c.speedup
        );
    }
    let min_speedup = cells
        .iter()
        .map(|(_, c)| c.speedup)
        .fold(f64::INFINITY, f64::min);

    // Macro: warm top-k sweep, kernels on vs forced scalar, one database.
    let spec = DatasetSpec::restaurants().scaled(args.scale);
    eprintln!("[build] {} ({} objects)…", spec.name, spec.num_objects);
    let db = SpatialKeywordDb::build(
        DeviceSet::in_memory(),
        spec.generate(),
        DbConfig::default().with_node_cache(args.cache),
    )
    .expect("build");
    let queries = workload(&spec, args.queries, 2, args.k);

    let warm = |db: &MemDb| {
        macro_pass(db, &queries); // warm the cache and decorations
        let mut best = f64::INFINITY;
        let mut out = Vec::new();
        for _ in 0..args.reps.max(1) {
            let (t, r) = macro_pass(db, &queries);
            if t < best {
                best = t;
            }
            out = r;
        }
        (best, out)
    };
    let (t_kernel, r_kernel) = warm(&db);
    let (t_scalar, r_scalar) = {
        let _g = ScalarKernelGuard::new();
        warm(&db)
    };
    assert_eq!(
        r_kernel, r_scalar,
        "kernel and scalar warm top-k answers must be bit-identical"
    );
    let macro_speedup = t_scalar / t_kernel;
    let macro_regression_pct = (t_kernel / t_scalar - 1.0) * 100.0;
    println!(
        "# macro warm top-k ({} queries x k={}): scalar {:.2} ms, kernel {:.2} ms ({:.2}x, results identical)",
        queries.len(),
        args.k,
        t_scalar * 1e3,
        t_kernel * 1e3,
        macro_speedup
    );

    let cell_json: Vec<String> = cells
        .iter()
        .map(|(name, c)| {
            format!(
                "    {{\"cell\": \"{name}\", \"scalar_ms\": {:.4}, \"kernel_ms\": {:.4}, \"speedup\": {:.3}}}",
                c.scalar_ms, c.kernel_ms, c.speedup
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"benchmark\": \"sig_kernel\",\n  \"entries\": {},\n  \"queries\": {},\n  \"reps\": {},\n  \"micro\": [\n{}\n  ],\n  \"min_micro_speedup\": {:.3},\n  \"macro\": {{\"dataset\": \"{}\", \"objects\": {}, \"k\": {}, \"scalar_ms\": {:.3}, \"kernel_ms\": {:.3}, \"speedup\": {:.3}, \"results_identical\": true}}\n}}\n",
        args.entries,
        args.queries,
        args.reps,
        cell_json.join(",\n"),
        min_speedup,
        spec.name,
        spec.num_objects,
        args.k,
        t_scalar * 1e3,
        t_kernel * 1e3,
        macro_speedup,
    );
    std::fs::write(&args.out, json).expect("write json");
    eprintln!("[out] wrote {}", args.out);

    if let Some(min) = args.assert_min_speedup {
        assert!(
            min_speedup >= min,
            "min micro containment speedup {min_speedup:.2}x is below the {min}x floor"
        );
        eprintln!("[gate] min micro speedup {min_speedup:.2}x ≥ {min}x — ok");
    }
    if let Some(max) = args.assert_max_macro_regression {
        assert!(
            macro_regression_pct <= max,
            "macro warm-path regression {macro_regression_pct:.1}% exceeds the {max}% budget"
        );
        eprintln!("[gate] macro delta {macro_regression_pct:+.1}% ≤ {max}% — ok");
    }
}
