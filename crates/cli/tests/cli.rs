//! End-to-end tests of the `ir2` binary: generate → build → query/stats,
//! driven through the real executable.

use std::path::PathBuf;
use std::process::{Command, Output};

fn ir2(dir: &std::path::Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ir2"))
        .current_dir(dir)
        .args(args)
        .output()
        .expect("spawn ir2")
}

fn stdout(o: &Output) -> String {
    String::from_utf8_lossy(&o.stdout).into_owned()
}

fn workdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ir2-cli-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn full_pipeline() {
    let dir = workdir("pipeline");
    let gen = ir2(
        &dir,
        &[
            "generate",
            "--preset",
            "restaurants",
            "--count",
            "800",
            "--out",
            "pois.tsv",
        ],
    );
    assert!(
        gen.status.success(),
        "{}",
        String::from_utf8_lossy(&gen.stderr)
    );
    assert!(dir.join("pois.tsv").exists());

    let build = ir2(
        &dir,
        &[
            "build",
            "--tsv",
            "pois.tsv",
            "--db",
            "db",
            "--sig-bytes",
            "8",
        ],
    );
    assert!(
        build.status.success(),
        "{}",
        String::from_utf8_lossy(&build.stderr)
    );
    assert!(stdout(&build).contains("built 800 objects"));

    let stats = ir2(&dir, &["stats", "--db", "db"]);
    assert!(stats.status.success());
    let s = stdout(&stats);
    assert!(s.contains("objects:            800"), "{s}");
    assert!(s.contains("index sizes"));
    // Per-level signature weight lines sourced from the block kernels.
    assert!(s.contains("signature ir2   L0: density"), "{s}");
    assert!(s.contains("signature mir2  L0: density"), "{s}");
    assert!(s.contains("bits set"), "{s}");

    // Query with every algorithm; all must succeed and report I/O.
    for alg in ["rtree", "iio", "ir2", "mir2"] {
        let q = ir2(
            &dir,
            &[
                "query",
                "--db",
                "db",
                "--at",
                "0,0",
                "--keywords",
                "ba",
                "--k",
                "3",
                "--alg",
                alg,
            ],
        );
        assert!(
            q.status.success(),
            "{alg}: {}",
            String::from_utf8_lossy(&q.stderr)
        );
        assert!(stdout(&q).contains("block accesses"), "{alg}");
    }

    // Concurrent batch: a query file answered on 4 threads.
    std::fs::write(
        dir.join("queries.txt"),
        "# point keywords\n0,0 ba\n5,5 ce\n\n-10,10 ba ce\n20,-20 ba\n",
    )
    .unwrap();
    let batch = ir2(
        &dir,
        &[
            "batch",
            "--db",
            "db",
            "--queries",
            "queries.txt",
            "--threads",
            "4",
            "--k",
            "3",
        ],
    );
    assert!(
        batch.status.success(),
        "{}",
        String::from_utf8_lossy(&batch.stderr)
    );
    let b = stdout(&batch);
    assert!(b.contains("batch of 4 top-3 queries"), "{b}");
    assert!(b.contains("queries/sec"), "{b}");

    // A malformed batch file is reported with its line number.
    std::fs::write(dir.join("bad.txt"), "not-a-point ba\n").unwrap();
    let bad = ir2(&dir, &["batch", "--db", "db", "--queries", "bad.txt"]);
    assert!(!bad.status.success());
    assert!(String::from_utf8_lossy(&bad.stderr).contains("bad.txt:1"));

    // Traced query: step log plus the observed-vs-predicted pruning table.
    // The summary line and the per-level table are pinned byte for byte,
    // as the fold of the query's event stream printed them.
    let summary = |tests: &str, fetched: &str, frontier: u32| {
        format!(
            "summary: 5 nodes visited, 416 entries scanned, {tests}, {fetched}, \
             max frontier {frontier}\n"
        )
    };
    let table = |level1: &str| {
        "level  bits  density  predicted-fp  sig-tests  matched  observed\n\
         \x20   0    64   0.5737        0.1083        408      293    0.7181\n"
            .to_owned()
            + level1
            + "\n"
    };
    let ir2_tests = "416 signature tests (115 pruned)";
    let ir2_fetched = "3 objects fetched (0 false positives)";
    let pinned = [
        (
            "ir2",
            summary(ir2_tests, ir2_fetched, 221)
                + &table("    1    64   1.0000        1.0000          8        8    1.0000"),
        ),
        (
            "mir2",
            summary(ir2_tests, ir2_fetched, 221)
                + &table("    1  8216   0.3428        0.0138          8        8    1.0000"),
        ),
        (
            "rtree",
            summary(
                "0 signature tests (0 pruned)",
                "7 objects fetched (4 false positives)",
                307,
            ),
        ),
    ];
    for (alg, want) in pinned {
        let t = ir2(
            &dir,
            &[
                "trace",
                "--db",
                "db",
                "--at",
                "0,0",
                "--keywords",
                "ba",
                "--k",
                "3",
                "--alg",
                alg,
            ],
        );
        assert!(
            t.status.success(),
            "{alg}: {}",
            String::from_utf8_lossy(&t.stderr)
        );
        let s = stdout(&t);
        let from_summary = &s[s.find("summary:").expect("a summary line")..];
        let tail_len = from_summary.find("  #").unwrap_or(from_summary.len());
        assert_eq!(&from_summary[..tail_len], want, "{alg}");
        assert!(!s.contains("NaN"), "{alg}: {s}");
        if alg != "rtree" {
            assert!(s.contains("predicted-fp"), "{alg}: {s}");
            assert!(s.contains("sig test"), "{alg}: {s}");
        }
    }

    // Prometheus exposition: well-formed, finite numbers only.
    let prom = ir2(&dir, &["stats", "--db", "db", "--prometheus"]);
    assert!(prom.status.success());
    let p = stdout(&prom);
    assert!(p.contains("# TYPE"), "{p}");
    assert!(p.contains("device_read_blocks{device=\"objects\"}"), "{p}");
    assert!(p.contains("db_objects 800"), "{p}");
    assert!(!p.contains("NaN"), "{p}");
    assert!(!p.contains("inf"), "{p}");

    // Execution limits: an exhausted I/O budget truncates (exit 0, with a
    // banner naming the limit) instead of failing.
    let limited = ir2(
        &dir,
        &[
            "query",
            "--db",
            "db",
            "--at",
            "0,0",
            "--keywords",
            "ba",
            "--k",
            "3",
            "--io-budget",
            "0",
        ],
    );
    assert!(
        limited.status.success(),
        "{}",
        String::from_utf8_lossy(&limited.stderr)
    );
    let l = stdout(&limited);
    assert!(l.contains("truncated by io_budget"), "{l}");
    assert!(l.contains("(no results)"), "{l}");

    // A generous budget changes nothing.
    let roomy = ir2(
        &dir,
        &[
            "query",
            "--db",
            "db",
            "--at",
            "0,0",
            "--keywords",
            "ba",
            "--k",
            "3",
            "--io-budget",
            "1000000",
            "--deadline-ms",
            "60000",
        ],
    );
    assert!(roomy.status.success());
    assert!(!stdout(&roomy).contains("truncated"), "{}", stdout(&roomy));

    // Batch under a batch-wide deadline: always exits 0 (truncation is not
    // failure) and reports the truncation tally in its summary.
    let dl = ir2(
        &dir,
        &[
            "batch",
            "--db",
            "db",
            "--queries",
            "queries.txt",
            "--threads",
            "2",
            "--k",
            "3",
            "--deadline-ms",
            "60000",
        ],
    );
    assert!(
        dl.status.success(),
        "{}",
        String::from_utf8_lossy(&dl.stderr)
    );
    let d = stdout(&dl);
    assert!(d.contains("truncated="), "{d}");
    assert!(d.contains("failed=0"), "{d}");

    // Every query truncated under a zero budget; still exit 0.
    let starved = ir2(
        &dir,
        &[
            "batch",
            "--db",
            "db",
            "--queries",
            "queries.txt",
            "--k",
            "3",
            "--io-budget",
            "0",
        ],
    );
    assert!(starved.status.success());
    let s = stdout(&starved);
    assert!(s.contains("truncated=4"), "{s}");

    // Limits compose with area queries: a budget truncates to an exact
    // prefix of the unlimited answer, under the same banner. (The small
    // area keeps result distances distinct, so the prefix is literal.)
    let area_query = |budget: Option<&str>| {
        let mut args = vec![
            "query",
            "--db",
            "db",
            "--area",
            "0,0,0.5,0.5",
            "--keywords",
            "ba",
            "--k",
            "4",
        ];
        args.extend(budget.iter().flat_map(|b| ["--io-budget", b]));
        let out = ir2(&dir, &args);
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let text = stdout(&out);
        let hits: Vec<String> = text
            .lines()
            .filter(|l| l.starts_with("  #"))
            .map(str::to_owned)
            .collect();
        (text, hits)
    };
    let (full_text, full_hits) = area_query(None);
    assert!(!full_text.contains("truncated"), "{full_text}");
    assert_eq!(full_hits.len(), 4, "{full_text}");
    let (starved_text, starved_hits) = area_query(Some("1"));
    assert!(
        starved_text.contains("truncated by io_budget"),
        "{starved_text}"
    );
    assert!(starved_hits.is_empty(), "{starved_text}");
    let (cut_text, cut_hits) = area_query(Some("6"));
    assert!(cut_text.contains("truncated by io_budget"), "{cut_text}");
    assert!(
        !cut_hits.is_empty() && cut_hits.len() < full_hits.len(),
        "{cut_text}"
    );
    assert_eq!(cut_hits[..], full_hits[..cut_hits.len()], "{cut_text}");

    // Area query and ranked query.
    let area = ir2(
        &dir,
        &[
            "query",
            "--db",
            "db",
            "--area",
            "-20,-20,20,20",
            "--keywords",
            "ba",
            "--k",
            "2",
        ],
    );
    assert!(area.status.success());
    let ranked = ir2(
        &dir,
        &[
            "ranked",
            "--db",
            "db",
            "--at",
            "0,0",
            "--keywords",
            "ba ce",
            "--k",
            "3",
        ],
    );
    assert!(ranked.status.success());
    assert!(stdout(&ranked).contains("score"));

    // A distance weight that would let the score grow with distance (or be
    // NaN) breaks the general algorithm's bound: refused, nothing printed.
    let ranked_with = |weight: &str| {
        let args = ["ranked", "--db", "db", "--at", "0,0", "--keywords", "ba ce"];
        ir2(
            &dir,
            &[&args[..], &["--k", "3", "--dist-weight", weight]].concat(),
        )
    };
    for weight in ["-0.5", "nan", "inf", "-inf"] {
        let out = ranked_with(weight);
        assert!(!out.status.success(), "--dist-weight {weight}");
        let err = String::from_utf8_lossy(&out.stderr).into_owned();
        assert!(
            err.starts_with("error: bad --dist-weight: ")
                && err.contains("is not a finite, non-negative weight"),
            "--dist-weight {weight}: {err}"
        );
        assert!(stdout(&out).is_empty(), "--dist-weight {weight}");
    }
    let flat = ranked_with("0");
    assert!(flat.status.success());
    assert_eq!(stdout(&flat).matches("score").count(), 3);

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn replicated_pipeline() {
    let dir = workdir("replicated");
    let gen = ir2(
        &dir,
        &[
            "generate",
            "--preset",
            "restaurants",
            "--count",
            "400",
            "--out",
            "pois.tsv",
        ],
    );
    assert!(gen.status.success());

    let build = ir2(
        &dir,
        &[
            "build",
            "--tsv",
            "pois.tsv",
            "--db",
            "db",
            "--sig-bytes",
            "8",
            "--shards",
            "2",
            "--replicas",
            "2",
        ],
    );
    assert!(
        build.status.success(),
        "{}",
        String::from_utf8_lossy(&build.stderr)
    );
    let b = stdout(&build);
    assert!(b.contains("2 shards × 2 replica(s)"), "{b}");
    assert!(b.contains("byte-verified"), "{b}");

    // check recurses into every shard × replica directory.
    let check = ir2(&dir, &["check", "--db", "db"]);
    assert!(
        check.status.success(),
        "{}",
        String::from_utf8_lossy(&check.stderr)
    );
    let c = stdout(&check);
    assert!(c.contains("manifest OK    2 shards × 2 replica(s)"), "{c}");
    assert!(c.contains("shard 0 replica 0:"), "{c}");
    assert!(c.contains("shard 1 replica 1:"), "{c}");

    let stats = ir2(&dir, &["stats", "--db", "db"]);
    assert!(stats.status.success());
    assert!(stdout(&stats).contains("replicas:           2"));

    // Plain and hedged queries agree.
    let plain = ir2(
        &dir,
        &[
            "query",
            "--db",
            "db",
            "--at",
            "0,0",
            "--keywords",
            "ba",
            "--k",
            "3",
        ],
    );
    assert!(plain.status.success());
    let hedged = ir2(
        &dir,
        &[
            "query",
            "--db",
            "db",
            "--at",
            "0,0",
            "--keywords",
            "ba",
            "--k",
            "3",
            "--hedge-ms",
            "50",
        ],
    );
    assert!(
        hedged.status.success(),
        "{}",
        String::from_utf8_lossy(&hedged.stderr)
    );
    let result_lines = |s: &str| -> Vec<String> {
        s.lines()
            .filter(|l| l.trim_start().starts_with('#'))
            .map(str::to_owned)
            .collect()
    };
    assert_eq!(
        result_lines(&stdout(&plain)),
        result_lines(&stdout(&hedged))
    );

    // Hedging is incompatible with execution limits.
    let conflict = ir2(
        &dir,
        &[
            "query",
            "--db",
            "db",
            "--at",
            "0,0",
            "--keywords",
            "ba",
            "--hedge-ms",
            "50",
            "--io-budget",
            "100",
        ],
    );
    assert!(!conflict.status.success());

    std::fs::write(
        dir.join("q.txt"),
        "0,0 ba\n5,5 ce\n-10,10 ba ce\n20,-30 da\n3,3 ba bo\n",
    )
    .unwrap();

    // The cache override cannot reach the shards: refused by name, not
    // silently dropped.
    for command in [
        &["query", "--at", "0,0", "--keywords", "ba"][..],
        &["batch", "--queries", "q.txt"],
    ] {
        let out = ir2(
            &dir,
            &[command, &["--db", "db", "--node-cache", "4"]].concat(),
        );
        assert!(!out.status.success(), "{command:?}");
        let err = String::from_utf8_lossy(&out.stderr).into_owned();
        assert!(err.contains("--node-cache cannot override"), "{err}");
    }

    // A hedged batch runs on the batch engine like any other: the
    // per-query lines do not depend on the worker count.
    let hedged_batch = |threads: &str| {
        let out = ir2(
            &dir,
            &[
                "batch",
                "--db",
                "db",
                "--queries",
                "q.txt",
                "--k",
                "3",
                "--hedge-ms",
                "0",
                "--threads",
                threads,
            ],
        );
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        // Which replica's reads a raced drain is charged depends on the
        // race; the answers do not.
        stdout(&out)
            .lines()
            .filter(|l| l.starts_with("  [") && l.contains(" hits ("))
            .map(|l| l.split("; ").next().unwrap().to_owned())
            .collect::<Vec<_>>()
    };
    let one = hedged_batch("1");
    assert_eq!(one.len(), 5, "{one:?}");
    assert_eq!(one, hedged_batch("4"));

    // Area queries are answered on a sharded directory, and equal the
    // monolithic answer.
    let mono = ir2(
        &dir,
        &[
            "build",
            "--tsv",
            "pois.tsv",
            "--db",
            "mono",
            "--sig-bytes",
            "8",
        ],
    );
    assert!(mono.status.success());
    let area = |db: &str, extra: &[&str]| {
        let mut args = vec![
            "query",
            "--db",
            db,
            "--area",
            "-5,-5,5,5",
            "--keywords",
            "ba",
            "--k",
            "6",
        ];
        args.extend(extra);
        let out = ir2(&dir, &args);
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let text = stdout(&out);
        assert!(text.contains("in/near area"), "{text}");
        result_lines(&text)
    };
    let expect = area("mono", &[]);
    assert_eq!(expect.len(), 6);
    assert_eq!(expect, area("db", &[]));
    assert_eq!(expect, area("db", &["--alg", "mir2", "--threads", "3"]));
    assert_eq!(expect, area("db", &["--hedge-ms", "0"]));

    // A fresh build scrubs clean.
    let scrub = ir2(&dir, &["scrub", "--db", "db"]);
    assert!(
        scrub.status.success(),
        "{}",
        String::from_utf8_lossy(&scrub.stderr)
    );
    assert!(stdout(&scrub).contains("clean"));

    // Corrupt one page of one replica: scrub detects it (nonzero exit),
    // --repair fixes it, and the directory checks clean again.
    let victim = dir.join("db/shard-001/replica-1/objects.blocks");
    let mut bytes = std::fs::read(&victim).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xff;
    std::fs::write(&victim, &bytes).unwrap();

    let dirty = ir2(&dir, &["scrub", "--db", "db"]);
    assert!(!dirty.status.success());
    assert!(stdout(&dirty).contains("diverges"), "{}", stdout(&dirty));

    let repair = ir2(&dir, &["scrub", "--db", "db", "--repair"]);
    assert!(
        repair.status.success(),
        "{}",
        String::from_utf8_lossy(&repair.stderr)
    );
    let r = stdout(&repair);
    assert!(r.contains("repaired"), "{r}");
    assert!(r.contains("verified clean"), "{r}");

    let recheck = ir2(&dir, &["check", "--db", "db"]);
    assert!(
        recheck.status.success(),
        "{}",
        String::from_utf8_lossy(&recheck.stderr)
    );

    // Queries survive an entire replica directory being deleted (failover),
    // but check reports the hole with a nonzero exit.
    std::fs::remove_dir_all(dir.join("db/shard-000/replica-0")).unwrap();
    let after_loss = ir2(
        &dir,
        &[
            "query",
            "--db",
            "db",
            "--at",
            "0,0",
            "--keywords",
            "ba",
            "--k",
            "3",
        ],
    );
    assert!(
        after_loss.status.success(),
        "{}",
        String::from_utf8_lossy(&after_loss.stderr)
    );
    assert_eq!(
        result_lines(&stdout(&plain)),
        result_lines(&stdout(&after_loss))
    );
    let holed = ir2(&dir, &["check", "--db", "db"]);
    assert!(!holed.status.success());
    assert!(stdout(&holed).contains("MISSING"), "{}", stdout(&holed));

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn replica_flag_validation() {
    let dir = workdir("replica-flags");
    std::fs::write(dir.join("one.tsv"), "1\t0\t0\tcafe\n").unwrap();
    // --replicas 0 is rejected.
    let zero = ir2(
        &dir,
        &[
            "build",
            "--tsv",
            "one.tsv",
            "--db",
            "db0",
            "--shards",
            "2",
            "--replicas",
            "0",
        ],
    );
    assert!(!zero.status.success());
    assert!(String::from_utf8_lossy(&zero.stderr).contains("at least 1"));
    // --replicas without sharding is rejected.
    let unsharded = ir2(
        &dir,
        &[
            "build",
            "--tsv",
            "one.tsv",
            "--db",
            "db1",
            "--replicas",
            "2",
        ],
    );
    assert!(!unsharded.status.success());
    assert!(String::from_utf8_lossy(&unsharded.stderr).contains("sharded"));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn helpful_errors() {
    let dir = workdir("errors");
    // Unknown command.
    let bad = ir2(&dir, &["frobnicate"]);
    assert!(!bad.status.success());
    assert!(String::from_utf8_lossy(&bad.stderr).contains("unknown command"));

    // Missing required flag.
    let q = ir2(&dir, &["query", "--at", "0,0", "--keywords", "x"]);
    assert!(!q.status.success());
    assert!(String::from_utf8_lossy(&q.stderr).contains("--db"));

    // Nonexistent database directory.
    let q = ir2(&dir, &["stats", "--db", "nope"]);
    assert!(!q.status.success());

    // A flag the command does not know — misspelt, or retired like
    // `--prefetch` — is refused by name before any file is opened (none
    // of these paths exists).
    for command in [
        &["build", "--tsv", "nope.tsv", "--db", "nope"][..],
        &["query", "--db", "nope", "--at", "0,0", "--keywords", "x"],
        &["batch", "--db", "nope", "--queries", "nope.txt"],
    ] {
        for (flag, value) in [("--kk", "5"), ("--prefetch", "2")] {
            let out = ir2(&dir, &[command, &[flag, value]].concat());
            assert!(!out.status.success(), "{command:?} {flag}");
            let err = String::from_utf8_lossy(&out.stderr).into_owned();
            let want = format!("error: unknown flag {flag} for `ir2 {}`", command[0]);
            assert_eq!(err.trim_end(), want);
        }
    }
    assert!(
        !dir.join("nope").exists(),
        "build must not create the directory"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// `--capacity` outside `4..=65535` is an error message and a failed exit,
/// not a panic (below 4) or a tree whose nodes lose entries (above).
#[test]
fn build_refuses_a_capacity_a_node_cannot_hold() {
    let dir = workdir("capacity");
    std::fs::write(dir.join("pois.tsv"), "1\t0.5\t0.5\tcoffee wifi\n").unwrap();
    for capacity in ["3", "70000"] {
        let out = ir2(
            &dir,
            &[
                "build",
                "--tsv",
                "pois.tsv",
                "--db",
                "db",
                "--capacity",
                capacity,
            ],
        );
        assert!(!out.status.success(), "--capacity {capacity}");
        let err = String::from_utf8_lossy(&out.stderr).into_owned();
        assert!(
            err.starts_with("error: ")
                && err.contains(&format!("node capacity {capacity} is outside 4..=65535")),
            "--capacity {capacity}: {err}"
        );
        assert!(!err.contains("panicked"), "{err}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn help_prints_usage() {
    let dir = workdir("help");
    let h = ir2(&dir, &["help"]);
    assert!(h.status.success());
    assert!(stdout(&h).contains("USAGE"));
    std::fs::remove_dir_all(&dir).unwrap();
}
