//! `ir2bench` — the repository's benchmark.
//!
//! Four full-scale workloads, end-to-end metrics with regression bounds,
//! and a traced run that replays each query layer by layer. The contract
//! (workloads, metric names, units, bounds) is `BENCHMARK.json` at the
//! repository root; `README.md` beside this file explains every name.
//!
//! ```text
//! ir2bench --workload <name|all> --seed <n> [--seconds <s>] [--trace <0|1>]
//!          [--scale <f>] [--out <file.jsonl>]
//! ir2bench --compare <a.jsonl> <b.jsonl>
//! ```
//!
//! The benchmark touches the program only through its public API.

mod compare;
mod inputs;
mod json;
mod layers;
mod reference;
mod spans;
mod spec;
mod stats;
mod workloads;

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use spec::Spec;
use workloads::{Plan, RunResult};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: f64,
    out: PathBuf,
}

const USAGE: &str = "usage: ir2bench --workload <name|all> --seed <n> [--seconds <s>] \
[--trace <0|1>] [--scale <f>] [--out <file.jsonl>]\n       ir2bench --compare <a.jsonl> <b.jsonl>";

/// Where run artifacts go: Cargo's target directory, which every checkout
/// ignores.
fn artifact_dir() -> PathBuf {
    PathBuf::from(std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into()))
        .join("ir2bench")
}

fn parse_args(argv: &[String], spec: &Spec) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: spec.run_seconds as f64,
        trace: false,
        scale: 1.0,
        out: artifact_dir().join("results.jsonl"),
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        let bad = |v: &String| format!("bad value {v:?} for {flag}\n{USAGE}");
        match flag.as_str() {
            "--workload" => args.workload = value()?.clone(),
            "--seed" => args.seed = value().and_then(|v| v.parse().map_err(|_| bad(v)))?,
            "--seconds" => args.seconds = value().and_then(|v| v.parse().map_err(|_| bad(v)))?,
            "--scale" => args.scale = value().and_then(|v| v.parse().map_err(|_| bad(v)))?,
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1\n{USAGE}")),
                }
            }
            "--out" => args.out = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    if args.workload.is_empty() {
        return Err(format!("--workload is required\n{USAGE}"));
    }
    let in_range = |v: f64, max: f64| v > 0.0 && v <= max; // NaN is out
    if !in_range(args.seconds, 600.0) || !in_range(args.scale, 1.0) {
        return Err(format!(
            "--seconds must be in (0, 600] and --scale in (0, 1]\n{USAGE}"
        ));
    }
    Ok(args)
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or("unknown".into(), |s| s.trim().to_string())
}

/// What lets a noisy run be recognised and discarded rather than argued
/// about. Taken before the run starts.
fn provenance() -> Vec<(String, String)> {
    let load = std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into());
    vec![
        ("nproc".into(), workloads::host_cores().to_string()),
        ("loadavg_1m".into(), json::quote(&load)),
        (
            "rustc".into(),
            json::quote(&command_line("rustc", &["--version"])),
        ),
        (
            "git_commit".into(),
            json::quote(&command_line("git", &["rev-parse", "HEAD"])),
        ),
    ]
}

fn object(fields: &[(String, String)]) -> String {
    let items: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}: {v}", json::quote(k)))
        .collect();
    format!("{{{}}}", items.join(", "))
}

/// The metrics in contract order with their units; a metric the contract
/// names that the run did not produce is an error, not an omission.
fn contract_metrics(
    spec: &Spec,
    trace: bool,
    result: &RunResult,
    with_samples: bool,
) -> Result<String, String> {
    let mut fields = Vec::new();
    for def in spec.metrics(trace) {
        let m = result
            .metrics
            .iter()
            .find(|m| m.name == def.name)
            .ok_or_else(|| format!("the run produced no value for {}", def.name))?;
        let mut inner = vec![
            ("value".to_string(), json::num(m.value)),
            ("unit".to_string(), json::quote(&def.unit)),
        ];
        if with_samples {
            inner.push(("samples".to_string(), m.samples.to_string()));
        }
        fields.push((def.name.clone(), object(&inner)));
    }
    Ok(object(&fields))
}

fn run_one(spec: &Spec, args: &Args, name: &str) -> Result<(), String> {
    let plan = Plan::named(name)
        .ok_or_else(|| {
            format!(
                "unknown workload {name:?}; one of {:?} or all",
                workloads::WORKLOADS
            )
        })?
        .scaled(args.scale);
    let why = spec
        .workloads
        .iter()
        .find(|w| w.0 == name)
        .map_or("", |w| w.1.as_str());
    let provenance = provenance();
    println!(
        "== {name} (seed {}, {} s, trace {}) ==",
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("   {why}");
    println!(
        "   {} x{} | devices in memory: times are this sandbox's CPU cost, not a disk's | \
         IR2, k = {}, prefetch off, closed loop",
        plan.spec.name,
        args.scale,
        inputs::K
    );
    println!("   {}", object(&provenance));

    let mut result = if args.trace {
        let (mut result, spans) = layers::run_traced(&plan, args.seed, args.seconds)?;
        let path = artifact_dir().join(format!("{name}.spans.jsonl"));
        spans
            .write_file(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        let file = json::quote(&path.display().to_string());
        result.extra.push(("spans_file".into(), file));
        result
    } else {
        workloads::run_end_to_end(&plan, args.seed, args.seconds)?
    };
    result.extra.push(("seed".into(), args.seed.to_string()));

    for def in spec.metrics(args.trace) {
        if let Some(m) = result.metrics.iter().find(|m| m.name == def.name) {
            println!(
                "   {:<38} {:>16.4} {:<10} n={}",
                m.name, m.value, def.unit, m.samples
            );
        }
    }
    for (k, v) in &result.extra {
        println!("   . {k} = {v}");
    }
    let correct = result.failed == 0;
    println!(
        "   attempted {} failed {} fail_share {}",
        result.attempted,
        result.failed,
        result.failed as f64 / result.attempted.max(1) as f64
    );

    let record = object(&[
        ("workload".into(), json::quote(name)),
        ("seed".into(), args.seed.to_string()),
        ("seconds".into(), json::num(args.seconds)),
        ("trace".into(), u8::from(args.trace).to_string()),
        ("scale".into(), json::num(args.scale)),
        ("correct".into(), correct.to_string()),
        ("attempted".into(), result.attempted.to_string()),
        ("failed".into(), result.failed.to_string()),
        (
            "metrics".into(),
            contract_metrics(spec, args.trace, &result, true)?,
        ),
        ("raw".into(), object(&result.extra)),
        ("provenance".into(), object(&provenance)),
    ]);
    append_line(&args.out, &record)?;

    println!(
        "{}",
        object(&[
            ("correct".into(), correct.to_string()),
            ("attempted".into(), result.attempted.to_string()),
            ("failed".into(), result.failed.to_string()),
            (
                "metrics".into(),
                contract_metrics(spec, args.trace, &result, false)?
            ),
        ])
    );
    Ok(())
}

fn append_line(path: &std::path::Path, line: &str) -> Result<(), String> {
    use std::io::Write;
    let io = |e: std::io::Error| format!("{}: {e}", path.display());
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(io)?;
    }
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(io)?;
    writeln!(file, "{line}").map_err(io)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let spec = Spec::load();
    if argv.first().is_some_and(|a| a == "--compare") {
        return match argv.as_slice() {
            [_, a, b] => compare::run(&spec, a.as_ref(), b.as_ref()),
            _ => {
                eprintln!("{USAGE}");
                ExitCode::from(2)
            }
        };
    }
    let args = match parse_args(&argv, &spec) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    let names: Vec<&str> = if args.workload == "all" {
        workloads::WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    for name in names {
        // A run that completes exits 0 even with wrong answers: they are
        // in the result line's `correct` and `failed`, where the driver
        // reads them. Only a run that cannot report at all fails.
        if let Err(msg) = run_one(&spec, &args, name) {
            eprintln!("ir2bench: {msg}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_driver_command_line_and_rejects_nonsense() {
        let spec = Spec::load();
        let a = parse_args(
            &argv("--workload warm_hotels --seed 42 --seconds 3 --trace 1"),
            &spec,
        )
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("warm_hotels", 42, 3.0, true)
        );
        let d = parse_args(&argv("--workload all"), &spec).unwrap();
        assert_eq!(
            (d.seed, d.seconds, d.trace, d.scale),
            (1, spec.run_seconds as f64, false, 1.0)
        );
        for bad in [
            "",
            "--seed 1",
            "--workload x --trace 2",
            "--workload x --seed",
            "--workload x --seconds 0",
            "--workload x --scale 2",
            "--workload x --frobnicate 1",
        ] {
            assert!(
                parse_args(&argv(bad), &spec).is_err(),
                "{bad:?} must be rejected"
            );
        }
    }
}
