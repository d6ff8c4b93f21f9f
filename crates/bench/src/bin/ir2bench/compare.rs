//! `--compare A.jsonl B.jsonl`: do two sets of runs agree?
//!
//! Each file holds one result record per line (what `--out` appends). Per
//! (workload, end-to-end metric) the medians are compared under the bound
//! `BENCHMARK.json` fixes for the metric:
//!
//! * `regress` — B's median is worse than A's by more than the bound;
//! * `unresolved` — the run-to-run spread (interquartile range over median,
//!   on either side) is wider than the bound, so neither "regressed" nor
//!   "unchanged" can be claimed — unless every run of B reads better than
//!   every run of A;
//! * `pass` — otherwise.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;

use crate::json::{self, Value};
use crate::spec::{MetricDef, Spec};
use crate::stats::{median, spread};

/// workload → metric → values, one per run, untraced runs only.
type Runs = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

fn load(path: &Path) -> Result<Runs, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut runs = Runs::new();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let rec = json::parse(line).map_err(|e| format!("{}:{}: {e}", path.display(), n + 1))?;
        if rec.get("trace").and_then(Value::as_f64) != Some(0.0) {
            continue;
        }
        let workload = rec
            .get("workload")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("{}:{}: no workload", path.display(), n + 1))?;
        let by_metric = runs.entry(workload.to_string()).or_default();
        for (name, m) in rec.get("metrics").map(Value::fields).unwrap_or_default() {
            if let Some(v) = m.get("value").and_then(Value::as_f64) {
                by_metric.entry(name.clone()).or_default().push(v);
            }
        }
    }
    Ok(runs)
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Verdict {
    Pass,
    Regress,
    Unresolved,
}

/// Judges one metric on one workload. Returns the verdict, how much worse
/// B's median is as a share of A's (negative: better), and the wider of
/// the two spreads.
pub fn judge(def: &MetricDef, a: &[f64], b: &[f64]) -> (Verdict, f64, f64) {
    let bound = def.bound.unwrap_or(0.0);
    let (med_a, med_b) = (median(a), median(b));
    let change = if med_a == 0.0 {
        0.0
    } else {
        (med_b - med_a) / med_a.abs()
    };
    let worse_by = if def.lower_is_better { change } else { -change };
    let wide = spread(a).max(spread(b));
    let b_always_better = a.iter().all(|&x| {
        b.iter()
            .all(|&y| if def.lower_is_better { y < x } else { y > x })
    });
    let verdict = if wide > bound && !b_always_better {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Regress
    } else {
        Verdict::Pass
    };
    (verdict, worse_by, wide)
}

pub fn run(spec: &Spec, a: &Path, b: &Path) -> ExitCode {
    let (runs_a, runs_b) = match (load(a), load(b)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("ir2bench: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "{:<20} {:<24} {:>14} {:>14} {:>9} {:>8} {:>6}  verdict",
        "workload", "metric", "A median", "B median", "worse by", "spread", "bound"
    );
    let mut regressed = 0;
    let mut compared = 0;
    for (workload, _) in &spec.workloads {
        for def in &spec.end_to_end {
            let values = |runs: &Runs| runs.get(workload).and_then(|m| m.get(&def.name)).cloned();
            let (Some(va), Some(vb)) = (values(&runs_a), values(&runs_b)) else {
                println!("{workload:<20} {:<24} missing on one side", def.name);
                continue;
            };
            let (verdict, worse_by, wide) = judge(def, &va, &vb);
            compared += 1;
            regressed += usize::from(verdict == Verdict::Regress);
            println!(
                "{workload:<20} {:<24} {:>14.4} {:>14.4} {:>8.2}% {:>7.2}% {:>5.0}%  {} (n={}/{})",
                def.name,
                median(&va),
                median(&vb),
                worse_by * 100.0,
                wide * 100.0,
                def.bound.unwrap_or(0.0) * 100.0,
                match verdict {
                    Verdict::Pass => "pass",
                    Verdict::Regress => "REGRESS",
                    Verdict::Unresolved => "unresolved",
                },
                va.len(),
                vb.len(),
            );
        }
    }
    println!("{compared} compared, {regressed} regressed");
    if regressed > 0 || compared == 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn def(lower_is_better: bool) -> MetricDef {
        MetricDef {
            name: "m".into(),
            unit: "ms".into(),
            lower_is_better,
            bound: Some(0.10),
        }
    }

    #[test]
    fn verdicts_follow_bound_direction_and_spread() {
        let steady = [10.0, 10.1, 9.9, 10.0, 10.05];
        let slower = [12.0, 12.1, 11.9, 12.0, 12.05];
        let noisy = [6.0, 14.0, 10.0, 8.0, 12.0];
        // +20% latency against a 10% bound.
        assert_eq!(judge(&def(true), &steady, &slower).0, Verdict::Regress);
        // The same numbers as a throughput are a gain.
        assert_eq!(judge(&def(false), &steady, &slower).0, Verdict::Pass);
        assert_eq!(judge(&def(false), &slower, &steady).0, Verdict::Regress);
        // Within the bound.
        let (v, worse_by, _) = judge(&def(true), &steady, &[10.5, 10.4, 10.6]);
        assert_eq!(v, Verdict::Pass);
        assert!((worse_by - 0.05).abs() < 1e-9);
        // Spread wider than the bound: no claim either way …
        assert_eq!(judge(&def(true), &steady, &noisy).0, Verdict::Unresolved);
        // … unless every run of B beats every run of A.
        assert_eq!(
            judge(&def(true), &[20.0, 30.0, 25.0], &noisy).0,
            Verdict::Pass
        );
        // Single runs have no spread and compare by median alone.
        assert_eq!(judge(&def(true), &[10.0], &[10.0]).0, Verdict::Pass);
        assert_eq!(judge(&def(true), &[10.0], &[11.5]).0, Verdict::Regress);
    }
}
