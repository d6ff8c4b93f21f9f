//! The benchmark's contract, read from the repository's `BENCHMARK.json`
//! (compiled in, so there is one list of metric names, units, directions
//! and bounds, and `--compare` needs no path to it).

use crate::json::{self, Value};

const BENCHMARK_JSON: &str = include_str!("../../../../../BENCHMARK.json");

#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    pub name: String,
    pub unit: String,
    pub lower_is_better: bool,
    /// Share of the parent's median by which the metric may worsen.
    /// End-to-end metrics only.
    pub bound: Option<f64>,
}

#[derive(Debug, Clone)]
pub struct Spec {
    pub run_seconds: u64,
    /// (name, why)
    pub workloads: Vec<(String, String)>,
    pub end_to_end: Vec<MetricDef>,
    pub per_layer: Vec<MetricDef>,
}

fn text(v: &Value, key: &str) -> String {
    v.get(key)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("BENCHMARK.json: missing string {key:?}"))
        .to_string()
}

fn metrics(doc: &Value, key: &str) -> Vec<MetricDef> {
    doc.get(key)
        .map(Value::as_arr)
        .unwrap_or_default()
        .iter()
        .map(|m| MetricDef {
            name: text(m, "name"),
            unit: text(m, "unit"),
            lower_is_better: match text(m, "better").as_str() {
                "lower" => true,
                "higher" => false,
                other => panic!("BENCHMARK.json: better must be lower or higher, not {other:?}"),
            },
            bound: m.get("bound").and_then(Value::as_f64),
        })
        .collect()
}

impl Spec {
    pub fn load() -> Self {
        let doc = json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        Self {
            run_seconds: doc
                .get("run_seconds")
                .and_then(Value::as_f64)
                .expect("BENCHMARK.json: run_seconds") as u64,
            workloads: doc
                .get("workloads")
                .map(Value::as_arr)
                .unwrap_or_default()
                .iter()
                .map(|w| (text(w, "name"), text(w, "why")))
                .collect(),
            end_to_end: metrics(&doc, "end_to_end"),
            per_layer: metrics(&doc, "per_layer"),
        }
    }

    pub fn metrics(&self, trace: bool) -> &[MetricDef] {
        if trace {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn name_ok(name: &str) -> bool {
        (1..=64).contains(&name.len())
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_use_the_contract_charset_and_are_used_once() {
        let spec = Spec::load();
        let mut seen = HashSet::new();
        let names = spec
            .workloads
            .iter()
            .map(|w| &w.0)
            .chain(spec.end_to_end.iter().map(|m| &m.name))
            .chain(spec.per_layer.iter().map(|m| &m.name));
        for name in names {
            assert!(name_ok(name), "bad name {name:?}");
            assert!(seen.insert(name.clone()), "name {name:?} is used twice");
        }
        for m in spec.end_to_end.iter().chain(&spec.per_layer) {
            assert!(
                (1..=16).contains(&m.unit.len())
                    && m.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "bad unit {:?} on {}",
                m.unit,
                m.name
            );
        }
        assert!(!name_ok("bad name") && !name_ok("-x") && !name_ok(""));
    }

    #[test]
    fn contract_shape_holds() {
        let spec = Spec::load();
        assert!((1..=60).contains(&spec.run_seconds));
        assert!((2..=8).contains(&spec.workloads.len()));
        assert!((1..=16).contains(&spec.end_to_end.len()));
        assert!((1..=128).contains(&spec.per_layer.len()));
        for m in &spec.end_to_end {
            let bound = m.bound.unwrap_or_else(|| panic!("{} has no bound", m.name));
            assert!(bound > 0.0 && bound <= 0.25, "{} bound {bound}", m.name);
        }
        let setup = spec
            .end_to_end
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is an end-to-end metric");
        assert!(setup.unit == "s" && setup.lower_is_better);
        for (_, why) in &spec.workloads {
            assert!(why.len() <= 200 && !why.contains('\n'));
        }
        // The run budget: 4 + 22 per workload runs inside 3420 s.
        let runs = 4 + 22 * spec.workloads.len();
        assert!(runs as u64 * spec.run_seconds < 3420);
    }
}
