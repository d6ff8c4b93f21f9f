//! Minimal flag parsing (no external dependencies, like the rest of the
//! workspace).

use std::collections::HashMap;

/// Top-level usage text.
pub const USAGE: &str = "\
ir2 — keyword search on spatial databases (IR²-Tree, ICDE 2008)

USAGE:
  ir2 generate --preset <hotels|restaurants> [--count N] [--seed S] --out FILE.tsv
  ir2 build    --tsv FILE.tsv --db DIR [--sig-bytes N] [--capacity N] [--incremental]
               [--seed S] [--node-cache NODES] [--shards N] [--replicas R]
  ir2 query    --db DIR --at LAT,LON --keywords \"w1 w2 …\" [--k N]
               [--alg <rtree|iio|ir2|mir2>] [--area LAT1,LON1,LAT2,LON2]
               [--deadline-ms MS] [--io-budget BLOCKS] [--threads N]
               [--node-cache NODES] [--hedge-ms MS]
  ir2 batch    --db DIR --queries FILE [--threads N] [--k N]
               [--alg <rtree|iio|ir2|mir2>] [--deadline-ms MS] [--io-budget BLOCKS]
               [--node-cache NODES] [--hedge-ms MS]
  ir2 ranked   --db DIR --at LAT,LON --keywords \"w1 w2 …\" [--k N] [--dist-weight W]
               [--node-cache NODES]
  ir2 trace    --db DIR --at LAT,LON --keywords \"w1 w2 …\" [--k N]
               [--alg <rtree|iio|ir2|mir2>] [--steps N] [--node-cache NODES]
  ir2 stats    --db DIR [--prometheus]
  ir2 check    --db DIR
  ir2 scrub    --db DIR [--repair]
  ir2 fuzz     [--seed S] [--iters N] [--start-iter I] [--objects N] [--queries N]
               [--inject-bug] [--no-minimize]

Databases are directories of 4096-byte block-device files; every query
reports its (simulated) disk I/O alongside the results. A batch query
file holds one `LAT,LON keywords…` query per line (# comments allowed);
the batch runs concurrently with exact per-query I/O attribution and
per-query fault isolation. A flag a command does not list above is an
error, never ignored. `--deadline-ms` (batch-wide) and
`--io-budget` (per query) bound execution: a query that trips a limit
is truncated, not failed — its results are the exact top-m prefix of
the full answer. `--node-cache` keeps up to NODES decoded tree nodes
per index (warm queries skip checksum + decode work; at build time the
setting is persisted, at query time it overrides for that process) —
results are byte-identical either way.

`ir2 build --shards N` tiles the objects spatially (STR order) into N
fully independent shards under one directory; query, batch, stats, and
check detect a sharded directory automatically and answer through an
exact scatter-gather merge — results are identical to a single-shard
build. On a sharded database, `ir2 query --threads N` drains shards
with up to N parallel workers.

`--replicas R` (with `--shards`) stores R byte-verified copies of every
shard. Queries route to a healthy replica per shard, fail over
automatically (re-issuing the bounded pull against the next replica
with the surviving deadline/io-budget slice — results stay exact), and
with `--hedge-ms T` fire a second replica for any shard pull still
running after T ms, taking whichever answer lands first. `ir2 scrub`
walks every replica diffing pages against a healthy reference replica
(highest catalog epoch) and, with `--repair`, re-copies divergent
files from the reference and re-verifies them.

`ir2 fuzz` runs the differential oracle harness: seeded random
datasets, insert/delete streams, and queries are answered by every
engine variant (all four algorithms — cold, warm-cached,
fault-injected, incrementally mutated — plus 1/2/4-way sharding, the
uniform grid, and the flat signature file) and compared byte-for-byte
against a brute-force reference, along with metamorphic invariants
(k vs k+1 prefixes, truncated-prefix under budgets, counter
conservation, delete+reinsert idempotence). A divergence is shrunk to
minimal reproducing caps and printed with a one-line repro command;
the exit status is non-zero. `--inject-bug` deliberately corrupts one
engine's answers to prove the harness and the repro round trip work.";

/// Parsed `--flag value` pairs.
#[derive(Debug)]
pub struct Flags {
    values: HashMap<String, String>,
    switches: Vec<String>,
}

impl Flags {
    /// Parses the arguments of `ir2 <cmd>`: `--key value` for every key in
    /// `flags`, bare `--switch` for every key in `switches` (both
    /// space-separated lists). Anything else is an error, so a misspelt or
    /// retired flag is refused, not ignored.
    pub fn parse(cmd: &str, args: &[String], flags: &str, switches: &str) -> Result<Self, String> {
        let listed = |list: &str, key: &str| list.split_whitespace().any(|k| k == key);
        let mut values = HashMap::new();
        let mut given = Vec::new();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let Some(key) = arg.strip_prefix("--") else {
                return Err(format!("unexpected positional argument `{arg}`"));
            };
            if listed(switches, key) {
                given.push(key.to_owned());
            } else if listed(flags, key) {
                match it.next() {
                    Some(v) if !v.starts_with("--") => values.insert(key.to_owned(), v.clone()),
                    _ => return Err(format!("flag --{key} needs a value")),
                };
            } else {
                return Err(format!("unknown flag --{key} for `ir2 {cmd}`"));
            }
        }
        Ok(Self {
            values,
            switches: given,
        })
    }

    /// A required string flag.
    pub fn required(&self, key: &str) -> Result<&str, String> {
        self.values
            .get(key)
            .map(String::as_str)
            .ok_or_else(|| format!("missing required flag --{key}"))
    }

    /// An optional string flag.
    pub fn optional(&self, key: &str) -> Option<&str> {
        self.values.get(key).map(String::as_str)
    }

    /// An optional parsed flag with a default.
    pub fn get_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String>
    where
        T::Err: std::fmt::Display,
    {
        match self.values.get(key) {
            Some(v) => v.parse().map_err(|e| format!("bad --{key}: {e}")),
            None => Ok(default),
        }
    }

    /// True if the bare switch was given.
    pub fn switch(&self, key: &str) -> bool {
        self.switches.iter().any(|s| s == key)
    }
}

/// Parses "lat,lon" into a coordinate pair.
pub fn parse_point(s: &str) -> Result<[f64; 2], String> {
    let parts: Vec<&str> = s.split(',').collect();
    if parts.len() != 2 {
        return Err(format!("expected LAT,LON, got `{s}`"));
    }
    let lat = parts[0]
        .trim()
        .parse()
        .map_err(|e| format!("bad latitude: {e}"))?;
    let lon = parts[1]
        .trim()
        .parse()
        .map_err(|e| format!("bad longitude: {e}"))?;
    Ok([lat, lon])
}

/// Parses "lat1,lon1,lat2,lon2" into rectangle corners.
pub fn parse_area(s: &str) -> Result<([f64; 2], [f64; 2]), String> {
    let parts: Vec<&str> = s.split(',').collect();
    if parts.len() != 4 {
        return Err(format!("expected LAT1,LON1,LAT2,LON2, got `{s}`"));
    }
    let mut v = [0.0f64; 4];
    for (slot, p) in v.iter_mut().zip(&parts) {
        *slot = p
            .trim()
            .parse()
            .map_err(|e| format!("bad coordinate: {e}"))?;
    }
    Ok(([v[0], v[1]], [v[2], v[3]]))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &[&str]) -> Vec<String> {
        s.iter().map(|s| s.to_string()).collect()
    }

    fn parse(s: &[&str]) -> Result<Flags, String> {
        Flags::parse("build", &args(s), "db k", "incremental")
    }

    #[test]
    fn parses_values_and_switches() {
        let f = parse(&["--db", "dir", "--k", "5", "--incremental"]).unwrap();
        assert_eq!(f.required("db").unwrap(), "dir");
        assert_eq!(f.get_or("k", 10usize).unwrap(), 5);
        assert!(f.switch("incremental"));
        assert!(!f.switch("verbose"));
        assert!(f.required("missing").is_err());
        assert_eq!(f.get_or("absent", 7u32).unwrap(), 7);
    }

    #[test]
    fn rejects_positional_args() {
        assert!(parse(&["stray"]).is_err());
        assert!(parse(&["--incremental", "stray"]).is_err());
    }

    #[test]
    fn rejects_unknown_flags_and_missing_values() {
        let err = parse(&["--db", "dir", "--kk", "5"]).unwrap_err();
        assert_eq!(err, "unknown flag --kk for `ir2 build`");
        assert_eq!(
            parse(&["--k", "--incremental"]).unwrap_err(),
            "flag --k needs a value"
        );
        assert_eq!(parse(&["--db"]).unwrap_err(), "flag --db needs a value");
    }

    #[test]
    fn point_and_area_parsing() {
        assert_eq!(parse_point("25.7, -80.1").unwrap(), [25.7, -80.1]);
        assert!(parse_point("1,2,3").is_err());
        assert!(parse_point("abc,1").is_err());
        let (lo, hi) = parse_area("1,2,3,4").unwrap();
        assert_eq!((lo, hi), ([1.0, 2.0], [3.0, 4.0]));
        assert!(parse_area("1,2,3").is_err());
    }
}
