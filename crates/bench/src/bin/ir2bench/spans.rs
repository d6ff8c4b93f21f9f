//! In-memory spans around the benchmark's own calls into each layer.
//!
//! A span is (name, start, end, parent, query id). Spans are kept in memory
//! and written out when the run ends. A layer's self time is its span's
//! duration minus the part of that interval its child spans cover, so a
//! parent that only wraps children (a replayed query, a piecewise insert)
//! is left with the glue between them.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use crate::json::quote;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Index of the enclosing span in the log.
    pub parent: Option<usize>,
    /// Shared by every span of one operation.
    pub query: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct SpanLog {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl SpanLog {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; [`close`](Self::close) it with the returned index.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, query: u64) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent,
            query,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        query: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, query);
        let out = f();
        self.close(id);
        out
    }

    /// Ascending durations of the spans called `name` recorded from index
    /// `from` on.
    pub fn durations(&self, from: usize, name: &str) -> Vec<u64> {
        let mut d: Vec<u64> = self.spans[from..]
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .collect();
        d.sort_unstable();
        d
    }

    /// Total self time per span name, in nanoseconds.
    pub fn self_ns_by_name(&self) -> BTreeMap<&'static str, u64> {
        let mut out = BTreeMap::new();
        for (span, self_ns) in self.spans.iter().zip(self_times(&self.spans)) {
            *out.entry(span.name).or_insert(0) += self_ns;
        }
        out
    }

    /// One JSON object per line, in recording order; `id` is the line
    /// index `parent` refers to.
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {id}, \"parent\": {parent}, \"query\": {}, \"name\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
                s.query,
                quote(s.name),
                s.start_ns,
                s.end_ns
            )?;
        }
        Ok(())
    }

    pub fn write_file(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        self.write_jsonl(&mut out)?;
        out.flush()
    }
}

/// Self time of every span: its duration minus the union of its direct
/// children's intervals, clipped to its own.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (lo, hi) = (spans[p].start_ns, spans[p].end_ns);
            let (start, end) = (s.start_ns.clamp(lo, hi), s.end_ns.clamp(lo, hi));
            if end > start {
                children[p].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: "t",
            parent,
            query: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_child_intervals() {
        let spans = [
            span(None, 0, 100),     // parent
            span(Some(0), 10, 30),  // child
            span(Some(0), 20, 50),  // overlaps the first child: union is 10..50
            span(Some(0), 90, 120), // sticks out: clipped to 90..100
            span(Some(1), 12, 18),  // grandchild counts against its own parent only
            span(None, 200, 260),   // childless: self time is the duration
        ];
        assert_eq!(self_times(&spans), [50, 14, 30, 30, 6, 60]);
    }

    #[test]
    fn log_records_nesting_and_writes_one_line_per_span() {
        let mut log = SpanLog::new();
        let q = log.open("query", None, 7);
        let inner = log.time("layer", Some(q), 7, || 41 + 1);
        log.close(q);
        assert_eq!(inner, 42);
        assert_eq!(log.spans[1].parent, Some(0));
        assert!(log.spans[0].end_ns >= log.spans[1].end_ns);
        let by_name = log.self_ns_by_name();
        let total = log.spans[0].end_ns - log.spans[0].start_ns;
        assert_eq!(by_name["query"] + by_name["layer"], total);

        let mut buf = Vec::new();
        log.write_jsonl(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.lines().count(), 2);
        let first = crate::json::parse(text.lines().next().unwrap()).unwrap();
        assert_eq!(first.get("name").unwrap().as_str(), Some("query"));
        assert_eq!(first.get("query").unwrap().as_f64(), Some(7.0));
    }
}
