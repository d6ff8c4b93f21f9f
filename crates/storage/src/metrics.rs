//! Runtime metrics: lock-free counters, fixed-bucket histograms, and a
//! registry with snapshot/delta and Prometheus-style text export.
//!
//! The paper's whole evaluation is *counting* — random vs. sequential
//! block accesses, signature false positives, object loads.
//! [`IoStats`](crate::IoStats)
//! and [`IoScope`](crate::IoScope) already attribute block accesses;
//! [`MetricsRegistry`] generalizes that machinery so any layer (pool,
//! trees, query algorithms, batch engine) can publish named counters and
//! histograms through one export path.
//!
//! # Concurrency
//!
//! The hot path is lock free: [`Counter`] and [`Histogram`] are plain
//! relaxed atomics, and callers hold `Arc` handles obtained once at
//! registration, so recording never takes the registry lock. The registry
//! itself serializes only registration and enumeration (snapshot/export),
//! which are cold. Concurrent engines that want zero *cache-line*
//! contention on the hot path keep per-thread deltas (the
//! [`IoScope`](crate::IoScope) pattern) and fold them into the registry
//! after the concurrent phase with [`MetricsRegistry::add_counter`] /
//! [`Histogram::observe`].
//!
//! # No NaN / inf
//!
//! Every derived quantity (rates, means) goes through [`ratio`], which
//! maps `x/0` to `0.0`, so exported text never contains `NaN` or `inf` —
//! a guarantee the CI smoke test asserts on real output.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::IoSnapshot;

/// `num / den` as `f64`, defined as `0.0` when `den` is zero.
///
/// The single division guard used everywhere a rate or mean is derived
/// from counters (pool hit rates, signature match rates, per-access
/// costs): dividing by an empty denominator is always "no observations",
/// never `NaN`.
#[inline]
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// A monotonically increasing event count (relaxed atomic).
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// A fresh zero counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Upper bucket bounds used by [`Histogram::new`]: powers of two from 1 to
/// 2²⁰, a range that covers per-query block/object counts from trivial to
/// pathological with constant relative resolution.
pub const POW2_BUCKETS: usize = 21;

/// A fixed-bucket histogram of `u64` observations (relaxed atomics).
///
/// Buckets are cumulative-style on export (Prometheus `le` semantics) but
/// stored as disjoint counts; the highest bucket is unbounded. `sum` and
/// `count` are tracked exactly, so the mean is exact even though bucket
/// membership is quantized.
#[derive(Debug)]
pub struct Histogram {
    /// Inclusive upper bound of bucket `i`; the last bucket is `u64::MAX`.
    bounds: Box<[u64]>,
    buckets: Box<[AtomicU64]>,
    count: AtomicU64,
    sum: AtomicU64,
    /// Running maximum (exact; relaxed CAS loop).
    max: AtomicU64,
}

impl Histogram {
    /// A histogram with power-of-two bucket bounds `1, 2, 4, …, 2²⁰, ∞`.
    pub fn new() -> Self {
        let bounds: Vec<u64> = (0..POW2_BUCKETS as u32)
            .map(|i| 1u64 << i)
            .chain(std::iter::once(u64::MAX))
            .collect();
        Self::with_bounds(&bounds)
    }

    /// A histogram with explicit inclusive upper bounds (must be strictly
    /// increasing; a final `u64::MAX` bucket is appended if absent).
    ///
    /// # Panics
    /// Panics if `bounds` is empty or not strictly increasing.
    pub fn with_bounds(bounds: &[u64]) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bucket");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        let mut bounds = bounds.to_vec();
        if *bounds.last().expect("non-empty") != u64::MAX {
            bounds.push(u64::MAX);
        }
        Self {
            buckets: bounds.iter().map(|_| AtomicU64::new(0)).collect(),
            bounds: bounds.into_boxed_slice(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Records one observation.
    #[inline]
    pub fn observe(&self, value: u64) {
        let idx = self.bounds.partition_point(|&b| b < value);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Point-in-time summary of everything observed so far.
    pub fn summary(&self) -> HistogramSummary {
        HistogramSummary {
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
            buckets: self
                .bounds
                .iter()
                .zip(self.buckets.iter())
                .map(|(&le, c)| (le, c.load(Ordering::Relaxed)))
                .collect(),
        }
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

/// A point-in-time copy of a [`Histogram`]: per-bucket `(upper bound,
/// count)` pairs plus exact count/sum/max.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistogramSummary {
    /// Number of observations.
    pub count: u64,
    /// Sum of observations.
    pub sum: u64,
    /// Largest observation (0 when empty).
    pub max: u64,
    /// Disjoint bucket counts as `(inclusive upper bound, count)`; the
    /// last bound is `u64::MAX`.
    pub buckets: Vec<(u64, u64)>,
}

impl HistogramSummary {
    /// Exact mean observation, `0.0` when empty.
    pub fn mean(&self) -> f64 {
        ratio(self.sum, self.count)
    }

    /// The upper bound of the bucket containing quantile `q` (e.g. `0.5`,
    /// `0.9`) — a quantized upper estimate; `0` when empty.
    pub fn quantile_le(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64;
        let mut seen = 0u64;
        for &(le, n) in &self.buckets {
            seen += n;
            if seen >= target.max(1) {
                return le.min(self.max);
            }
        }
        self.max
    }

    /// Merges another summary into this one (bucket-wise; bounds must
    /// match, as they do for summaries taken from identically configured
    /// histograms).
    pub fn merge(&mut self, other: &HistogramSummary) {
        if self.buckets.is_empty() {
            self.buckets = other.buckets.clone();
        } else if !other.buckets.is_empty() {
            debug_assert_eq!(self.buckets.len(), other.buckets.len());
            for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
                a.1 += b.1;
            }
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }
}

/// One registered metric.
enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<AtomicU64>),
    Histogram(Arc<Histogram>),
}

/// A named value in a [`MetricsSnapshot`].
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// A counter's current value.
    Counter(u64),
    /// A gauge's current value.
    Gauge(f64),
    /// A histogram's current summary.
    Histogram(HistogramSummary),
}

/// A registry of named metrics with snapshot/delta and text export.
///
/// Metric names may carry Prometheus-style labels inline, e.g.
/// `queries_total{alg="ir2"}` — the exporter groups `# TYPE` declarations
/// by base name.
#[derive(Default)]
pub struct MetricsRegistry {
    metrics: Mutex<BTreeMap<String, Metric>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The counter named `name`, registering it on first use. The returned
    /// handle records without touching the registry lock.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut m = self.metrics.lock();
        match m
            .entry(name.to_owned())
            .or_insert_with(|| Metric::Counter(Arc::new(Counter::new())))
        {
            Metric::Counter(c) => Arc::clone(c),
            _ => panic!("metric `{name}` is not a counter"),
        }
    }

    /// Adds `n` to the counter named `name` (registering it on first use).
    /// Convenience for cold paths; hot paths should hold the handle.
    pub fn add_counter(&self, name: &str, n: u64) {
        self.counter(name).add(n);
    }

    /// The histogram named `name` (power-of-two buckets), registering it
    /// on first use.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut m = self.metrics.lock();
        match m
            .entry(name.to_owned())
            .or_insert_with(|| Metric::Histogram(Arc::new(Histogram::new())))
        {
            Metric::Histogram(h) => Arc::clone(h),
            _ => panic!("metric `{name}` is not a histogram"),
        }
    }

    /// Sets the gauge named `name` (registering it on first use). Non-finite
    /// values are clamped to `0.0` — the registry never stores `NaN`/`inf`.
    pub fn set_gauge(&self, name: &str, value: f64) {
        let clean = if value.is_finite() { value } else { 0.0 };
        let mut m = self.metrics.lock();
        match m
            .entry(name.to_owned())
            .or_insert_with(|| Metric::Gauge(Arc::new(AtomicU64::new(0))))
        {
            Metric::Gauge(g) => g.store(clean.to_bits(), Ordering::Relaxed),
            _ => panic!("metric `{name}` is not a gauge"),
        }
    }

    /// Publishes an [`IoSnapshot`] delta as four counters
    /// `io_{random,sequential}_{reads,writes}_total` suffixed with
    /// `labels` (e.g. `{dev="ir2"}`) — the bridge from the existing
    /// [`IoStats`](crate::IoStats)/[`IoScope`](crate::IoScope) accounting
    /// into the registry.
    pub fn observe_io(&self, labels: &str, delta: IoSnapshot) {
        for (name, v) in [
            ("io_random_reads_total", delta.random_reads),
            ("io_sequential_reads_total", delta.seq_reads),
            ("io_random_writes_total", delta.random_writes),
            ("io_sequential_writes_total", delta.seq_writes),
        ] {
            if v > 0 {
                self.add_counter(&format!("{name}{labels}"), v);
            }
        }
    }

    /// A point-in-time copy of every registered metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let m = self.metrics.lock();
        MetricsSnapshot {
            values: m
                .iter()
                .map(|(name, metric)| {
                    let v = match metric {
                        Metric::Counter(c) => MetricValue::Counter(c.get()),
                        Metric::Gauge(g) => {
                            MetricValue::Gauge(f64::from_bits(g.load(Ordering::Relaxed)))
                        }
                        Metric::Histogram(h) => MetricValue::Histogram(h.summary()),
                    };
                    (name.clone(), v)
                })
                .collect(),
        }
    }

    /// Prometheus-style text exposition of every registered metric.
    /// Floating-point values are rendered through a finiteness guard, so
    /// the output never contains `NaN` or `inf`.
    pub fn export_prometheus(&self) -> String {
        self.snapshot().to_prometheus()
    }
}

/// A point-in-time copy of a whole [`MetricsRegistry`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Name → value, sorted by name.
    pub values: BTreeMap<String, MetricValue>,
}

/// `name{labels}` → `name` (the Prometheus metric family).
fn base_name(name: &str) -> &str {
    name.split('{').next().unwrap_or(name)
}

/// Renders an `f64` defensively: non-finite values become `0`.
fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

impl MetricsSnapshot {
    /// The delta `self - earlier` for counters and histograms (gauges keep
    /// their current value; metrics absent from `earlier` keep theirs).
    pub fn delta(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        let values = self
            .values
            .iter()
            .map(|(name, v)| {
                let d = match (v, earlier.values.get(name)) {
                    (MetricValue::Counter(now), Some(MetricValue::Counter(then))) => {
                        MetricValue::Counter(now.saturating_sub(*then))
                    }
                    (MetricValue::Histogram(now), Some(MetricValue::Histogram(then))) => {
                        let buckets = now
                            .buckets
                            .iter()
                            .zip(then.buckets.iter().chain(std::iter::repeat(&(0, 0))))
                            .map(|(a, b)| (a.0, a.1.saturating_sub(b.1)))
                            .collect();
                        MetricValue::Histogram(HistogramSummary {
                            count: now.count.saturating_sub(then.count),
                            sum: now.sum.saturating_sub(then.sum),
                            max: now.max,
                            buckets,
                        })
                    }
                    (v, _) => v.clone(),
                };
                (name.clone(), d)
            })
            .collect();
        MetricsSnapshot { values }
    }

    /// The counter named `name`, or 0.
    pub fn counter(&self, name: &str) -> u64 {
        match self.values.get(name) {
            Some(MetricValue::Counter(v)) => *v,
            _ => 0,
        }
    }

    /// Prometheus-style text exposition (see
    /// [`MetricsRegistry::export_prometheus`]).
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        let mut last_family = "";
        for (name, value) in &self.values {
            let family = base_name(name);
            let (type_str, lines) = match value {
                MetricValue::Counter(v) => ("counter", vec![format!("{name} {v}")]),
                MetricValue::Gauge(v) => ("gauge", vec![format!("{name} {}", fmt_f64(*v))]),
                MetricValue::Histogram(h) => {
                    let (stem, labels) = match name.find('{') {
                        Some(i) => {
                            let inner = name[i..].trim_start_matches('{').trim_end_matches('}');
                            (&name[..i], format!("{inner},"))
                        }
                        None => (name.as_str(), String::new()),
                    };
                    let bare = labels.trim_end_matches(',');
                    let suffix = if bare.is_empty() {
                        String::new()
                    } else {
                        format!("{{{bare}}}")
                    };
                    let mut lines = Vec::with_capacity(h.buckets.len() + 2);
                    let mut cum = 0u64;
                    for &(le, n) in &h.buckets {
                        cum += n;
                        let le = if le == u64::MAX {
                            "+Inf".to_owned()
                        } else {
                            le.to_string()
                        };
                        lines.push(format!("{stem}_bucket{{{labels}le=\"{le}\"}} {cum}"));
                    }
                    lines.push(format!("{stem}_sum{suffix} {}", h.sum));
                    lines.push(format!("{stem}_count{suffix} {}", h.count));
                    ("histogram", lines)
                }
            };
            if family != last_family {
                out.push_str(&format!("# TYPE {family} {type_str}\n"));
                last_family = family;
            }
            for l in lines {
                out.push_str(&l);
                out.push('\n');
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_guards_zero_denominator() {
        assert_eq!(ratio(5, 0), 0.0);
        assert_eq!(ratio(0, 0), 0.0);
        assert_eq!(ratio(3, 4), 0.75);
        assert!(ratio(u64::MAX, 1).is_finite());
    }

    #[test]
    fn counters_accumulate_concurrently() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("events_total");
        std::thread::scope(|s| {
            for _ in 0..4 {
                let c = Arc::clone(&c);
                s.spawn(move || {
                    for _ in 0..1000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.get(), 4000);
        assert_eq!(reg.counter("events_total").get(), 4000, "same handle");
        assert_eq!(reg.snapshot().counter("events_total"), 4000);
    }

    #[test]
    fn histogram_buckets_and_summary() {
        let h = Histogram::new();
        for v in [0, 1, 2, 3, 9, 1000, 2_000_000] {
            h.observe(v);
        }
        let s = h.summary();
        assert_eq!(s.count, 7);
        assert_eq!(s.sum, 2_001_015);
        assert_eq!(s.max, 2_000_000);
        assert!((s.mean() - 2_001_015.0 / 7.0).abs() < 1e-9);
        // Disjoint bucket counts sum to the observation count.
        assert_eq!(s.buckets.iter().map(|b| b.1).sum::<u64>(), 7);
        // Median bucket bound is small; p99 reaches the overflow region.
        assert!(s.quantile_le(0.5) <= 4);
        assert!(s.quantile_le(1.0) >= 1000);
        // Empty histogram summary is all zeros.
        let empty = Histogram::new().summary();
        assert_eq!(empty.mean(), 0.0);
        assert_eq!(empty.quantile_le(0.5), 0);
    }

    #[test]
    fn histogram_merge_adds_pointwise() {
        let a = Histogram::new();
        let b = Histogram::new();
        a.observe(1);
        a.observe(100);
        b.observe(7);
        let mut s = a.summary();
        s.merge(&b.summary());
        assert_eq!(s.count, 3);
        assert_eq!(s.sum, 108);
        assert_eq!(s.max, 100);
        let mut empty = HistogramSummary::default();
        empty.merge(&s);
        assert_eq!(empty, s);
    }

    #[test]
    fn snapshot_delta_subtracts() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("io_total");
        let h = reg.histogram("latency");
        c.add(10);
        h.observe(4);
        let before = reg.snapshot();
        c.add(5);
        h.observe(8);
        h.observe(8);
        let delta = reg.snapshot().delta(&before);
        assert_eq!(delta.counter("io_total"), 5);
        match delta.values.get("latency") {
            Some(MetricValue::Histogram(s)) => {
                assert_eq!(s.count, 2);
                assert_eq!(s.sum, 16);
            }
            other => panic!("expected histogram, got {other:?}"),
        }
    }

    #[test]
    fn prometheus_export_is_clean() {
        let reg = MetricsRegistry::new();
        reg.counter("queries_total{alg=\"ir2\"}").add(3);
        reg.counter("queries_total{alg=\"mir2\"}").add(4);
        reg.set_gauge("pool_hit_rate", 0.5);
        reg.set_gauge("bad_gauge", f64::NAN); // clamped at ingest
        reg.set_gauge("worse_gauge", f64::INFINITY);
        reg.histogram("query_io{alg=\"ir2\"}").observe(3);
        let text = reg.export_prometheus();
        assert!(text.contains("# TYPE queries_total counter"));
        // One TYPE line per family even with two labeled series.
        assert_eq!(text.matches("# TYPE queries_total").count(), 1);
        assert!(text.contains("queries_total{alg=\"ir2\"} 3"));
        assert!(text.contains("pool_hit_rate 0.5"));
        assert!(text.contains("query_io_bucket{alg=\"ir2\",le=\"+Inf\"} 1"));
        assert!(text.contains("query_io_sum{alg=\"ir2\"} 3"));
        assert!(text.contains("query_io_count{alg=\"ir2\"} 1"));
        for token in ["NaN", "nan", "inf"] {
            assert!(!text.contains(token), "dirty value in:\n{text}");
        }
    }

    #[test]
    fn observe_io_bridges_snapshots() {
        let reg = MetricsRegistry::new();
        let delta = IoSnapshot {
            random_reads: 3,
            seq_reads: 2,
            ..Default::default()
        };
        reg.observe_io("{dev=\"ir2\"}", delta);
        reg.observe_io("{dev=\"ir2\"}", delta);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("io_random_reads_total{dev=\"ir2\"}"), 6);
        assert_eq!(snap.counter("io_sequential_reads_total{dev=\"ir2\"}"), 4);
        // Zero components are not registered at all.
        assert!(!snap
            .values
            .contains_key("io_random_writes_total{dev=\"ir2\"}"));
    }

    #[test]
    fn custom_bounds_partition_correctly() {
        let h = Histogram::with_bounds(&[10, 100]);
        h.observe(10); // first bucket (inclusive)
        h.observe(11); // second
        h.observe(1000); // overflow
        let s = h.summary();
        assert_eq!(s.buckets.len(), 3);
        assert_eq!(s.buckets[0], (10, 1));
        assert_eq!(s.buckets[1], (100, 1));
        assert_eq!(s.buckets[2], (u64::MAX, 1));
    }
}
