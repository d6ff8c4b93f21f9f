//! Per-query execution traces.
//!
//! The paper's Section VI tables are *per-query counts*: node accesses,
//! signature false positives per level, objects verified. A [`TraceSink`]
//! receives one [`TraceEvent`] per algorithm step so those counts (and
//! full step logs) can be derived at query time instead of re-running the
//! offline `diagnostics` walk:
//!
//! * [`NopSink`] — the default; every call is an inlined empty body, so
//!   the traced code monomorphizes to exactly the untraced code.
//! * [`VecSink`] — keeps every event, for the `ir2 trace` step log.
//! * [`StatsSink`] — folds events into [`TraceStats`] counters and
//!   per-level pruning tallies without storing events.
//!
//! A visited node's signature tests arrive in one call,
//! [`TraceSink::record_tests`], with the node's containment mask. Its
//! default replays the mask as one [`TraceEvent::SignatureTest`] per entry
//! in entry order, so a sink that overrides only `record` sees the same
//! stream it would per entry; [`NopSink`] ignores the call and
//! [`StatsSink`] tallies the whole node at once (`ir2bench --trace 1`
//! reports what each costs as `core.facade_overhead_us` and
//! `irtree.trace_overhead_pct`).
//!
//! The derived [`TraceStats`] are definitionally consistent with the
//! algorithms' own `SearchCounters` (`nodes_visited == nodes_read`,
//! `objects_fetched == candidates_checked`, `sig_tests − sig_matched ==
//! pruned_by_signature`) for every distance-first search, the R-Tree
//! baseline included: it visits nodes like the others and records no
//! signature test. The core crate's observability integration test
//! asserts the equivalence bit-for-bit against `IoScope` attribution.

use ir2_sigfile::EntryMask;

use crate::search::SearchCounters;

/// One step of a spatial-keyword query's execution.
///
/// Events carry the quantities the paper reports (level, MINDIST,
/// signature outcomes) plus the heap size, which exposes the frontier
/// growth that distinguishes distance-first from depth-first traversal.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TraceEvent {
    /// An internal or leaf node was popped from the frontier and its block
    /// read (`nodes_read` in `SearchCounters`).
    NodeVisited {
        /// Block id of the node on its tree device.
        node: u64,
        /// Tree level (0 = leaf).
        level: u16,
        /// Pop priority of the node: MINDIST from the query region for
        /// the distance-first algorithms, the score upper bound `Upper(v)`
        /// (infinite at the root) for the general algorithm.
        mindist: f64,
        /// Number of entries scanned in the node.
        entries: usize,
        /// Frontier (heap) size immediately *before* expanding this node.
        heap_size: usize,
    },
    /// A node or leaf entry's signature was tested against the query
    /// signature at `level`.
    SignatureTest {
        /// Level whose signature scheme performed the test — the
        /// *containing node's* level (so leaf-node tests of object
        /// entries report level 0, matching `diagnostics::density_profile`
        /// levels).
        level: u16,
        /// Whether the superimposed signature matched (matches include
        /// false positives; a miss is a certain prune).
        matched: bool,
    },
    /// A candidate object was fetched from the object file and verified
    /// against the actual keyword set.
    ObjectFetched {
        /// Record pointer of the object (block ⊕ slot encoding).
        ptr: u64,
        /// Euclidean distance from the query point.
        distance: f64,
        /// Whether verification succeeded (false ⇒ the fetch was a
        /// signature false positive).
        matched: bool,
    },
}

/// A receiver of [`TraceEvent`]s.
///
/// Query algorithms take `S: TraceSink` with a [`NopSink`] default, so
/// tracing is opt-in per call and free when unused.
pub trait TraceSink {
    /// Receives one event. Implementations must be cheap: this is called
    /// on the query hot path (once per node visit and per object fetch,
    /// and by the general algorithm once per keyword probe of an entry).
    fn record(&mut self, event: &TraceEvent);

    /// Receives the signature tests of one visited node: bit `i` of `mask`
    /// is entry `i`'s containment verdict against the query signature of
    /// `level`, the node's own level.
    ///
    /// The default emits one [`TraceEvent::SignatureTest`] per entry, in
    /// entry order, through [`record`](TraceSink::record) — the stream a
    /// per-entry caller would produce. A sink that only counts should
    /// override it with one tally per node, as [`StatsSink`] does; the
    /// override must leave the sink as the default's events would.
    #[inline]
    fn record_tests(&mut self, level: u16, mask: &EntryMask) {
        for i in 0..mask.len() {
            self.record(&TraceEvent::SignatureTest {
                level,
                matched: mask.get(i),
            });
        }
    }
}

/// Sinks are usable through mutable references, so a caller can keep
/// ownership while lending the sink to an iterator. Both calls forward, so
/// a lent sink keeps its own `record_tests`.
impl<S: TraceSink + ?Sized> TraceSink for &mut S {
    #[inline]
    fn record(&mut self, event: &TraceEvent) {
        (**self).record(event);
    }

    #[inline]
    fn record_tests(&mut self, level: u16, mask: &EntryMask) {
        (**self).record_tests(level, mask);
    }
}

/// The default sink: ignores everything. With `NopSink` the traced code
/// paths compile to the untraced code — `record` is an inlined empty
/// function the optimizer deletes along with event construction.
#[derive(Debug, Default, Clone, Copy)]
pub struct NopSink;

impl TraceSink for NopSink {
    #[inline(always)]
    fn record(&mut self, _event: &TraceEvent) {}

    #[inline(always)]
    fn record_tests(&mut self, _level: u16, _mask: &EntryMask) {}
}

/// Stores every event in order — the full step log behind `ir2 trace`.
#[derive(Debug, Default, Clone)]
pub struct VecSink {
    /// Recorded events, in execution order.
    pub events: Vec<TraceEvent>,
}

impl VecSink {
    /// An empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds the stored events into summary statistics.
    pub fn stats(&self) -> TraceStats {
        let mut stats = TraceStats::default();
        for e in &self.events {
            stats.absorb(e);
        }
        stats
    }
}

impl TraceSink for VecSink {
    #[inline]
    fn record(&mut self, event: &TraceEvent) {
        self.events.push(*event);
    }
}

/// Folds events into [`TraceStats`] as they arrive, storing nothing else —
/// cheap enough to leave on for whole batch runs.
#[derive(Debug, Default, Clone)]
pub struct StatsSink {
    /// Aggregated statistics so far.
    pub stats: TraceStats,
}

impl StatsSink {
    /// An empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Consumes the sink, returning the aggregate.
    pub fn into_stats(self) -> TraceStats {
        self.stats
    }
}

impl TraceSink for StatsSink {
    #[inline]
    fn record(&mut self, event: &TraceEvent) {
        self.stats.absorb(event);
    }

    /// One tally for the whole node: its entries as tests, its set bits as
    /// matches.
    #[inline]
    fn record_tests(&mut self, level: u16, mask: &EntryMask) {
        self.stats
            .tally_tests(level, mask.len() as u64, mask.count_ones() as u64);
    }
}

/// Signature-test tallies for one tree level.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct LevelPruning {
    /// Signature tests performed at this level.
    pub tests: u64,
    /// Tests that matched (and therefore were descended / fetched).
    pub matched: u64,
}

impl LevelPruning {
    /// Fraction of tests that matched, `0.0` when no tests ran.
    pub fn match_rate(&self) -> f64 {
        ir2_storage::ratio(self.matched, self.tests)
    }

    /// Tests that failed — certain prunes.
    pub fn pruned(&self) -> u64 {
        self.tests - self.matched
    }
}

/// Aggregate statistics derived from a trace.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct TraceStats {
    /// Nodes popped and expanded (= `SearchCounters::nodes_read`).
    pub nodes_visited: u64,
    /// Total entries scanned across visited nodes.
    pub entries_scanned: u64,
    /// Signature tests performed, all levels.
    pub sig_tests: u64,
    /// Signature tests that matched.
    pub sig_matched: u64,
    /// Objects fetched and verified (= `SearchCounters::candidates_checked`).
    pub objects_fetched: u64,
    /// Fetched objects that failed verification
    /// (= `SearchCounters::false_positives`).
    pub false_positives: u64,
    /// Largest frontier (heap) size observed at a node expansion.
    pub max_heap: u64,
    /// Per-level signature tallies, indexed by tree level (0 = objects /
    /// leaf entries). Missing levels were never tested.
    pub per_level: Vec<LevelPruning>,
}

impl TraceStats {
    /// Folds one event into the aggregate.
    pub fn absorb(&mut self, event: &TraceEvent) {
        match *event {
            TraceEvent::NodeVisited {
                entries, heap_size, ..
            } => {
                self.nodes_visited += 1;
                self.entries_scanned += entries as u64;
                self.max_heap = self.max_heap.max(heap_size as u64);
            }
            TraceEvent::SignatureTest { level, matched } => {
                self.tally_tests(level, 1, u64::from(matched));
            }
            TraceEvent::ObjectFetched { matched, .. } => {
                self.objects_fetched += 1;
                if !matched {
                    self.false_positives += 1;
                }
            }
        }
    }

    /// Adds `tests` signature tests at `level`, `matched` of which matched.
    /// No tests leave `per_level` as it was.
    fn tally_tests(&mut self, level: u16, tests: u64, matched: u64) {
        if tests == 0 {
            return;
        }
        self.sig_tests += tests;
        self.sig_matched += matched;
        let level = level as usize;
        if self.per_level.len() <= level {
            self.per_level.resize(level + 1, LevelPruning::default());
        }
        self.per_level[level].tests += tests;
        self.per_level[level].matched += matched;
    }

    /// Entries pruned by signature mismatch (= `sig_tests − sig_matched`
    /// = `SearchCounters::pruned_by_signature`).
    pub fn pruned_by_signature(&self) -> u64 {
        self.sig_tests - self.sig_matched
    }

    /// Observed false-positive rate among fetched objects, `0.0` when no
    /// object was fetched.
    pub fn object_fp_rate(&self) -> f64 {
        ir2_storage::ratio(self.false_positives, self.objects_fetched)
    }

    /// Merges another aggregate into this one (per-level tallies add
    /// index-wise; used to fold per-thread sinks after a batch run).
    pub fn merge(&mut self, other: &TraceStats) {
        self.nodes_visited += other.nodes_visited;
        self.entries_scanned += other.entries_scanned;
        self.sig_tests += other.sig_tests;
        self.sig_matched += other.sig_matched;
        self.objects_fetched += other.objects_fetched;
        self.false_positives += other.false_positives;
        self.max_heap = self.max_heap.max(other.max_heap);
        if self.per_level.len() < other.per_level.len() {
            self.per_level
                .resize(other.per_level.len(), LevelPruning::default());
        }
        for (a, b) in self.per_level.iter_mut().zip(&other.per_level) {
            a.tests += b.tests;
            a.matched += b.matched;
        }
    }

    /// True iff the aggregate is definitionally consistent with the
    /// algorithm's own counters (see module docs for the mapping). Every
    /// distance-first search traces its node visits; the plain R-Tree
    /// baseline tests no signatures and prunes nothing, so both sides of
    /// its pruning identity are zero.
    pub fn matches_counters(&self, c: &SearchCounters) -> bool {
        self.nodes_visited == c.nodes_read
            && self.objects_fetched == c.candidates_checked
            && self.false_positives == c.false_positives
            && self.pruned_by_signature() == c.pruned_by_signature
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ir2_sigfile::{payloads_mask_into, Signature};

    fn sample_events() -> Vec<TraceEvent> {
        vec![
            TraceEvent::NodeVisited {
                node: 7,
                level: 1,
                mindist: 0.0,
                entries: 3,
                heap_size: 1,
            },
            TraceEvent::SignatureTest {
                level: 0,
                matched: true,
            },
            TraceEvent::SignatureTest {
                level: 0,
                matched: false,
            },
            TraceEvent::SignatureTest {
                level: 0,
                matched: true,
            },
            TraceEvent::ObjectFetched {
                ptr: 42,
                distance: 1.5,
                matched: true,
            },
            TraceEvent::ObjectFetched {
                ptr: 43,
                distance: 2.5,
                matched: false,
            },
        ]
    }

    #[test]
    fn stats_sink_and_vec_sink_agree() {
        let mut vs = VecSink::new();
        let mut ss = StatsSink::new();
        for e in sample_events() {
            vs.record(&e);
            ss.record(&e);
        }
        assert_eq!(vs.events.len(), 6);
        assert_eq!(vs.stats(), ss.stats);
        let s = ss.into_stats();
        assert_eq!(s.nodes_visited, 1);
        assert_eq!(s.entries_scanned, 3);
        assert_eq!(s.sig_tests, 3);
        assert_eq!(s.sig_matched, 2);
        assert_eq!(s.pruned_by_signature(), 1);
        assert_eq!(s.objects_fetched, 2);
        assert_eq!(s.false_positives, 1);
        assert_eq!(s.max_heap, 1);
        assert_eq!(s.per_level.len(), 1);
        assert_eq!(s.per_level[0].tests, 3);
        assert_eq!(s.per_level[0].matched, 2);
        assert_eq!(s.per_level[0].pruned(), 1);
        assert!((s.per_level[0].match_rate() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(s.object_fp_rate(), 0.5);
    }

    #[test]
    fn empty_stats_rates_are_zero_not_nan() {
        let s = TraceStats::default();
        assert_eq!(s.object_fp_rate(), 0.0);
        assert_eq!(LevelPruning::default().match_rate(), 0.0);
    }

    #[test]
    fn merge_adds_and_extends_levels() {
        let mut a = StatsSink::new();
        a.record(&TraceEvent::SignatureTest {
            level: 0,
            matched: true,
        });
        let mut b = StatsSink::new();
        b.record(&TraceEvent::SignatureTest {
            level: 2,
            matched: false,
        });
        b.record(&TraceEvent::NodeVisited {
            node: 1,
            level: 2,
            mindist: 0.5,
            entries: 10,
            heap_size: 9,
        });
        let mut m = a.stats.clone();
        m.merge(&b.stats);
        assert_eq!(m.sig_tests, 2);
        assert_eq!(m.per_level.len(), 3);
        assert_eq!(m.per_level[0].matched, 1);
        assert_eq!(m.per_level[2].tests, 1);
        assert_eq!(m.max_heap, 9);
        assert_eq!(m.nodes_visited, 1);
    }

    #[test]
    fn counter_equivalence_mapping() {
        let mut ss = StatsSink::new();
        for e in sample_events() {
            ss.record(&e);
        }
        let c = SearchCounters {
            nodes_read: 1,
            pruned_by_signature: 1,
            candidates_checked: 2,
            false_positives: 1,
            cache_hits: 0,
            cache_misses: 1,
        };
        assert!(ss.stats.matches_counters(&c));
        // The untested (R-Tree baseline) case binds only the object side.
        let bare = TraceStats {
            nodes_visited: 1,
            objects_fetched: 2,
            false_positives: 1,
            ..Default::default()
        };
        assert!(bare.matches_counters(&SearchCounters {
            nodes_read: 1,
            pruned_by_signature: 0,
            candidates_checked: 2,
            false_positives: 1,
            cache_hits: 0,
            cache_misses: 1,
        }));
    }

    #[test]
    fn borrowed_sink_records_through() {
        let mut vs = VecSink::new();
        {
            let borrowed: &mut VecSink = &mut vs;
            borrowed.record(&TraceEvent::SignatureTest {
                level: 1,
                matched: true,
            });
        }
        // And through a trait object.
        let dynamic: &mut dyn TraceSink = &mut vs;
        dynamic.record(&TraceEvent::SignatureTest {
            level: 1,
            matched: false,
        });
        assert_eq!(vs.events.len(), 2);
    }

    /// A mask whose entry `i` holds `verdicts[i]`, built the way a search
    /// builds one: one-byte payloads tested against a one-bit query.
    fn mask_of(verdicts: impl IntoIterator<Item = bool>) -> EntryMask {
        let mut query = Signature::zero(8);
        query.set(0);
        let payloads: Vec<[u8; 1]> = verdicts.into_iter().map(|v| [u8::from(v)]).collect();
        let mut mask = EntryMask::new();
        payloads_mask_into(payloads.iter().map(|p| &p[..]), &query, &mut mask);
        mask
    }

    /// Counts which of its two calls it received.
    #[derive(Default)]
    struct CallCounter {
        records: usize,
        tallies: usize,
    }

    impl TraceSink for CallCounter {
        fn record(&mut self, _event: &TraceEvent) {
            self.records += 1;
        }

        fn record_tests(&mut self, _level: u16, _mask: &EntryMask) {
            self.tallies += 1;
        }
    }

    /// `record_tests` through the generic bound a search sees, so a
    /// reference wrapper goes through the blanket impl.
    fn lend<S: TraceSink>(mut sink: S, level: u16, mask: &EntryMask) {
        sink.record_tests(level, mask);
    }

    #[test]
    fn a_node_tally_equals_absorbing_its_per_entry_events() {
        for len in [0usize, 1, 63, 64, 65, 130] {
            let mask = mask_of((0..len).map(|i| i % 3 == 0 || i == 64));
            for level in [0u16, 3] {
                let ctx = format!("{len} entries at level {level}");
                // The default: one event per entry, in entry order.
                let mut events = VecSink::new();
                events.record_tests(level, &mask);
                let want: Vec<TraceEvent> = (0..len)
                    .map(|i| TraceEvent::SignatureTest {
                        level,
                        matched: mask.get(i),
                    })
                    .collect();
                assert_eq!(events.events, want, "{ctx}");
                let folded = events.stats();

                let mut direct = StatsSink::new();
                direct.record_tests(level, &mask);
                assert_eq!(direct.stats, folded, "{ctx}: direct");
                let mut lent = StatsSink::new();
                lend(&mut lent, level, &mask);
                assert_eq!(lent.stats, folded, "{ctx}: &mut StatsSink");
                let mut twice = StatsSink::new();
                lend(&mut &mut twice, level, &mask);
                assert_eq!(twice.stats, folded, "{ctx}: &mut &mut StatsSink");
                let mut erased = StatsSink::new();
                (&mut erased as &mut dyn TraceSink).record_tests(level, &mask);
                assert_eq!(erased.stats, folded, "{ctx}: &mut dyn TraceSink");
            }
        }
    }

    #[test]
    fn every_wrapper_reaches_the_override() {
        let mask = mask_of([true, false, true]);
        let mut counter = CallCounter::default();
        counter.record_tests(0, &mask);
        lend(&mut counter, 0, &mask);
        lend(&mut &mut counter, 0, &mask);
        (&mut counter as &mut dyn TraceSink).record_tests(0, &mask);
        lend(&mut counter as &mut dyn TraceSink, 0, &mask);
        assert_eq!((counter.tallies, counter.records), (5, 0));
    }
}
