//! Per-query accounts: the counts every search keeps, and the steps it can
//! report.
//!
//! The paper's Section VI tables are *per-query counts*: node accesses,
//! signature false positives per level, objects verified. A search keeps
//! them itself, in one [`SearchCounters`] per query: a visited node adds
//! its entries, the frontier size and — one tally per node, from the
//! containment mask its test built — its signature tests and matches at
//! its level. Every report carries these counts, traced or not.
//!
//! A [`TraceSink`] receives the same work as one [`TraceEvent`] per
//! algorithm step, for step logs:
//!
//! * [`NopSink`] — the default; every call is an inlined empty body, so
//!   the traced code monomorphizes to exactly the untraced code.
//! * [`VecSink`] — keeps every event, for the `ir2 trace` step log.
//!
//! A visited node's signature tests arrive in one call,
//! [`TraceSink::record_tests`], with the node's containment mask. Its
//! default replays the mask as one [`TraceEvent::SignatureTest`] per entry
//! in entry order, so a sink that overrides only `record` sees the same
//! stream it would per entry.
//!
//! The event stream is the reference the counts are checked against:
//! [`VecSink::counters`] folds a distance-first search's events into the
//! [`SearchCounters`] the search kept — every field but the cache split,
//! which no event carries. That holds for the R-Tree baseline too: it
//! visits nodes like the others and records no signature test.

use ir2_sigfile::EntryMask;

/// What one search counted — the metrics the paper's figures report per
/// query, kept by the search as it works.
///
/// Counters of several searches add with `+=` (a sharded query sums its
/// shards' and its failed-over attempts'): every count adds, per-level
/// tallies add level by level, and `max_heap` is the largest of them.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct SearchCounters {
    /// Tree nodes read (visited and expanded).
    pub nodes_read: u64,
    /// Entries of the visited nodes, all of them scanned.
    pub entries_scanned: u64,
    /// Candidate objects loaded and checked against the keywords.
    pub candidates_checked: u64,
    /// Candidates whose text did not actually contain all keywords —
    /// signature false positives (line 21 of `IR2TopK` caught them).
    pub false_positives: u64,
    /// Of [`nodes_read`](SearchCounters::nodes_read), visits served from
    /// the tree's decoded-node cache (no device I/O, no CRC verification,
    /// no entry decode). Always 0 without an attached cache. `nodes_read`
    /// keeps counting *visits* either way, so I/O budgets are deterministic
    /// regardless of cache state.
    pub cache_hits: u64,
    /// Of [`nodes_read`](SearchCounters::nodes_read), visits that had to
    /// decode the node (device read + CRC + entry decode) — including every
    /// visit on a tree with no cache attached. The conservation identity
    /// `nodes_read == cache_hits + cache_misses` holds for every report.
    pub cache_misses: u64,
    /// Largest frontier size seen when a node was expanded.
    pub max_heap: u64,
    /// Signature tests and matches per tree level, indexed by the level of
    /// the tested node (0 = leaf entries). A level no test reached has no
    /// slot past the last one that did; a tree without signatures (the
    /// R-Tree baseline) leaves it empty.
    pub per_level: Vec<LevelPruning>,
}

impl SearchCounters {
    /// Signature tests performed, all levels.
    pub fn sig_tests(&self) -> u64 {
        self.per_level.iter().map(|l| l.tests).sum()
    }

    /// Signature tests that matched, all levels.
    pub fn sig_matched(&self) -> u64 {
        self.per_level.iter().map(|l| l.matched).sum()
    }

    /// Entries (node or object) pruned by a failed signature match:
    /// tests − matches.
    pub fn pruned_by_signature(&self) -> u64 {
        self.sig_tests() - self.sig_matched()
    }

    /// Observed false-positive rate among checked candidates, `0.0` when
    /// none was checked.
    pub fn object_fp_rate(&self) -> f64 {
        ir2_storage::ratio(self.false_positives, self.candidates_checked)
    }

    /// Counts one visited node of `entries` entries, expanded with
    /// `frontier` items still queued; `hit` says it came from the node
    /// cache.
    #[inline]
    pub(crate) fn visit(&mut self, entries: usize, frontier: usize, hit: bool) {
        self.nodes_read += 1;
        self.entries_scanned += entries as u64;
        self.max_heap = self.max_heap.max(frontier as u64);
        self.cache_hits += u64::from(hit);
        self.cache_misses += u64::from(!hit);
    }

    /// Counts a visited node's signature tests at `level` in one tally:
    /// its entries as tests, the set bits of its mask as matches.
    #[inline]
    pub(crate) fn record_tests(&mut self, level: u16, mask: &EntryMask) {
        self.tally_tests(level, mask.len() as u64, mask.count_ones() as u64);
    }

    /// Adds `tests` signature tests at `level`, `matched` of which matched.
    /// No tests leave `per_level` as it was.
    #[inline]
    pub(crate) fn tally_tests(&mut self, level: u16, tests: u64, matched: u64) {
        if tests == 0 {
            return;
        }
        let level = usize::from(level);
        if self.per_level.len() <= level {
            self.per_level.resize(level + 1, LevelPruning::default());
        }
        self.per_level[level].tests += tests;
        self.per_level[level].matched += matched;
    }

    /// Folds one event into the counts — what the search itself counted
    /// for the step the event reports, but the cache split.
    fn absorb(&mut self, event: &TraceEvent) {
        match *event {
            TraceEvent::NodeVisited {
                entries, heap_size, ..
            } => {
                self.nodes_read += 1;
                self.entries_scanned += entries as u64;
                self.max_heap = self.max_heap.max(heap_size as u64);
            }
            TraceEvent::SignatureTest { level, matched } => {
                self.tally_tests(level, 1, u64::from(matched));
            }
            TraceEvent::ObjectFetched { matched, .. } => {
                self.candidates_checked += 1;
                self.false_positives += u64::from(!matched);
            }
        }
    }
}

impl std::ops::AddAssign<&SearchCounters> for SearchCounters {
    fn add_assign(&mut self, c: &SearchCounters) {
        self.nodes_read += c.nodes_read;
        self.entries_scanned += c.entries_scanned;
        self.candidates_checked += c.candidates_checked;
        self.false_positives += c.false_positives;
        self.cache_hits += c.cache_hits;
        self.cache_misses += c.cache_misses;
        self.max_heap = self.max_heap.max(c.max_heap);
        if self.per_level.len() < c.per_level.len() {
            self.per_level
                .resize(c.per_level.len(), LevelPruning::default());
        }
        for (a, b) in self.per_level.iter_mut().zip(&c.per_level) {
            a.tests += b.tests;
            a.matched += b.matched;
        }
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
        /// Pop key of the node: MINDIST from the query region for the
        /// distance-first algorithms, the negated score bound `−Upper(v)`
        /// (−∞ at the root) for the general algorithm.
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
    /// against the actual keyword set (scored, under the general
    /// algorithm).
    ObjectFetched {
        /// Record pointer of the object (block ⊕ slot encoding).
        ptr: u64,
        /// Key the candidate was popped at: its distance from the query
        /// region, or `−Upper` of its leaf entry under the general
        /// algorithm.
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
    /// on the query hot path (once per node visit and per object fetch).
    fn record(&mut self, event: &TraceEvent);

    /// Receives the signature tests of one visited node: bit `i` of `mask`
    /// is entry `i`'s containment verdict against the query signature of
    /// `level`, the node's own level.
    ///
    /// The default emits one [`TraceEvent::SignatureTest`] per entry, in
    /// entry order, through [`record`](TraceSink::record) — the stream a
    /// per-entry caller would produce. An override must leave the sink as
    /// the default's events would.
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

    /// The stored events folded into counts: for a distance-first search,
    /// the [`SearchCounters`] it kept with `cache_hits` and `cache_misses`
    /// left at 0, since no event says where a node came from.
    pub fn counters(&self) -> SearchCounters {
        let mut counters = SearchCounters::default();
        for e in &self.events {
            counters.absorb(e);
        }
        counters
    }
}

impl TraceSink for VecSink {
    #[inline]
    fn record(&mut self, event: &TraceEvent) {
        self.events.push(*event);
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

    /// Each event kind lands in the counts the search keeps for that step.
    #[test]
    fn counter_equivalence_mapping() {
        let mut vs = VecSink::new();
        for e in sample_events() {
            vs.record(&e);
        }
        assert_eq!(vs.events.len(), 6);
        let c = vs.counters();
        assert_eq!(
            c,
            SearchCounters {
                nodes_read: 1,
                entries_scanned: 3,
                candidates_checked: 2,
                false_positives: 1,
                cache_hits: 0,
                cache_misses: 0,
                max_heap: 1,
                per_level: vec![LevelPruning {
                    tests: 3,
                    matched: 2
                }],
            }
        );
        assert_eq!((c.sig_tests(), c.sig_matched()), (3, 2));
        assert_eq!(c.pruned_by_signature(), 1);
        assert_eq!(c.per_level[0].pruned(), 1);
        assert!((c.per_level[0].match_rate() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(c.object_fp_rate(), 0.5);
    }

    /// The stats a search keeps itself, without a sink, agree with the
    /// fold of the events a `VecSink` stored for the same steps.
    #[test]
    fn stats_sink_and_vec_sink_agree() {
        let mut vs = VecSink::new();
        for e in sample_events() {
            vs.record(&e);
        }
        let c = vs.counters();
        let mut kept = SearchCounters::default();
        kept.visit(3, 1, false);
        kept.tally_tests(0, 3, 2);
        (kept.candidates_checked, kept.false_positives) = (2, 1);
        assert_eq!(
            kept,
            SearchCounters {
                cache_misses: 1,
                ..c
            }
        );
    }

    #[test]
    fn empty_stats_rates_are_zero_not_nan() {
        let c = SearchCounters::default();
        assert_eq!(c.object_fp_rate(), 0.0);
        assert_eq!(c.pruned_by_signature(), 0);
        assert_eq!(LevelPruning::default().match_rate(), 0.0);
    }

    /// `+=` — how a sharded query folds its shards and a failover its dead
    /// attempts — adds every count, adds `per_level` index by index
    /// (extending the shorter side) and keeps the larger `max_heap`.
    #[test]
    fn merge_adds_and_extends_levels() {
        let level = |tests, matched| LevelPruning { tests, matched };
        let a = SearchCounters {
            nodes_read: 2,
            entries_scanned: 9,
            candidates_checked: 4,
            false_positives: 1,
            cache_hits: 1,
            cache_misses: 1,
            max_heap: 12,
            per_level: vec![level(5, 3)],
        };
        let b = SearchCounters {
            nodes_read: 3,
            entries_scanned: 20,
            candidates_checked: 6,
            false_positives: 2,
            cache_hits: 0,
            cache_misses: 3,
            max_heap: 9,
            per_level: vec![level(7, 1), level(0, 0), level(4, 4)],
        };
        let want = SearchCounters {
            nodes_read: 5,
            entries_scanned: 29,
            candidates_checked: 10,
            false_positives: 3,
            cache_hits: 1,
            cache_misses: 4,
            max_heap: 12,
            per_level: vec![level(12, 4), level(0, 0), level(4, 4)],
        };
        let mut ab = a.clone();
        ab += &b;
        assert_eq!(ab, want);
        let mut ba = b.clone();
        ba += &a;
        assert_eq!(ba, want, "the fold is order-free");
        let mut zero = SearchCounters::default();
        zero += &a;
        assert_eq!(zero, a);
        assert_eq!(want.sig_tests(), a.sig_tests() + b.sig_tests());
        assert_eq!(
            want.pruned_by_signature(),
            a.pruned_by_signature() + b.pruned_by_signature()
        );
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
    /// builds one: one-byte payloads, side by side, tested against a
    /// one-bit query.
    fn mask_of(verdicts: impl IntoIterator<Item = bool>) -> EntryMask {
        let mut query = Signature::zero(8);
        query.set(0);
        let payloads: Vec<u8> = verdicts.into_iter().map(u8::from).collect();
        let mut mask = EntryMask::new();
        payloads_mask_into(&payloads, 1, payloads.len(), &query, &mut mask);
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

    /// The search's one tally per node equals folding the per-entry events
    /// the default `record_tests` replays, whichever wrapper the sink is
    /// lent through.
    #[test]
    fn a_node_tally_equals_absorbing_its_per_entry_events() {
        for len in [0usize, 1, 63, 64, 65, 130] {
            let mask = mask_of((0..len).map(|i| i % 3 == 0 || i == 64));
            for level in [0u16, 3] {
                let ctx = format!("{len} entries at level {level}");
                let want: Vec<TraceEvent> = (0..len)
                    .map(|i| TraceEvent::SignatureTest {
                        level,
                        matched: mask.get(i),
                    })
                    .collect();
                let mut tally = SearchCounters::default();
                tally.record_tests(level, &mask);

                let mut direct = VecSink::new();
                direct.record_tests(level, &mask);
                let mut lent = VecSink::new();
                lend(&mut lent, level, &mask);
                let mut twice = VecSink::new();
                lend(&mut &mut twice, level, &mask);
                let mut erased = VecSink::new();
                (&mut erased as &mut dyn TraceSink).record_tests(level, &mask);
                for (sink, how) in [
                    (direct, "direct"),
                    (lent, "&mut VecSink"),
                    (twice, "&mut &mut VecSink"),
                    (erased, "&mut dyn TraceSink"),
                ] {
                    // The default: one event per entry, in entry order.
                    assert_eq!(sink.events, want, "{ctx}: {how}");
                    assert_eq!(sink.counters(), tally, "{ctx}: {how}");
                }
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
