//! Query execution limits and the complete/truncated outcome type.
//!
//! Production serving cannot let one query with a pathological signature
//! false-positive rate scan a whole tree: every query runs under a
//! [`QueryLimits`] — a wall-clock deadline, an I/O budget, and a frontier
//! (heap) size cap — checked cooperatively at each step of the search
//! loop. Exhausting a limit is *not* an error: the incremental best-first
//! traversal (Hjaltason–Samet) emits results in final rank order, so the
//! results produced before the cut are exactly the true top-m prefix of
//! the full answer. [`ExecOutcome::Truncated`] carries them together with
//! the [`TruncateReason`].

use std::time::{Duration, Instant};

/// Cooperative execution limits for one query. The default is unlimited.
#[derive(Debug, Clone, Copy, Default)]
pub struct QueryLimits {
    /// Wall-clock instant after which the query stops.
    pub deadline: Option<Instant>,
    /// Maximum charged I/O units (tree nodes read + objects loaded).
    pub io_budget: Option<u64>,
    /// Maximum search-frontier (priority queue) size.
    pub max_heap_size: Option<usize>,
}

impl QueryLimits {
    /// No limits: the query runs to completion.
    pub fn none() -> Self {
        Self::default()
    }

    /// Whether no limit is set at all (the fast path can skip checks).
    pub fn is_unlimited(&self) -> bool {
        self.deadline.is_none() && self.io_budget.is_none() && self.max_heap_size.is_none()
    }

    /// Sets a deadline `budget` from now.
    pub fn with_deadline(mut self, budget: Duration) -> Self {
        self.deadline = Some(Instant::now() + budget);
        self
    }

    /// Sets the I/O budget in charged units (nodes read + objects loaded).
    pub fn with_io_budget(mut self, budget: u64) -> Self {
        self.io_budget = Some(budget);
        self
    }

    /// Sets the frontier size cap.
    pub fn with_max_heap_size(mut self, cap: usize) -> Self {
        self.max_heap_size = Some(cap);
        self
    }

    /// The cooperative check run at the top of each search step: given the
    /// I/O charged and the frontier size so far, decides whether the query
    /// must stop now. Limit priority when several trip at once: budget,
    /// then heap, then deadline (the deterministic ones first, so tests
    /// and replays agree).
    pub fn check(&self, io_used: u64, heap_len: usize) -> Option<TruncateReason> {
        if let Some(budget) = self.io_budget {
            if io_used >= budget {
                return Some(TruncateReason::IoBudget);
            }
        }
        if let Some(cap) = self.max_heap_size {
            if heap_len > cap {
                return Some(TruncateReason::HeapLimit);
            }
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                return Some(TruncateReason::Deadline);
            }
        }
        None
    }
}

/// Which limit stopped a truncated query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TruncateReason {
    /// The wall-clock deadline passed.
    Deadline,
    /// The I/O budget was spent.
    IoBudget,
    /// The search frontier outgrew its cap.
    HeapLimit,
}

impl TruncateReason {
    /// Stable lower-case key, used as a metrics label and in CLI output.
    pub fn key(&self) -> &'static str {
        match self {
            Self::Deadline => "deadline",
            Self::IoBudget => "io_budget",
            Self::HeapLimit => "heap_limit",
        }
    }
}

impl std::fmt::Display for TruncateReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.key())
    }
}

/// The outcome of a limit-aware query execution.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecOutcome<T> {
    /// The query ran to completion; the results are the full answer.
    Complete(T),
    /// A limit stopped the query early. For incremental algorithms
    /// `results_so_far` is the exact top-m prefix of the full answer; the
    /// all-or-nothing IIO baseline reports an empty prefix.
    Truncated {
        /// Which limit tripped.
        reason: TruncateReason,
        /// Results emitted before the cut.
        results_so_far: T,
    },
}

impl<T> ExecOutcome<T> {
    /// The results, complete or partial.
    pub fn results(&self) -> &T {
        match self {
            Self::Complete(r) => r,
            Self::Truncated { results_so_far, .. } => results_so_far,
        }
    }

    /// Consumes the outcome, returning the results.
    pub fn into_results(self) -> T {
        match self {
            Self::Complete(r) => r,
            Self::Truncated { results_so_far, .. } => results_so_far,
        }
    }

    /// The truncation reason, if the query was cut short.
    pub fn truncation(&self) -> Option<TruncateReason> {
        match self {
            Self::Complete(_) => None,
            Self::Truncated { reason, .. } => Some(*reason),
        }
    }

    /// Whether the query was cut short.
    pub fn is_truncated(&self) -> bool {
        self.truncation().is_some()
    }

    /// Maps the result payload, preserving the outcome.
    pub fn map<U>(self, f: impl FnOnce(T) -> U) -> ExecOutcome<U> {
        match self {
            Self::Complete(r) => ExecOutcome::Complete(f(r)),
            Self::Truncated {
                reason,
                results_so_far,
            } => ExecOutcome::Truncated {
                reason,
                results_so_far: f(results_so_far),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_never_trips() {
        let l = QueryLimits::none();
        assert!(l.is_unlimited());
        assert_eq!(l.check(u64::MAX, usize::MAX), None);
    }

    #[test]
    fn io_budget_trips_at_the_boundary() {
        let l = QueryLimits::none().with_io_budget(5);
        assert_eq!(l.check(4, 0), None);
        assert_eq!(l.check(5, 0), Some(TruncateReason::IoBudget));
        // A zero budget stops before the first I/O.
        let z = QueryLimits::none().with_io_budget(0);
        assert_eq!(z.check(0, 0), Some(TruncateReason::IoBudget));
    }

    #[test]
    fn heap_cap_trips_only_above_the_cap() {
        let l = QueryLimits::none().with_max_heap_size(3);
        assert_eq!(l.check(0, 3), None);
        assert_eq!(l.check(0, 4), Some(TruncateReason::HeapLimit));
    }

    #[test]
    fn past_deadline_trips() {
        let l = QueryLimits {
            deadline: Some(Instant::now() - Duration::from_millis(1)),
            ..QueryLimits::none()
        };
        assert_eq!(l.check(0, 0), Some(TruncateReason::Deadline));
        let far = QueryLimits::none().with_deadline(Duration::from_secs(3600));
        assert_eq!(far.check(0, 0), None);
    }

    #[test]
    fn outcome_accessors() {
        let c: ExecOutcome<Vec<u32>> = ExecOutcome::Complete(vec![1, 2]);
        assert!(!c.is_truncated());
        assert_eq!(c.results(), &vec![1, 2]);
        let t = ExecOutcome::Truncated {
            reason: TruncateReason::IoBudget,
            results_so_far: vec![1],
        };
        assert_eq!(t.truncation(), Some(TruncateReason::IoBudget));
        assert_eq!(t.map(|v| v.len()).into_results(), 1);
        assert_eq!(TruncateReason::Deadline.to_string(), "deadline");
    }
}
