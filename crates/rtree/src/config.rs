//! Tree configuration: fanout and fill factors.

use ir2_geo::Rect;
use ir2_storage::PAGE_PAYLOAD;

use crate::node::{NODE_HEADER_LEN, REF_LEN};

/// Node splitting algorithm.
///
/// Guttman \[Gut84\] proposed three; the paper "uses the standard Quadratic
/// Split technique", which is the default here. The linear variant is
/// kept for the split-strategy ablation: O(M) per split instead of O(M²),
/// at the cost of worse node overlap and therefore more query I/O.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SplitStrategy {
    /// Quadratic split: PickSeeds maximizes wasted area over all pairs.
    #[default]
    Quadratic,
    /// Linear split: seeds chosen by greatest normalized separation per
    /// dimension; remaining entries assigned by least enlargement.
    Linear,
}

/// R-Tree shape parameters.
///
/// Like the paper, "the number of children of a node of the R-Tree is
/// computed given the fact that each node is a disk block", and the IR²-
/// and MIR²-Trees "use this same number of children", occupying extra
/// blocks per node when signatures do not fit. [`RTreeConfig::for_dims`]
/// performs that computation; `max_entries` can also be pinned explicitly
/// (e.g. to the paper's 113).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RTreeConfig {
    /// Node capacity `M` (children per node).
    pub max_entries: usize,
    /// Minimum fill `m` (entries below which CondenseTree dissolves a
    /// node). Guttman requires `m ≤ M/2`.
    pub min_entries: usize,
    /// Node splitting algorithm (quadratic, as in the paper, by default).
    pub split: SplitStrategy,
}

impl RTreeConfig {
    /// Derives the capacity that packs a *plain* `N`-dimensional R-Tree
    /// node into one 4096-byte block, with 40 % minimum fill. Node pages
    /// are checksummed, so only [`PAGE_PAYLOAD`] bytes of the block carry
    /// node data.
    ///
    /// For `N = 2`: `(4088 − 8) / (8 + 32) = 102` children per node (the
    /// paper's 113 reflects its Java record layout; the block-filling
    /// principle is the same).
    pub fn for_dims<const N: usize>() -> Self {
        let entry = REF_LEN + Rect::<N>::ENCODED_LEN;
        let max = (PAGE_PAYLOAD - NODE_HEADER_LEN) / entry;
        Self::with_max(max)
    }

    /// A configuration with the given capacity and 40 % minimum fill.
    ///
    /// # Panics
    /// Panics if `max < 4` (quadratic split needs at least two entries per
    /// side) or `max > 65 535` (a node header counts its entries in a
    /// `u16`).
    pub fn with_max(max: usize) -> Self {
        assert!(max >= 4, "node capacity must be at least 4");
        assert!(
            max <= usize::from(u16::MAX),
            "node capacity must be at most 65535, the node header's entry count"
        );
        Self {
            max_entries: max,
            min_entries: (max * 2 / 5).max(2),
            split: SplitStrategy::default(),
        }
    }

    /// Selects the linear split strategy (ablation; the paper uses
    /// quadratic).
    pub fn with_linear_split(mut self) -> Self {
        self.split = SplitStrategy::Linear;
        self
    }

    /// Overrides the minimum fill.
    ///
    /// # Panics
    /// Panics unless `2 ≤ min ≤ max/2`.
    pub fn with_min(mut self, min: usize) -> Self {
        assert!(min >= 2 && min <= self.max_entries / 2, "need 2 ≤ m ≤ M/2");
        self.min_entries = min;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_dim_capacity_fills_a_block() {
        let cfg = RTreeConfig::for_dims::<2>();
        assert_eq!(cfg.max_entries, 102);
        // A full node must fit in one sealed block's payload.
        assert!(
            NODE_HEADER_LEN + cfg.max_entries * (REF_LEN + Rect::<2>::ENCODED_LEN) <= PAGE_PAYLOAD
        );
        assert!(cfg.min_entries >= 2 && cfg.min_entries <= cfg.max_entries / 2);
    }

    #[test]
    fn higher_dims_lower_capacity() {
        assert!(
            RTreeConfig::for_dims::<3>().max_entries < RTreeConfig::for_dims::<2>().max_entries
        );
    }

    #[test]
    #[should_panic(expected = "at least 4")]
    fn tiny_capacity_rejected() {
        let _ = RTreeConfig::with_max(3);
    }

    #[test]
    #[should_panic(expected = "at most 65535")]
    fn a_capacity_past_the_header_count_is_rejected() {
        let _ = RTreeConfig::with_max(70_000);
    }

    #[test]
    fn the_largest_header_count_is_accepted() {
        assert_eq!(RTreeConfig::with_max(65_535).max_entries, 65_535);
    }

    #[test]
    fn paper_capacity_is_expressible() {
        let cfg = RTreeConfig::with_max(113);
        assert_eq!(cfg.max_entries, 113);
    }
}
