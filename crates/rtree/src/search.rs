//! Whole-tree walks: the node ids and occupancy statistics.

use ir2_storage::{BlockDevice, Result};

use crate::{NodeId, PayloadOps, RTree};

/// Per-level occupancy statistics of a tree (diagnostics and tests).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TreeStats {
    /// Number of nodes at each level (index 0 = leaves).
    pub nodes_per_level: Vec<u64>,
    /// Total entries at each level.
    pub entries_per_level: Vec<u64>,
    /// Mean node fill ratio (entries / capacity) across all nodes.
    pub avg_fill: f64,
    /// Total blocks occupied by nodes.
    pub node_blocks: u64,
}

impl<const N: usize, D: BlockDevice, P: PayloadOps> RTree<N, D, P> {
    /// The id of every node of the tree, read past the node cache (which it
    /// neither fills nor counts against) — what a test of that cache
    /// compares before and after a commit to learn which nodes it wrote.
    pub fn node_ids(&self) -> Result<Vec<NodeId>> {
        let mut ids = Vec::new();
        let mut stack: Vec<NodeId> = self.root().into_iter().collect();
        while let Some(id) = stack.pop() {
            ids.push(id);
            let node = self.read_node_buf(id)?;
            if !node.is_leaf() {
                stack.extend(node.children());
            }
        }
        Ok(ids)
    }

    /// Walks the whole tree and reports occupancy statistics.
    pub fn stats(&self) -> Result<TreeStats> {
        let mut stats = TreeStats::default();
        let Some(root) = self.root() else {
            return Ok(stats);
        };
        let cap = self.config().max_entries as f64;
        let mut fills = 0.0;
        let mut nodes = 0u64;
        let mut stack = vec![root];
        while let Some(id) = stack.pop() {
            let node = self.read_node_buf(id)?;
            let lvl = node.level() as usize;
            if stats.nodes_per_level.len() <= lvl {
                stats.nodes_per_level.resize(lvl + 1, 0);
                stats.entries_per_level.resize(lvl + 1, 0);
            }
            stats.nodes_per_level[lvl] += 1;
            stats.entries_per_level[lvl] += node.len() as u64;
            stats.node_blocks += self.node_blocks(node.level()) as u64;
            fills += node.len() as f64 / cap;
            nodes += 1;
            if !node.is_leaf() {
                stack.extend(node.children());
            }
        }
        stats.avg_fill = fills / nodes as f64;
        Ok(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{RTreeConfig, UnitPayload};
    use ir2_geo::{Point, Rect};
    use ir2_storage::MemDevice;

    fn grid_tree(n: u64) -> RTree<2, MemDevice, UnitPayload> {
        let tree = RTree::create(MemDevice::new(), RTreeConfig::with_max(4), UnitPayload).unwrap();
        for i in 0..n {
            let p = Point::new([(i % 10) as f64, (i / 10) as f64]);
            tree.insert(i, Rect::from_point(p), &[]).unwrap();
        }
        tree
    }

    #[test]
    fn empty_window_and_empty_tree() {
        let empty =
            RTree::<2, _, _>::create(MemDevice::new(), RTreeConfig::with_max(4), UnitPayload)
                .unwrap();
        assert_eq!(empty.stats().unwrap(), TreeStats::default());
    }

    #[test]
    fn stats_reflect_structure() {
        let tree = grid_tree(100);
        let stats = tree.stats().unwrap();
        assert_eq!(stats.entries_per_level[0], 100);
        assert_eq!(stats.nodes_per_level.len(), tree.height() as usize);
        assert!(stats.avg_fill > 0.3 && stats.avg_fill <= 1.0);
        // Each upper level's entry count equals the node count below it.
        for lvl in 1..stats.nodes_per_level.len() {
            assert_eq!(stats.entries_per_level[lvl], stats.nodes_per_level[lvl - 1]);
        }
    }
}
