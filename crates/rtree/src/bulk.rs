//! STR (sort-tile-recursive) bulk loading.
//!
//! The paper builds its trees by repeated insertion; we keep that path (it
//! is what the maintenance experiments measure) but add a bulk loader so
//! the large query experiments (hundreds of thousands of objects) can
//! construct trees in seconds. Bulk loading changes only construction
//! cost, not query-time behaviour: the result is a valid, well-packed tree
//! maintained by the same Insert/Delete afterwards.

use ir2_storage::{BlockDevice, Result, StorageError};

use crate::node::{Item, NodeBuf};
use crate::{PayloadOps, RTree};

impl<const N: usize, D: BlockDevice, P: PayloadOps> RTree<N, D, P> {
    /// Bulk loads `items` into an **empty** tree using sort-tile-recursive
    /// packing [Leutenegger et al.], filling nodes to ~100 % and computing
    /// payload summaries bottom-up.
    ///
    /// Returns an error if the tree is not empty.
    pub fn bulk_load(&self, mut items: Vec<Item<N>>) -> Result<()> {
        if self.root().is_some() {
            return Err(StorageError::Corrupt(
                "bulk_load requires an empty tree".into(),
            ));
        }
        if items.is_empty() {
            return Ok(());
        }
        for (_, _, payload) in &items {
            debug_assert_eq!(payload.len(), self.ops().entry_size(0), "leaf payload size");
        }

        let cap = self.config().max_entries;
        // Tile the items into leaf-sized runs.
        let n = items.len();
        str_tile(&mut items, 0, cap);

        // Build the leaf level, then internal levels until one node
        // remains. A level's parent entries are items of the level above.
        let mut entries = self.pack_level(0, &items, &items, cap)?;
        let (mut level, mut span) = (0u16, cap);
        while entries.len() > 1 {
            level += 1;
            span *= cap;
            entries = self.pack_level(level, &entries, &items, span)?;
        }

        self.set_meta_after_bulk(entries[0].0, level + 1, n as u64);
        Ok(())
    }

    /// Packs `entries` into nodes at `level`, `max_entries` to a node, and
    /// returns the parent entry of each node. Every node is packed full
    /// except the last of its level, so the subtree under the `j`-th node
    /// is the `j`-th run of `span` leaf `items`: a node is summarized from
    /// the run it was packed from, never read back.
    fn pack_level(
        &self,
        level: u16,
        entries: &[Item<N>],
        items: &[Item<N>],
        span: usize,
    ) -> Result<Vec<Item<N>>> {
        let cap = self.config().max_entries;
        let mut parents = Vec::with_capacity(entries.len().div_ceil(cap));
        for (chunk, run) in entries.chunks(cap).zip(items.chunks(span)) {
            let mut node = self.empty_node(self.alloc_node(level)?, level);
            for (child, rect, payload) in chunk {
                node.push(*child, rect, payload);
            }
            self.write_node(&mut node)?;
            parents.push((node.id(), node.mbr(), self.summary_of_run(&node, run)));
        }
        Ok(parents)
    }

    /// The parent-entry payload of the freshly packed `node`, whose subtree
    /// holds exactly the objects of `run`: folded from the node's entry
    /// payloads where the payload scheme allows it, signed from the run's
    /// objects otherwise — what `summary_of_node` computes, minus reading
    /// the just-written subtree back to list those objects.
    fn summary_of_run(&self, node: &NodeBuf<N>, run: &[Item<N>]) -> Vec<u8> {
        self.fold_summary(node).unwrap_or_else(|| {
            self.ops()
                .summarize_objects(node.level() + 1, &mut run.iter().map(|(c, _, _)| *c))
        })
    }
}

/// Recursively tiles `items` in place so that consecutive runs of `cap`
/// items form spatially coherent leaves: sort by the center of dimension
/// `dim`, slice into vertical slabs, recurse on the next dimension.
fn str_tile<const N: usize>(items: &mut [Item<N>], dim: usize, cap: usize) {
    let n = items.len();
    if n <= cap {
        return;
    }
    sort_by_center_dim(items, dim);
    if dim + 1 >= N {
        return; // final dimension: runs of `cap` are the leaves
    }
    // Number of leaves, and slabs per remaining dimension.
    let leaves = n.div_ceil(cap) as f64;
    let remaining = (N - dim) as f64;
    let slabs = leaves.powf(1.0 / remaining).ceil() as usize;
    let per_slab = n.div_ceil(slabs.max(1));
    let mut start = 0;
    while start < n {
        let end = (start + per_slab).min(n);
        str_tile(&mut items[start..end], dim + 1, cap);
        start = end;
    }
}

fn sort_by_center_dim<const N: usize>(items: &mut [Item<N>], dim: usize) {
    items.sort_by(|a, b| {
        let ca = a.1.center().coord(dim);
        let cb = b.1.center().coord(dim);
        ca.total_cmp(&cb)
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{RTreeConfig, UnitPayload};
    use ir2_geo::{Point, Rect};
    use ir2_storage::MemDevice;

    fn items(n: usize) -> Vec<Item<2>> {
        (0..n)
            .map(|i| {
                let p = Point::new([((i * 37) % 211) as f64, ((i * 101) % 197) as f64]);
                (i as u64, Rect::from_point(p), vec![])
            })
            .collect()
    }

    #[test]
    fn bulk_load_builds_a_valid_tree() {
        let tree = RTree::create(MemDevice::new(), RTreeConfig::with_max(8), UnitPayload).unwrap();
        tree.bulk_load(items(1000)).unwrap();
        assert_eq!(tree.len(), 1000);
        // Bulk-loaded nodes may be under Guttman's minimum at the tail;
        // only check MBR/level/count invariants via a permissive fill.
        let count = tree.check_invariants(|_, _, _| true);
        match count {
            Ok(c) => assert_eq!(c, 1000),
            Err(e) => panic!("invariants: {e}"),
        }
    }

    #[test]
    fn bulk_load_empty_and_single() {
        let tree = RTree::create(MemDevice::new(), RTreeConfig::with_max(8), UnitPayload).unwrap();
        tree.bulk_load(vec![]).unwrap();
        assert!(tree.is_empty());
        tree.bulk_load(items(1)).unwrap();
        assert_eq!(tree.len(), 1);
        assert_eq!(tree.height(), 1);
    }

    #[test]
    fn bulk_load_rejects_nonempty_tree() {
        let tree = RTree::create(MemDevice::new(), RTreeConfig::with_max(8), UnitPayload).unwrap();
        tree.insert(0, Rect::from_point(Point::new([0.0, 0.0])), &[])
            .unwrap();
        assert!(tree.bulk_load(items(10)).is_err());
    }

    #[test]
    fn bulk_loaded_tree_answers_nn_like_brute_force() {
        let data = items(500);
        let tree = RTree::create(MemDevice::new(), RTreeConfig::with_max(16), UnitPayload).unwrap();
        tree.bulk_load(data.clone()).unwrap();
        let q = Point::new([100.0, 100.0]);
        let got: Vec<u64> = tree.nearest(q).take(10).map(|r| r.unwrap().child).collect();
        let mut brute: Vec<(f64, u64)> =
            data.iter().map(|(c, r, _)| (r.min_dist(&q), *c)).collect();
        brute.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let brute_top: Vec<f64> = brute.iter().take(10).map(|(d, _)| *d).collect();
        // Compare by distance (ties may order differently).
        for (g, bd) in got.iter().zip(brute_top.iter()) {
            let gd = data.iter().find(|(c, _, _)| c == g).unwrap().1.min_dist(&q);
            assert!((gd - bd).abs() < 1e-9);
        }
    }

    #[test]
    fn insert_after_bulk_load_works() {
        let tree = RTree::create(MemDevice::new(), RTreeConfig::with_max(8), UnitPayload).unwrap();
        tree.bulk_load(items(300)).unwrap();
        for i in 300..350u64 {
            tree.insert(i, Rect::from_point(Point::new([i as f64, 0.5])), &[])
                .unwrap();
        }
        assert_eq!(tree.len(), 350);
        let all: Vec<u64> = tree
            .nearest(Point::new([0.0, 0.0]))
            .map(|r| r.unwrap().child)
            .collect();
        assert_eq!(all.len(), 350);
    }

    #[test]
    fn three_dim_bulk_load() {
        let data: Vec<Item<3>> = (0..200)
            .map(|i| {
                let p = Point::new([(i % 10) as f64, ((i / 10) % 10) as f64, (i / 100) as f64]);
                (i as u64, Rect::from_point(p), vec![])
            })
            .collect();
        let tree = RTree::create(MemDevice::new(), RTreeConfig::with_max(6), UnitPayload).unwrap();
        tree.bulk_load(data).unwrap();
        assert_eq!(tree.len(), 200);
    }
}
