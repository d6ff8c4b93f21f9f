//! STR (sort-tile-recursive) bulk loading.
//!
//! The paper builds its trees by repeated insertion; we keep that path (it
//! is what the maintenance experiments measure) but add a bulk loader so
//! the large query experiments (hundreds of thousands of objects) can
//! construct trees in seconds. Bulk loading changes only construction
//! cost, not query-time behaviour: the result is a valid, well-packed tree
//! maintained by the same Insert/Delete afterwards.

use ir2_geo::Rect;
use ir2_storage::{BlockDevice, Result, StorageError};

use crate::node::{Entry, Node};
use crate::{PayloadOps, RTree};

/// An item to bulk load: object reference, MBR, leaf payload.
type Item<const N: usize> = (u64, Rect<N>, Vec<u8>);

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

        // Build the leaf level. Every node is packed full except the last
        // of its level, so the subtree under the `j`-th node of a level is
        // the `j`-th run of `cap^(level+1)` items: a node is summarized from
        // the run it was packed from, never read back.
        let mut level_entries: Vec<Entry<N>> = Vec::with_capacity(n.div_ceil(cap));
        for run in items.chunks(cap) {
            let id = self.alloc_node(0)?;
            let node = Node {
                id,
                level: 0,
                entries: run
                    .iter()
                    .map(|(c, r, p)| Entry::new(*c, *r, p.clone()))
                    .collect(),
            };
            self.write_node(&node)?;
            level_entries.push(Entry::new(id, node.mbr(), self.summary_of_run(&node, run)));
        }

        // Build internal levels until one node remains.
        let mut level = 0u16;
        let mut span = cap;
        while level_entries.len() > 1 {
            level += 1;
            span *= cap;
            let mut next: Vec<Entry<N>> = Vec::with_capacity(level_entries.len().div_ceil(cap));
            for (chunk, run) in level_entries.chunks(cap).zip(items.chunks(span)) {
                let id = self.alloc_node(level)?;
                let node = Node {
                    id,
                    level,
                    entries: chunk.to_vec(),
                };
                self.write_node(&node)?;
                next.push(Entry::new(id, node.mbr(), self.summary_of_run(&node, run)));
            }
            level_entries = next;
        }

        let root_id = level_entries[0].child;
        self.set_meta_after_bulk(root_id, level + 1, n as u64);
        Ok(())
    }

    /// The parent-entry payload of the freshly packed `node`, whose subtree
    /// holds exactly the objects of `run`: folded from the node's entry
    /// payloads where the payload scheme allows it, signed from the run's
    /// objects otherwise — what `summary_of_node` computes, minus reading
    /// the just-written subtree back to list those objects.
    fn summary_of_run(&self, node: &Node<N>, run: &[Item<N>]) -> Vec<u8> {
        self.fold_summary(node).unwrap_or_else(|| {
            self.ops()
                .summarize_objects(node.level + 1, &mut run.iter().map(|(c, _, _)| *c))
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
    use ir2_geo::Point;
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
