//! Incremental nearest neighbor (Hjaltason & Samet \[HS99\]) — the paper's
//! Figure 3.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use ir2_geo::{OrderedF64, Point};
use ir2_storage::{BlockDevice, Result};

use crate::{NodeReader, PayloadOps, RTree};

/// One nearest-neighbor result: an object reference and its distance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NnResult {
    /// The leaf entry's object reference (`ObjPtr`).
    pub child: u64,
    /// Distance from the query point to the object's MBR.
    pub dist: f64,
}

#[derive(PartialEq, Eq)]
enum Item {
    Node(u64),
    Object(u64),
}

/// Lazily yields objects in ascending distance from a query point.
///
/// This is the `NearestNeighbor(p, U)` of the paper's Figure 3: a priority
/// queue is seeded with the root; dequeuing a node enqueues its children at
/// their MINDIST, dequeuing an object pointer reports it. Because MINDIST
/// lower-bounds the distance to everything inside an MBR, objects emerge in
/// exact distance order while only the necessary nodes are read.
///
/// One deliberate deviation from the Figure 3 pseudo-code: nodes are
/// *loaded when dequeued*, not when enqueued (`LoadNode` at line 5 of the
/// figure would read every child of each expanded node, even children the
/// search never visits). Dequeue-time loading is Hjaltason & Samet's actual
/// algorithm and touches strictly fewer blocks.
pub struct NnIter<'a, const N: usize, D, P> {
    nodes: NodeReader<'a, N, D, P>,
    query: Point<N>,
    heap: BinaryHeap<Reverse<(OrderedF64, u64, Item)>>,
    seq: u64,
    nodes_read: u64,
    cache_hits: u64,
    cache_misses: u64,
}

// Items only compare through (dist, seq), which are unique per entry.
impl Ord for Item {
    fn cmp(&self, _other: &Self) -> std::cmp::Ordering {
        std::cmp::Ordering::Equal
    }
}
impl PartialOrd for Item {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl<const N: usize, D: BlockDevice, P: PayloadOps> RTree<N, D, P> {
    /// Starts an incremental nearest-neighbor scan from `query`.
    pub fn nearest(&self, query: Point<N>) -> NnIter<'_, N, D, P> {
        let nodes = self.reader();
        let mut heap = BinaryHeap::new();
        if let Some(root) = nodes.root() {
            heap.push(Reverse((OrderedF64(0.0), 0, Item::Node(root))));
        }
        NnIter {
            nodes,
            query,
            heap,
            seq: 1,
            nodes_read: 0,
            cache_hits: 0,
            cache_misses: 0,
        }
    }
}

impl<const N: usize, D: BlockDevice, P: PayloadOps> NnIter<'_, N, D, P> {
    /// Tree nodes read so far. Counts node *visits*, so the count is the
    /// same with or without a node cache.
    pub fn nodes_read(&self) -> u64 {
        self.nodes_read
    }

    /// Of [`nodes_read`](NnIter::nodes_read), how many were served from
    /// the tree's decoded-node cache (0 without an attached cache).
    pub fn cache_hits(&self) -> u64 {
        self.cache_hits
    }

    /// Of [`nodes_read`](NnIter::nodes_read), how many had to decode the
    /// node — every visit not served by the cache, so
    /// `nodes_read == cache_hits + cache_misses` always holds.
    pub fn cache_misses(&self) -> u64 {
        self.cache_misses
    }
}

impl<const N: usize, D: BlockDevice, P: PayloadOps> Iterator for NnIter<'_, N, D, P> {
    type Item = Result<NnResult>;

    fn next(&mut self) -> Option<Self::Item> {
        while let Some(Reverse((dist, _, item))) = self.heap.pop() {
            match item {
                Item::Object(child) => {
                    return Some(Ok(NnResult {
                        child,
                        dist: dist.0,
                    }));
                }
                Item::Node(id) => {
                    let (node, hit) = match self.nodes.read(id) {
                        Ok(read) => read,
                        Err(e) => return Some(Err(e)),
                    };
                    self.nodes_read += 1;
                    self.cache_hits += u64::from(hit);
                    self.cache_misses += u64::from(!hit);
                    for i in 0..node.len() {
                        let child = node.child(i);
                        let d = OrderedF64(node.rect(i).min_dist(&self.query));
                        let item = if node.is_leaf() {
                            Item::Object(child)
                        } else {
                            Item::Node(child)
                        };
                        self.heap.push(Reverse((d, self.seq, item)));
                        self.seq += 1;
                    }
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{RTreeConfig, UnitPayload};
    use ir2_geo::Rect;
    use ir2_storage::{MemDevice, TrackedDevice};

    fn build(points: &[[f64; 2]]) -> RTree<2, MemDevice, UnitPayload> {
        let tree = RTree::create(MemDevice::new(), RTreeConfig::with_max(4), UnitPayload).unwrap();
        for (i, p) in points.iter().enumerate() {
            tree.insert(i as u64, Rect::from_point(Point::new(*p)), &[])
                .unwrap();
        }
        tree
    }

    /// The paper's Figure 1 hotel coordinates.
    fn hotels() -> Vec<[f64; 2]> {
        vec![
            [25.4, -80.1],  // H1
            [47.3, -122.2], // H2
            [35.5, 139.4],  // H3
            [39.5, 116.2],  // H4
            [51.3, -0.5],   // H5
            [40.4, -73.5],  // H6
            [-33.2, -70.4], // H7
            [-41.1, 174.4], // H8
        ]
    }

    #[test]
    fn example_1_order_is_reproduced() {
        // Example 1: NN order from [30.5, 100.0] is H4, H3, H5, H8, H6, H1, H7, H2.
        let tree = build(&hotels());
        let order: Vec<u64> = tree
            .nearest(Point::new([30.5, 100.0]))
            .map(|r| r.unwrap().child + 1) // ids are 0-based, hotels 1-based
            .collect();
        assert_eq!(order, vec![4, 3, 5, 8, 6, 1, 7, 2]);
    }

    #[test]
    fn distances_are_nondecreasing_and_exact() {
        let pts: Vec<[f64; 2]> = (0..200)
            .map(|i| [((i * 37) % 101) as f64, ((i * 53) % 89) as f64])
            .collect();
        let tree = build(&pts);
        let q = Point::new([40.0, 40.0]);
        let results: Vec<NnResult> = tree.nearest(q).map(|r| r.unwrap()).collect();
        assert_eq!(results.len(), pts.len());
        for w in results.windows(2) {
            assert!(w[0].dist <= w[1].dist);
        }
        // Compare against brute force.
        let mut brute: Vec<(f64, u64)> = pts
            .iter()
            .enumerate()
            .map(|(i, p)| (q.distance(&Point::new(*p)), i as u64))
            .collect();
        brute.sort_by(|a, b| a.0.total_cmp(&b.0));
        for (res, (bd, _)) in results.iter().zip(brute.iter()) {
            assert!((res.dist - bd).abs() < 1e-9);
        }
    }

    #[test]
    fn nodes_read_meters_the_traversal() {
        let tree = build(&hotels());
        let mut it = tree.nearest(Point::new([30.5, 100.0]));
        assert_eq!(it.nodes_read(), 0);
        it.next().unwrap().unwrap();
        assert!(it.nodes_read() >= 1);
        let total_after_first = it.nodes_read();
        it.by_ref().for_each(|r| {
            r.unwrap();
        });
        assert!(it.nodes_read() >= total_after_first);
    }

    #[test]
    fn empty_tree_yields_nothing() {
        let tree = build(&[]);
        assert_eq!(tree.nearest(Point::new([0.0, 0.0])).count(), 0);
    }

    #[test]
    fn early_termination_reads_fewer_blocks_than_full_scan() {
        let pts: Vec<[f64; 2]> = (0..500)
            .map(|i| [((i * 7919) % 1000) as f64, ((i * 104729) % 1000) as f64])
            .collect();
        let tracked = TrackedDevice::new(MemDevice::new());
        let stats = tracked.stats();
        let tree = RTree::create(tracked, RTreeConfig::with_max(8), UnitPayload).unwrap();
        for (i, p) in pts.iter().enumerate() {
            tree.insert(i as u64, Rect::from_point(Point::new(*p)), &[])
                .unwrap();
        }
        stats.reset();
        let _top1: Vec<_> = tree.nearest(Point::new([500.0, 500.0])).take(1).collect();
        let one = stats.snapshot().total();
        stats.reset();
        let _all: Vec<_> = tree.nearest(Point::new([500.0, 500.0])).collect();
        let all = stats.snapshot().total();
        assert!(
            one * 5 < all,
            "top-1 ({one} blocks) should read far less than full ({all})"
        );
    }
}
