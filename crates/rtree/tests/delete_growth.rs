//! What a delete may cost in device growth.
//!
//! CondenseTree re-inserts the leaf entries of a dissolved node one by one
//! inside the delete's own mutation. Every re-insertion rewrites the root
//! path; if each rewrite were copied to a fresh extent, a delete would
//! allocate one root extent per orphan and free none of them before commit
//! — with level-dependent extents (the MIR²-Tree's) gigabytes at full
//! scale. A node the mutation already relocated is overwritten in place
//! instead, so growth is bounded by the nodes a delete touches, not by the
//! orphans it re-inserts.

use ir2_geo::{Point, Rect};
use ir2_rtree::{PayloadOps, RTree, RTreeConfig};
use ir2_storage::{MemDevice, BLOCK_SIZE};

/// Payloads that lengthen toward the root like the MIR²-Tree's, with
/// nothing in them: node extents of 1, 2 and 9 blocks at levels 0, 1, 2.
struct Ladder;

impl PayloadOps for Ladder {
    fn entry_size(&self, node_level: u16) -> usize {
        [16, 512, 4096][node_level.min(2) as usize]
    }

    fn merge(&self, _node_level: u16, _acc: &mut [u8], _other: &[u8]) {}

    fn summarize_entries(
        &self,
        node_level: u16,
        _entry_payloads: &mut dyn Iterator<Item = &[u8]>,
    ) -> Option<Vec<u8>> {
        Some(vec![0; self.entry_size(node_level + 1)])
    }

    fn summarize_objects(
        &self,
        _parent_level: u16,
        _objects: &mut dyn Iterator<Item = u64>,
    ) -> Vec<u8> {
        unreachable!("Ladder summaries always fold from entries")
    }

    fn lift_object(&self, _child: u64, _leaf_payload: &[u8], node_level: u16) -> Vec<u8> {
        vec![0; self.entry_size(node_level)]
    }
}

#[test]
fn a_delete_that_dissolves_an_internal_node_grows_the_device_by_a_few_paths() {
    // 208 objects at fanout 8 bulk-load into 26 full leaves under level-1
    // nodes of 8, 8, 8 and 2 children: the last one is below the minimum
    // fill of 3 and dissolves on the first delete beneath it.
    let tree = RTree::create(MemDevice::new(), RTreeConfig::with_max(8), Ladder).unwrap();
    let items = (0..208u64)
        .map(|i| {
            let p = Point::new([(i * 37 % 211) as f64, (i * 101 % 197) as f64]);
            (i, Rect::from_point(p), vec![0; 16])
        })
        .collect();
    tree.bulk_load(items).unwrap();
    assert_eq!(tree.height(), 3);
    assert_eq!(
        (0..3).map(|l| tree.node_blocks(l)).collect::<Vec<_>>(),
        [1, 2, 9]
    );

    let root = tree.read_node_buf(tree.root().unwrap()).unwrap();
    let last = tree.read_node_buf(root.child(root.len() - 1)).unwrap();
    assert_eq!(last.len(), 2, "the under-full level-1 node");
    let leaf = tree.read_node_buf(last.child(0)).unwrap();

    let before = tree.size_bytes();
    assert!(tree.delete(leaf.child(0), &leaf.rect(0)).unwrap());
    let grown = tree.size_bytes() - before;

    // 15 orphans went back in. Copying the root path per orphan costs
    // 15 × (9 + 2 + 1) = 180 blocks and more; relocating each touched node
    // once costs 19, under height × the largest extent = 27.
    let bound = tree.height() as u64 * tree.node_blocks(2) as u64 * BLOCK_SIZE as u64;
    assert!(
        grown <= bound,
        "one delete grew the device by {grown} bytes, more than {bound}"
    );
    assert_eq!(tree.len(), 207);
    assert_eq!(tree.check_invariants(|_, _, _| true).unwrap(), 207);
}
