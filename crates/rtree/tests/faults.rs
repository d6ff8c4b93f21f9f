//! Fault injection over `RTree::delete`: every mutation is staged and only
//! published when all its I/O succeeds, so a device failure at *any* point
//! during a delete workload must leave the tree consistent — the committed
//! prefix of deletes applied, the failed one fully rolled back, structural
//! invariants intact, and every surviving object still findable.
//!
//! And over node reads: a multi-block node is read block by block into one
//! buffer, so a corrupt or unreadable block anywhere in its extent must fail
//! the read as a whole and say which block it was.
//!
//! And over the node cache: a mutation that fails invalidates nothing.

use ir2_geo::{Point, Rect};
use std::sync::Arc;

use ir2_rtree::{NodeCache, RTree, RTreeConfig, UnitPayload};
use ir2_storage::testing::{FaultDevice, FaultPlan};
use ir2_storage::{BlockDevice, MemDevice, StorageError};

const N: usize = 24;

fn rects() -> Vec<Rect<2>> {
    (0..N)
        .map(|i| Rect::from_point(Point::new([i as f64, (i * 7 % 13) as f64])))
        .collect()
}

/// Sweeps the I/O budget from zero upward: each iteration rebuilds the same
/// tree, then runs the delete workload until the budget runs dry. Whatever
/// the failure point, the tree must be exactly "all objects minus the
/// deletes that returned Ok".
#[test]
fn delete_is_atomic_at_every_io_failure_point() {
    let all = rects();
    let mut budget = 0u64;
    loop {
        let dev = FaultPlan::new().wrap(MemDevice::new());
        let tree = RTree::create(dev, RTreeConfig::with_max(4), UnitPayload).unwrap();
        for (i, r) in all.iter().enumerate() {
            tree.insert(i as u64, *r, &[]).unwrap();
        }
        tree.device().plan().set_budget(budget);

        let mut deleted: Vec<u64> = Vec::new();
        let mut failed = false;
        for (i, r) in all.iter().enumerate() {
            match tree.delete(i as u64, r) {
                Ok(true) => deleted.push(i as u64),
                Ok(false) => panic!("existing object {i} reported missing"),
                Err(_) => {
                    failed = true;
                    break;
                }
            }
        }

        // Restore the device and audit the survivors.
        tree.device().plan().set_budget(u64::MAX);
        assert_eq!(
            tree.len(),
            (N - deleted.len()) as u64,
            "budget {budget}: count out of step with committed deletes"
        );
        tree.check_invariants(|_, _, _| true)
            .unwrap_or_else(|e| panic!("budget {budget}: invariants broken: {e}"));
        let mut got: Vec<u64> = tree
            .nearest(Point::new([0.0, 0.0]))
            .map(|hit| hit.unwrap().child)
            .collect();
        got.sort_unstable();
        let expect: Vec<u64> = (0..N as u64).filter(|id| !deleted.contains(id)).collect();
        assert_eq!(got, expect, "budget {budget}: wrong surviving set");

        if !failed {
            assert_eq!(tree.len(), 0);
            break;
        }
        budget += 1;
    }
}

/// A delete that fails must not leak or double-free blocks: retrying the
/// same delete after restoring the device succeeds and the tree stays
/// consistent.
#[test]
fn failed_delete_can_be_retried() {
    let all = rects();
    let dev = FaultPlan::new().wrap(MemDevice::new());
    let tree = RTree::create(dev, RTreeConfig::with_max(4), UnitPayload).unwrap();
    for (i, r) in all.iter().enumerate() {
        tree.insert(i as u64, *r, &[]).unwrap();
    }

    // Fail the delete somewhere in the middle of its I/O.
    tree.device().plan().set_budget(3);
    assert!(tree.delete(5, &all[5]).is_err());
    tree.device().plan().set_budget(u64::MAX);
    assert_eq!(tree.len(), N as u64, "failed delete must not change count");

    assert!(tree.delete(5, &all[5]).unwrap());
    assert_eq!(tree.len(), N as u64 - 1);
    tree.check_invariants(|_, _, _| true).unwrap();
}

/// A tree whose root is a single three-block leaf: 300 entries of 40 bytes
/// need 12 008 node bytes, and a sealed block carries 4088.
fn three_block_root() -> (RTree<2, FaultDevice<MemDevice>, UnitPayload>, u64) {
    let dev = FaultPlan::new().wrap(MemDevice::new());
    let tree = RTree::create(dev, RTreeConfig::with_max(300), UnitPayload).unwrap();
    for (i, r) in rects().iter().enumerate() {
        tree.insert(i as u64, *r, &[]).unwrap();
    }
    let root = tree.root().unwrap();
    assert_eq!(tree.node_blocks(0), 3);
    assert_eq!(tree.read_node_buf(root).unwrap().len(), N);
    (tree, root)
}

/// Every block of a multi-block node is verified where it lands in the
/// node's buffer: a flipped byte in block `j` fails both read paths with an
/// error naming block `id + j`.
#[test]
fn flipped_byte_in_any_block_of_a_node_names_that_block() {
    let (tree, root) = three_block_root();
    for j in 0..3u64 {
        let mut raw = ir2_storage::zeroed_block();
        tree.device().read_block(root + j, &mut raw).unwrap();
        raw[2000] ^= 0x04;
        tree.device().write_block(root + j, &raw).unwrap();
        match tree.read_node_buf(root).map(drop).unwrap_err() {
            StorageError::Corrupt(msg) => assert!(
                msg.starts_with(&format!("block {}: ", root + j)),
                "flip in block {j} of node {root}: {msg}"
            ),
            other => panic!("flip in block {j}: {other:?}"),
        }
        raw[2000] ^= 0x04;
        tree.device().write_block(root + j, &raw).unwrap();
    }
    assert_eq!(tree.read_node_buf(root).unwrap().len(), N);
}

/// Rewrites the header of the node at `root` through `forge` and re-seals
/// its block, so only the header's fields can give it away.
fn forge_header(
    tree: &RTree<2, FaultDevice<MemDevice>, UnitPayload>,
    root: u64,
    forge: impl Fn(&mut [u8]),
) {
    let mut raw = ir2_storage::zeroed_block();
    tree.device().read_block(root, &mut raw).unwrap();
    forge(&mut raw[..]);
    ir2_storage::page::seal(&mut raw);
    tree.device().write_block(root, &raw).unwrap();
}

fn assert_corrupt_node(
    tree: &RTree<2, FaultDevice<MemDevice>, UnitPayload>,
    root: u64,
    what: &str,
) {
    match tree.read_node_buf(root).map(drop).unwrap_err() {
        StorageError::Corrupt(msg) => {
            assert!(msg.starts_with(&format!("node {root}: ")), "{msg}");
            assert!(msg.contains(what), "{msg}");
        }
        other => panic!("a forged header must read as corrupt: {other:?}"),
    }
}

/// A CRC-valid header that claims one block more than its level's extent
/// is refused before anything past block 0 is read — not followed into the
/// neighbouring extent, nor off the end of the device.
#[test]
fn a_header_claiming_a_longer_extent_is_corrupt() {
    let (tree, root) = three_block_root();
    forge_header(&tree, root, |header| {
        header[6..8].copy_from_slice(&4u16.to_le_bytes())
    });
    assert_corrupt_node(&tree, root, "header says 4 blocks");
}

/// A CRC-valid header that claims one entry more than a node holds is
/// refused, not decoded into a phantom entry out of the padding (the three
/// blocks have room for 306 entries of this size).
#[test]
fn a_header_claiming_more_entries_than_a_node_holds_is_corrupt() {
    let (tree, root) = three_block_root();
    forge_header(&tree, root, |header| {
        header[4..6].copy_from_slice(&301u16.to_le_bytes())
    });
    assert_corrupt_node(&tree, root, "header says 301 entries");
}

/// A device failure after any number of the node's blocks fails the whole
/// read — no node decoded from a partly read extent — and the next read,
/// with the device restored, sees the full node.
#[test]
fn read_failing_mid_node_returns_no_node() {
    let (tree, root) = three_block_root();
    for reads_allowed in 0..3 {
        tree.device().plan().set_budget(reads_allowed);
        assert!(matches!(
            tree.read_node_buf(root),
            Err(StorageError::Io { .. })
        ));
    }
    tree.device().plan().set_budget(u64::MAX);
    assert_eq!(tree.read_node_buf(root).unwrap().len(), N);
}

/// A mutation that fails part-way has written only extents no committed
/// tree references, and publishes nothing — so it costs the node cache
/// nothing either: at every failure point of an insert and of a delete,
/// the next traversal is served the pre-mutation tree entirely from the
/// images cached before it.
#[test]
fn failed_mutation_leaves_the_cache_serving_the_old_tree() {
    let all = rects();
    let dev = FaultPlan::new().wrap(MemDevice::new());
    let mut tree = RTree::create(dev, RTreeConfig::with_max(4), UnitPayload).unwrap();
    tree.set_node_cache(Arc::new(NodeCache::new(256)));
    for (i, r) in all.iter().enumerate() {
        tree.insert(i as u64, *r, &[]).unwrap();
    }
    let cache = Arc::clone(tree.node_cache().unwrap());
    let q = Point::new([4.0, 4.0]);
    let mut expect: Vec<u64> = tree.nearest(q).map(|r| r.unwrap().child).collect();
    let mut invalidated = cache.invalidated();

    let probe = Rect::from_point(Point::new([4.5, 4.5]));
    type Tree = RTree<2, FaultDevice<MemDevice>, UnitPayload>;
    let mutations: [&dyn Fn(&Tree) -> bool; 2] = [&|t| t.insert(999, probe, &[]).is_ok(), &|t| {
        t.delete(7, &all[7]).is_ok()
    }];
    for (m, mutate) in mutations.iter().enumerate() {
        let mut failures = 0;
        for budget in 0.. {
            tree.device().plan().set_budget(budget);
            let done = mutate(&tree);
            tree.device().plan().set_budget(u64::MAX);
            if done {
                break;
            }
            failures += 1;
            assert_eq!(
                cache.invalidated(),
                invalidated,
                "mutation {m}, budget {budget}: a rollback invalidated something"
            );
            let mut it = tree.nearest(q);
            let got: Vec<u64> = it.by_ref().map(|r| r.unwrap().child).collect();
            assert_eq!(got, expect, "mutation {m}, budget {budget}");
            assert_eq!(
                it.cache_hits(),
                it.nodes_read(),
                "mutation {m}, budget {budget}"
            );
        }
        assert!(failures > 3, "mutation {m} never failed");
        // The mutation went through: take the new tree as the baseline.
        expect = tree.nearest(q).map(|r| r.unwrap().child).collect();
        invalidated = cache.invalidated();
    }
}
