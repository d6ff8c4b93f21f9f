//! A search without a node cache reads node after node into one buffer of
//! its own (`RTree::read_node_into`, then `NodeBuf::into_bytes`). Whatever
//! that buffer held before — a larger node, or the first blocks of a read
//! that failed — must never show through in the next node read into it.

use ir2_geo::{Point, Rect};
use ir2_rtree::{NodeBuf, RTree, RTreeConfig, UnitPayload};
use ir2_storage::{BlockDevice, FileDevice, MemDevice, StorageError};

/// 300 entries of 40 bytes fill three sealed blocks (12 008 node bytes, a
/// block carries 4 088), so a full leaf is a three-block node.
const CAPACITY: usize = 300;

fn point(i: usize) -> Rect<2> {
    Rect::from_point(Point::new([i as f64, (i * 7 % 13) as f64]))
}

/// The node's bytes and entries, to compare two reads of it.
fn contents(page: NodeBuf<2>) -> (u64, u16, Vec<(u64, Rect<2>)>, Vec<u8>) {
    let entries = (0..page.len())
        .map(|i| (page.child(i), page.rect(i)))
        .collect();
    (page.id(), page.level(), entries, page.into_bytes())
}

/// Flips one byte of block `id`; flipping it again restores the block.
fn flip(dev: &impl BlockDevice, id: u64) {
    let mut raw = ir2_storage::zeroed_block();
    dev.read_block(id, &mut raw).unwrap();
    raw[1234] ^= 0x20;
    dev.write_block(id, &raw).unwrap();
}

/// In one buffer: a full three-block node, then that node with its middle
/// block garbled (the error names the block), then nodes that fill fewer
/// blocks. Each later read equals a fresh `read_node_buf`.
fn a_reused_buffer_never_leaks_a_page<D: BlockDevice>(dev: D) {
    let tree = RTree::create(dev, RTreeConfig::with_max(CAPACITY), UnitPayload).unwrap();
    for i in 0..CAPACITY {
        tree.insert(i as u64, point(i), &[]).unwrap();
    }
    assert_eq!(tree.node_blocks(0), 3);
    let root = tree.root().unwrap();
    let mut buf = Vec::new();

    let full = tree.read_node_into(root, &mut buf).unwrap();
    assert_eq!(full.len(), CAPACITY);
    assert_eq!(
        contents(full.clone()),
        contents(tree.read_node_buf(root).unwrap())
    );
    buf = full.into_bytes();

    flip(tree.device(), root + 1);
    match tree.read_node_into(root, &mut buf).map(drop).unwrap_err() {
        StorageError::Corrupt(msg) => assert!(
            msg.starts_with(&format!("block {}: ", root + 1)),
            "a garbled middle block must be named: {msg}"
        ),
        other => panic!("a garbled block must fail the read: {other:?}"),
    }
    assert!(buf.capacity() >= 3 * 4000, "a failed read keeps the buffer");
    flip(tree.device(), root + 1);

    // One more entry splits the full leaf: the new root fills one block of
    // its three, each leaf about two.
    tree.insert(CAPACITY as u64, point(CAPACITY), &[]).unwrap();
    let root = tree.root().unwrap();
    let top = tree.read_node_into(root, &mut buf).unwrap();
    assert_eq!(top.len(), 2);
    let leaves: Vec<u64> = top.children().collect();
    assert_eq!(
        contents(top.clone()),
        contents(tree.read_node_buf(root).unwrap())
    );
    buf = top.into_bytes();
    for leaf in leaves {
        let page = tree.read_node_into(leaf, &mut buf).unwrap();
        assert!(page.len() < CAPACITY);
        assert_eq!(
            contents(page.clone()),
            contents(tree.read_node_buf(leaf).unwrap())
        );
        buf = page.into_bytes();
    }
}

#[test]
fn a_reused_buffer_never_leaks_a_page_on_a_mem_device() {
    a_reused_buffer_never_leaks_a_page(MemDevice::new());
}

#[test]
fn a_reused_buffer_never_leaks_a_page_on_a_file_device() {
    let dir = std::env::temp_dir().join(format!("ir2-rtree-read-buffer-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("tree.blocks");
    a_reused_buffer_never_leaks_a_page(FileDevice::create(&path).unwrap());
    std::fs::remove_dir_all(&dir).unwrap();
}
