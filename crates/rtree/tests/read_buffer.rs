//! A search reads every node its node cache does not serve into one buffer
//! of its own (`RTree::read_node_into`, then `NodeBuf::into_bytes`).
//! Whatever that buffer held before — a larger node, or the first blocks of
//! a read that failed — must never show through in the next node read into
//! it; and a miss a full cache does not take keeps the buffer.

use std::sync::Arc;

use ir2_geo::{Point, Rect};
use ir2_rtree::{NodeBuf, NodeCache, RTree, RTreeConfig, UnitPayload};
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

/// With a node cache smaller than the tree, a search's reader installs the
/// nodes it misses until the cache is full, then reads every other miss
/// into its one page: the page is served in place, equal to a fresh read,
/// and each such miss reuses the buffer of the one before (largest node
/// first, so no later read needs more room). Nothing more is installed.
/// After each read the test takes an allocation of the page's size, which
/// a buffer freed between reads would most likely hand it, so that a read
/// into a fresh buffer would land at a new address.
#[test]
fn a_miss_a_full_cache_does_not_take_reuses_the_search_buffer() {
    let mut tree = RTree::create(
        MemDevice::new(),
        RTreeConfig::with_max(CAPACITY),
        UnitPayload,
    )
    .unwrap();
    for i in 0..3 * CAPACITY {
        tree.insert(i as u64, point(i), &[]).unwrap();
    }
    tree.set_node_cache(Arc::new(NodeCache::new(1)));
    let cache = Arc::clone(tree.node_cache().unwrap());
    let mut leaves: Vec<(usize, u64)> = {
        let root = tree.read_node_buf(tree.root().unwrap()).unwrap();
        assert!(
            !root.is_leaf() && root.len() >= 4,
            "a tree of several leaves"
        );
        root.children()
            .map(|id| (tree.read_node_buf(id).unwrap().len(), id))
            .collect()
    };
    leaves.sort_unstable_by(|a, b| b.cmp(a));

    let mut reader = tree.reader();
    let root = reader.root().unwrap();
    let (image, hit) = reader.read(root).unwrap();
    assert!(!hit && image.page().is_some());
    assert!(cache.get(root).is_some(), "the first miss fills the cache");
    let mut buffer = None;
    let mut held: Vec<Vec<u8>> = Vec::new();
    for pass in 0..2 {
        for &(_, leaf) in &leaves {
            let (image, hit) = reader.read(leaf).unwrap();
            assert!(!hit, "pass {pass}: leaf {leaf} is never installed");
            let page = image.page().expect("a miss is served as the page");
            let at = page.payload_region().0.as_ptr();
            assert_eq!(*buffer.get_or_insert(at), at, "pass {pass}: leaf {leaf}");
            let read = contents(page.clone());
            held.push(Vec::with_capacity(read.3.len()));
            assert_eq!(read, contents(tree.read_node_buf(leaf).unwrap()));
        }
        assert!(reader.read(root).unwrap().1, "pass {pass}: the root is");
    }
    drop(reader);
    assert_eq!(cache.len(), 1);
    assert_eq!(cache.hit_stats(), (2, 1 + 2 * leaves.len() as u64));
}
