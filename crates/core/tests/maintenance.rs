//! Write-path tests of the facade: the bytes a build and its inserts put on
//! the signature-tree devices, and what a delete costs in device growth.

use std::sync::Arc;

use ir2_datagen::DatasetSpec;
use ir2tree::model::{DistanceFirstQuery, ObjPtr, ObjectSource, SpatialObject};
use ir2tree::storage::{BlockDevice, MemDevice, BLOCK_SIZE};
use ir2tree::{Algorithm, DbConfig, DeviceSet, SpatialKeywordDb};

/// FNV-1a over every block of `dev`.
fn device_digest(dev: &MemDevice) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut block = [0u8; BLOCK_SIZE];
    for id in 0..dev.num_blocks() {
        dev.read_block(id, &mut block).unwrap();
        for &b in block.iter() {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// `count` Hotels-distributed objects at fanout 16 (three levels for a
/// couple of thousand objects) with a MIR² ladder that lengthens at each.
fn hotels(count: usize) -> (DatasetSpec, DbConfig) {
    let spec = DatasetSpec::hotels().scaled(count as f64 / 129_319.0);
    let config = DbConfig {
        capacity: Some(16),
        sig_bytes: 24,
        ..DbConfig::default()
    };
    (spec, config)
}

/// The signing kernel and the bulk loader's summaries changed how the
/// signature bytes are *computed*; this pins that they did not change what
/// is *written*. The four digests were taken at the commit before the
/// in-place kernel (PR 16, `ddbfed7`) with this same test body.
#[test]
fn on_disk_bytes_of_a_fixed_build_are_pinned() {
    let (spec, config) = hotels(2_000);
    assert_eq!(spec.num_objects, 2_000);
    let devices = DeviceSet::in_memory().map(|_, d| Arc::new(d));
    let mut db = SpatialKeywordDb::build(devices.clone(), spec.generate(), config).unwrap();
    assert_eq!(db.mir2_tree().height(), 3);
    let ladder: Vec<usize> = (0..3)
        .map(|level| db.mir2_tree().ops().schemes().scheme(level).byte_len())
        .collect();
    assert!(ladder[0] < ladder[1] && ladder[1] < ladder[2], "{ladder:?}");

    assert_eq!(devices.ir2.num_blocks(), 135);
    assert_eq!(devices.mir2.num_blocks(), 168);
    assert_eq!(device_digest(&devices.ir2), 0x0224_0804_3d50_148d);
    assert_eq!(device_digest(&devices.mir2), 0x3910_2059_7c38_678b);

    // Forty inserts into the 100 %-full bulk-loaded trees: leaf splits, and
    // the lifted-signature merge on every path that does not split. The
    // paper's object re-accesses and the MIR² device's block writes are
    // pinned at what they were before signing moved onto the record and
    // padding onto the sealed zero page: how a write is paid for changed,
    // not what it reads or writes.
    let mir2_writes = |db: &SpatialKeywordDb<Arc<MemDevice>>| {
        let s = db.mir2_tree().device().stats().snapshot();
        s.random_writes + s.seq_writes
    };
    let (loads, writes) = (db.object_store().loads(), mir2_writes(&db));
    for (i, obj) in spec.generate().take(40).enumerate() {
        let again = SpatialObject::new(10_000 + i as u64, obj.point, obj.text);
        db.insert(&again).unwrap();
    }
    assert_eq!(db.object_store().loads() - loads, 2_292);
    assert_eq!(mir2_writes(&db) - writes, 1_203);
    assert_eq!(devices.ir2.num_blocks(), 291);
    assert_eq!(devices.mir2.num_blocks(), 1371);
    assert_eq!(device_digest(&devices.ir2), 0xee78_a3d4_bc59_4b46);
    assert_eq!(device_digest(&devices.mir2), 0xba3b_1749_188e_6da1);
}

/// The first delete under an under-full level-1 node dissolves it and
/// re-inserts its leaf entries inside the same mutation. That used to copy
/// the MIR² root — the longest signatures in the database — once per
/// orphan and free nothing before commit (7.5 GB on Hotels ×0.1).
#[test]
fn deleting_under_a_dissolving_mir2_node_grows_the_device_by_a_few_paths() {
    // 1 850 objects pack into 116 leaves under level-1 nodes of 16 × 7 and
    // 4 children; the last is below the minimum fill of 6.
    let (spec, config) = hotels(1_850);
    let mut db = SpatialKeywordDb::build(DeviceSet::in_memory(), spec.generate(), config).unwrap();
    let tree = db.mir2_tree();
    assert_eq!(tree.height(), 3);
    let root = tree.read_node_buf(tree.root().unwrap()).unwrap();
    let last = tree.read_node_buf(root.child(root.len() - 1)).unwrap();
    assert_eq!(last.len(), 4, "the under-full level-1 node");
    let leaf = tree.read_node_buf(last.child(0)).unwrap();
    let victim = ObjPtr(leaf.child(0));
    let path_blocks: u64 = (0..3).map(|level| tree.node_blocks(level) as u64).sum();
    let orphans = 1_850 - 112 * 16 - 1;

    let before = db.index_sizes().mir2;
    assert!(db.delete(victim).unwrap());
    let grown = db.index_sizes().mir2 - before;
    let bound = 3 * path_blocks * BLOCK_SIZE as u64;
    assert!(
        grown <= bound,
        "one delete grew the MIR² device by {grown} bytes, more than {bound} \
         ({orphans} orphans, a root path is {path_blocks} blocks)"
    );

    assert!(db.check_integrity().ok(), "{:?}", db.check_integrity());
    db.save_catalog().unwrap();
    let word = spec.keyword_of_rank(3);
    let q = DistanceFirstQuery::new([0.0, 0.0], &[word.as_str()], 1_850);
    let reference = db.distance_first(Algorithm::RTree, &q).unwrap();
    let mir2 = db.distance_first(Algorithm::Mir2, &q).unwrap();
    let ids = |r: &ir2tree::QueryReport| r.results.iter().map(|(o, _)| o.id).collect::<Vec<_>>();
    assert!(!reference.results.is_empty());
    assert_eq!(ids(&mir2), ids(&reference));
}

/// The delete path's bytes: a fixed history of deletes on the 2 000-object
/// build — one object from each leaf under the root's last level-1 node,
/// a commit, then a leaf drained until its last delete dissolves it and
/// re-inserts its five survivors — pins what every tree device holds. The
/// commits between phases hand freed extents back, so the history also
/// pins the order in which extents are allocated, freed and reused. The
/// values were taken before the write path stopped decoding a page into
/// an owned node.
#[test]
fn on_disk_bytes_of_a_fixed_delete_history_are_pinned() {
    let (spec, config) = hotels(2_000);
    let devices = DeviceSet::in_memory().map(|_, d| Arc::new(d));
    let mut db = SpatialKeywordDb::build(devices.clone(), spec.generate(), config).unwrap();
    let min_fill = db.mir2_tree().config().min_entries;
    let (root, height) = (db.mir2_tree().root().unwrap(), db.mir2_tree().height());
    assert_eq!((height, min_fill), (3, 6));
    let node =
        |db: &SpatialKeywordDb<Arc<MemDevice>>, id| db.mir2_tree().read_node_buf(id).unwrap();

    let root_node = node(&db, root);
    let last = node(&db, root_node.child(root_node.len() - 1));
    let scattered: Vec<ObjPtr> = (0..last.len())
        .map(|i| ObjPtr(node(&db, last.child(i)).child(0)))
        .collect();
    let first_leaf = |db: &SpatialKeywordDb<Arc<MemDevice>>| {
        let root = node(db, db.mir2_tree().root().unwrap());
        node(db, node(db, root.child(0)).child(0))
    };
    let drained: Vec<ObjPtr> = {
        let leaf = first_leaf(&db);
        (0..16 - min_fill + 1)
            .map(|i| ObjPtr(leaf.child(i)))
            .collect()
    };

    for &ptr in &scattered {
        assert!(db.delete(ptr).unwrap());
    }
    db.save_catalog().unwrap();
    let (last_victim, drain) = drained.split_last().unwrap();
    for &ptr in drain {
        assert!(db.delete(ptr).unwrap());
    }
    db.save_catalog().unwrap();
    assert_eq!(first_leaf(&db).len(), min_fill, "the next delete dissolves");
    assert!(db.delete(*last_victim).unwrap());
    db.save_catalog().unwrap();
    assert!(db.check_integrity().ok(), "{:?}", db.check_integrity());

    assert_eq!(scattered.len(), 13);
    let pinned = |dev: &MemDevice| (dev.num_blocks(), device_digest(dev));
    assert_eq!(pinned(&devices.rtree), (174, 0x0b13_725d_ac1c_53e4));
    assert_eq!(pinned(&devices.ir2), (174, 0x0b7b_6c6b_c8f7_3f8a));
    assert_eq!(pinned(&devices.mir2), (545, 0xf1bf_b92a_7fd5_b939));
}
