//! Property tests for the storage substrate: devices, pools, and record
//! files against in-memory models.

use std::sync::Arc;

use ir2_storage::{BlockDevice, BufferPool, MemDevice, RecordFile, TrackedDevice, BLOCK_SIZE};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    Write { block: usize, byte: u8 },
    Read { block: usize },
}

fn arb_ops(blocks: usize) -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            (0..blocks, any::<u8>()).prop_map(|(block, byte)| Op::Write { block, byte }),
            (0..blocks).prop_map(|block| Op::Read { block }),
        ],
        1..120,
    )
}

#[derive(Debug, Clone)]
enum CacheOp {
    Read(u64),
    Write(u64, u8),
    Clear,
}

fn arb_cache_ops(blocks: u64) -> impl Strategy<Value = Vec<CacheOp>> {
    prop::collection::vec(
        prop_oneof![
            (0..blocks).prop_map(CacheOp::Read),
            (0..blocks, any::<u8>()).prop_map(|(b, v)| CacheOp::Write(b, v)),
            Just(CacheOp::Clear),
        ],
        1..200,
    )
}

proptest! {
    /// The pool's frames are, shard by shard, an LRU map from block to
    /// bytes under both ways a frame is invalidated: a write-through
    /// overwrites its block's frame and makes it most recent, and `clear`
    /// drops every frame. Every read agrees with a model of per-shard
    /// MRU-first lists in hit or miss and in bytes, so an overwrite that
    /// disturbed the order of the others, a frame that kept stale bytes or a
    /// clear that lost capacity would surface as a wrong hit, miss or value.
    #[test]
    fn decoded_cache_matches_lru_model_under_invalidation(
        ops in arb_cache_ops(14),
        capacity in 1usize..9,
        shards in 1usize..4,
    ) {
        let pool = BufferPool::with_shards(MemDevice::with_blocks(14), capacity, shards);
        let nshards = shards.min(capacity);
        prop_assert_eq!(pool.num_shards(), nshards);
        let budget = |i: usize| capacity / nshards + usize::from(i < capacity % nshards);
        let mut model: Vec<Vec<(u64, u8)>> = vec![Vec::new(); nshards];
        let mut disk = [0u8; 14];
        let mut buf = ir2_storage::zeroed_block();
        // Installs `(block, byte)` as the most recent entry of its shard.
        let install = |model: &mut Vec<Vec<(u64, u8)>>, block: u64, byte: u8| {
            let si = (block % nshards as u64) as usize;
            let shard = &mut model[si];
            match shard.iter().position(|e| e.0 == block) {
                Some(at) => {
                    shard.remove(at);
                }
                None if shard.len() == budget(si) => {
                    shard.pop();
                }
                None => {}
            }
            shard.insert(0, (block, byte));
        };
        for op in ops {
            match op {
                CacheOp::Read(block) => {
                    let si = (block % nshards as u64) as usize;
                    let resident = model[si].iter().find(|e| e.0 == block).map(|e| e.1);
                    let before = pool.shard_hit_stats(si);
                    pool.read_block(block, &mut buf).unwrap();
                    let after = pool.shard_hit_stats(si);
                    let want = if resident.is_some() { (1, 0) } else { (0, 1) };
                    prop_assert_eq!((after.0 - before.0, after.1 - before.1), want, "read {}", block);
                    prop_assert_eq!(buf[0], resident.unwrap_or(disk[block as usize]));
                    install(&mut model, block, buf[0]);
                }
                CacheOp::Write(block, byte) => {
                    let mut data = ir2_storage::zeroed_block();
                    data.fill(byte);
                    pool.write_block(block, &data).unwrap();
                    disk[block as usize] = byte;
                    install(&mut model, block, byte);
                }
                CacheOp::Clear => {
                    pool.clear();
                    model.iter_mut().for_each(Vec::clear);
                }
            }
        }
    }

    /// A buffer pool of any capacity is observationally equivalent to the
    /// bare device: every read returns the latest write.
    #[test]
    fn buffer_pool_is_transparent(ops in arb_ops(16), capacity in 0usize..20) {
        let blocks = 16u64;
        let pooled = BufferPool::new(MemDevice::with_blocks(blocks), capacity);
        let plain = MemDevice::with_blocks(blocks);
        let mut buf_a = ir2_storage::zeroed_block();
        let mut buf_b = ir2_storage::zeroed_block();
        for op in ops {
            match op {
                Op::Write { block, byte } => {
                    let mut data = ir2_storage::zeroed_block();
                    data.fill(byte);
                    pooled.write_block(block as u64, &data).unwrap();
                    plain.write_block(block as u64, &data).unwrap();
                }
                Op::Read { block } => {
                    pooled.read_block(block as u64, &mut buf_a).unwrap();
                    plain.read_block(block as u64, &mut buf_b).unwrap();
                    prop_assert_eq!(&buf_a[..], &buf_b[..]);
                }
            }
        }
    }

    /// The sharded pool's per-op hit/miss behavior equals N independent
    /// naive LRU lists, one per shard (`block % num_shards`), under
    /// write-through installs.
    #[test]
    fn sharded_pool_matches_naive_lru_model(
        ops in arb_ops(16),
        capacity in 1usize..12,
        shards in 1usize..5,
    ) {
        use std::collections::VecDeque;

        let pool = BufferPool::with_shards(MemDevice::with_blocks(16), capacity, shards);
        let nshards = pool.num_shards() as u64;
        // Per-shard budgets mirror the pool's exact distribution: the first
        // `capacity % nshards` shards take one extra frame.
        let (base, extra) = (
            pool.capacity() / pool.num_shards(),
            pool.capacity() % pool.num_shards(),
        );
        let budget = |shard: usize| base + usize::from(shard < extra);
        let mut models: Vec<VecDeque<u64>> = vec![VecDeque::new(); pool.num_shards()];
        let mut buf = ir2_storage::zeroed_block();

        for op in ops {
            let (block, is_read) = match op {
                Op::Read { block } => (block as u64, true),
                Op::Write { block, .. } => (block as u64, false),
            };
            // Model step: MRU-front list per shard, install on any access.
            let shard = (block % nshards) as usize;
            let model = &mut models[shard];
            let was_resident = match model.iter().position(|&b| b == block) {
                Some(i) => {
                    model.remove(i);
                    true
                }
                None => {
                    if model.len() == budget(shard) {
                        model.pop_back();
                    }
                    false
                }
            };
            model.push_front(block);

            let before = pool.hit_stats();
            match op {
                Op::Write { block, byte } => {
                    let mut data = ir2_storage::zeroed_block();
                    data.fill(byte);
                    pool.write_block(block as u64, &data).unwrap();
                }
                Op::Read { block } => {
                    pool.read_block(block as u64, &mut buf).unwrap();
                }
            }
            let after = pool.hit_stats();
            let expect = match (is_read, was_resident) {
                (false, _) => (0, 0), // writes never count as read hits
                (true, true) => (1, 0),
                (true, false) => (0, 1),
            };
            prop_assert_eq!((after.0 - before.0, after.1 - before.1), expect);
        }
    }

    /// Random/sequential classification: total accesses always equals the
    /// number of operations, and a strictly ascending scan from block 0 is
    /// one random access plus all-sequential.
    #[test]
    fn tracking_accounts_every_access(n in 1u64..50) {
        let dev = TrackedDevice::new(MemDevice::with_blocks(n));
        let mut buf = ir2_storage::zeroed_block();
        for i in 0..n {
            dev.read_block(i, &mut buf).unwrap();
        }
        let s = dev.stats().snapshot();
        prop_assert_eq!(s.total(), n);
        prop_assert_eq!(s.random_reads, 1);
        prop_assert_eq!(s.seq_reads, n - 1);
    }

    /// Record files return exactly what was appended, across arbitrary
    /// record sizes (including multi-block) and interleaved reads.
    #[test]
    fn record_file_model(records in prop::collection::vec(1usize..9000, 1..25)) {
        let rf = RecordFile::create(MemDevice::new());
        let mut model = Vec::new();
        for (i, len) in records.iter().enumerate() {
            let data: Vec<u8> = (0..*len).map(|j| ((i * 31 + j) % 251) as u8).collect();
            let ptr = rf.append(&data).unwrap();
            model.push((ptr, data));
            // Interleave reads of an earlier record.
            let (p, d) = &model[i / 2];
            prop_assert_eq!(&rf.get(*p).unwrap(), d);
        }
        // Full scan agrees with the model.
        let mut scanned = Vec::new();
        rf.scan(|ptr, data| {
            scanned.push((ptr, data.to_vec()));
            Ok(())
        }).unwrap();
        prop_assert_eq!(scanned, model);
    }

    /// Reopening a record file preserves all content and allows appends.
    #[test]
    fn record_file_reopen(lens in prop::collection::vec(1usize..3000, 1..15)) {
        let dev = Arc::new(MemDevice::new());
        let mut model = Vec::new();
        let state = {
            let rf = RecordFile::create(Arc::clone(&dev));
            for (i, len) in lens.iter().enumerate() {
                let data = vec![i as u8; *len];
                model.push((rf.append(&data).unwrap(), data));
            }
            rf.flush().unwrap();
            rf.state()
        };
        let rf = RecordFile::open(Arc::clone(&dev), state.0, state.1).unwrap();
        for (p, d) in &model {
            prop_assert_eq!(&rf.get(*p).unwrap(), d);
        }
        let p = rf.append(b"after reopen").unwrap();
        prop_assert_eq!(rf.get(p).unwrap(), b"after reopen".to_vec());
    }

    /// Extents pad with zeros and round-trip any payload.
    #[test]
    fn extent_roundtrip(len in 1usize..(3 * BLOCK_SIZE), fill in any::<u8>()) {
        let dev = MemDevice::new();
        let data = vec![fill; len];
        let (first, n) = ir2_storage::extent::append_extent(&dev, &data).unwrap();
        prop_assert_eq!(n as usize, len.div_ceil(BLOCK_SIZE));
        let mut block = ir2_storage::zeroed_block();
        let back: Vec<u8> = (first..first + u64::from(n))
            .flat_map(|id| {
                dev.read_block(id, &mut block).unwrap();
                *block
            })
            .collect();
        prop_assert_eq!(&back[..len], &data[..]);
        prop_assert!(back[len..].iter().all(|&b| b == 0));
    }
}
