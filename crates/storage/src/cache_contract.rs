//! The cache contract [`BufferPool`](crate::BufferPool)'s frames carry,
//! checked through the pool's public API. The module keeps the name of the
//! generic decoded-value cache these tests were first written against; the
//! pool's frames took that cache's job, and each test checks the same
//! promise on them: a hit serves the cached bytes, capacity 0 passes
//! through, the capacity split is exact, each shard is an exact LRU,
//! `clear` drops frames but keeps the counters, a miss that raced a write
//! in its shard is not installed, and concurrent hits are counted exactly.

mod tests {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Barrier;

    use crate::{BlockDevice, BlockId, BufferPool, MemDevice, Result, TrackedDevice, BLOCK_SIZE};

    fn block_of(byte: u8) -> Box<[u8; BLOCK_SIZE]> {
        let mut b = crate::zeroed_block();
        b.fill(byte);
        b
    }

    /// While armed, the next read stops twice at `gate` after reading the
    /// device: the first meeting says the read is done, the second lets it
    /// return.
    struct PausingDevice {
        inner: MemDevice,
        armed: AtomicBool,
        gate: Barrier,
    }

    impl BlockDevice for PausingDevice {
        fn read_block(&self, id: BlockId, buf: &mut [u8; BLOCK_SIZE]) -> Result<()> {
            self.inner.read_block(id, buf)?;
            if self.armed.swap(false, Ordering::SeqCst) {
                self.gate.wait();
                self.gate.wait();
            }
            Ok(())
        }

        fn write_block(&self, id: BlockId, data: &[u8; BLOCK_SIZE]) -> Result<()> {
            self.inner.write_block(id, data)
        }

        fn allocate(&self, n: u64) -> Result<BlockId> {
            self.inner.allocate(n)
        }

        fn num_blocks(&self) -> u64 {
            self.inner.num_blocks()
        }
    }

    #[test]
    fn hit_returns_the_shared_value() {
        let tracked = TrackedDevice::new(MemDevice::with_blocks(8));
        let stats = tracked.stats();
        tracked.write_block(5, &block_of(0x35)).unwrap();
        let pool = BufferPool::new(tracked, 8);
        stats.reset();

        let mut buf = crate::zeroed_block();
        pool.read_block(5, &mut buf).unwrap(); // miss: installs the frame
        pool.read_block(5, &mut buf).unwrap(); // hit: copies the frame
        assert!(buf == block_of(0x35));
        assert_eq!(
            stats.snapshot().total(),
            1,
            "only the miss reads the device"
        );
        assert_eq!(pool.hit_stats(), (1, 1));
        assert!((pool.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn capacity_zero_is_passthrough() {
        let pool = BufferPool::new(MemDevice::with_blocks(2), 0);
        pool.write_block(1, &block_of(7)).unwrap();
        let mut buf = crate::zeroed_block();
        pool.read_block(1, &mut buf).unwrap();
        pool.read_block(1, &mut buf).unwrap();
        assert_eq!(buf[0], 7);
        assert_eq!(pool.hit_stats(), (0, 0), "passthrough never counts");
        assert_eq!(pool.capacity(), 0);
    }

    #[test]
    fn capacity_distributes_the_remainder_exactly() {
        // 9 frames over 8 shards: shard 0 takes two, the others one each.
        let pool = BufferPool::with_shards(MemDevice::with_blocks(64), 9, 8);
        assert_eq!(pool.capacity(), 9);
        for id in 0..64 {
            pool.write_block(id, &block_of(id as u8)).unwrap();
        }
        // Resident now: 48 and 56 in shard 0, 57..=63 in the others.
        let mut buf = crate::zeroed_block();
        for id in (48..64).rev() {
            pool.read_block(id, &mut buf).unwrap();
        }
        assert_eq!(pool.hit_stats(), (9, 7), "exactly 9 blocks were resident");
        assert_eq!(pool.shard_hit_stats(0), (2, 0));

        let pool = BufferPool::with_shards(MemDevice::new(), 3, 16);
        assert_eq!(pool.capacity(), 3, "shards clamp to capacity");
        assert_eq!(pool.num_shards(), 3);
    }

    #[test]
    fn lru_evicts_within_a_shard() {
        // Two shards of two frames: odd blocks in shard 1, even in shard 0.
        let pool = BufferPool::with_shards(MemDevice::with_blocks(6), 4, 2);
        for id in [1, 3, 0, 2] {
            pool.write_block(id, &block_of(id as u8)).unwrap();
        }
        let mut buf = crate::zeroed_block();
        pool.read_block(1, &mut buf).unwrap(); // 1 becomes MRU of shard 1
        pool.write_block(5, &block_of(5)).unwrap(); // evicts 3, not 1
        for id in [0, 2, 1, 5] {
            pool.read_block(id, &mut buf).unwrap();
            assert_eq!(buf[0], id as u8);
        }
        assert_eq!(pool.shard_hit_stats(0), (2, 0), "shard 0 lost nothing");
        assert_eq!(pool.shard_hit_stats(1), (3, 0));
        pool.read_block(3, &mut buf).unwrap();
        assert_eq!(buf[0], 3, "the evicted block is served by the device");
        assert_eq!(pool.shard_hit_stats(1), (3, 1), "block 3 was the victim");
    }

    #[test]
    fn stale_snapshot_insert_is_dropped() {
        let dev = PausingDevice {
            inner: MemDevice::with_blocks(5),
            armed: AtomicBool::new(true),
            gate: Barrier::new(2),
        };
        dev.inner.write_block(4, &block_of(40)).unwrap();
        // Two shards: blocks 2 and 4 share shard 0.
        let pool = BufferPool::with_shards(dev, 4, 2);

        std::thread::scope(|s| {
            let reader = s.spawn(|| {
                let mut buf = crate::zeroed_block();
                pool.read_block(4, &mut buf).unwrap();
                buf[0]
            });
            pool.inner().gate.wait(); // the miss of block 4 has read
            pool.write_block(2, &block_of(20)).unwrap();
            pool.inner().gate.wait(); // let it re-lock
            assert_eq!(reader.join().unwrap(), 40, "the miss returns what it read");
        });

        // One write count per shard: a write to another block of the same
        // shard drops the install too, so block 4 misses again.
        let mut buf = crate::zeroed_block();
        pool.read_block(4, &mut buf).unwrap();
        assert_eq!(buf[0], 40);
        assert_eq!(
            pool.shard_hit_stats(0),
            (0, 2),
            "the racing install was dropped"
        );
        pool.read_block(4, &mut buf).unwrap();
        pool.read_block(2, &mut buf).unwrap();
        assert_eq!(buf[0], 20);
        assert_eq!(pool.shard_hit_stats(0), (2, 2), "later installs stand");
    }

    #[test]
    fn clear_drops_values_but_keeps_the_epoch() {
        let pool = BufferPool::new(MemDevice::with_blocks(2), 4);
        pool.write_block(1, &block_of(1)).unwrap();
        let mut buf = crate::zeroed_block();
        pool.read_block(1, &mut buf).unwrap();
        assert_eq!(pool.hit_stats(), (1, 0));
        pool.clear();
        assert_eq!(pool.hit_stats(), (1, 0), "clear keeps the counters");
        pool.read_block(1, &mut buf).unwrap();
        assert_eq!(buf[0], 1);
        assert_eq!(pool.hit_stats(), (1, 1), "the cleared block misses");
        pool.read_block(1, &mut buf).unwrap();
        assert_eq!(pool.hit_stats(), (2, 1), "and its miss installs again");
    }

    #[test]
    fn concurrent_readers_share_one_allocation() {
        let tracked = TrackedDevice::new(MemDevice::with_blocks(4));
        let stats = tracked.stats();
        let pool = BufferPool::new(tracked, 16);
        pool.write_block(3, &block_of(7)).unwrap();
        stats.reset();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    let mut buf = crate::zeroed_block();
                    for _ in 0..100 {
                        pool.read_block(3, &mut buf).unwrap();
                        assert_eq!(buf[0], 7);
                    }
                });
            }
        });
        assert_eq!(pool.hit_stats(), (400, 0), "every read hit the one frame");
        assert_eq!(stats.snapshot().total(), 0);
    }
}
