//! LRU buffer pool: a [`BlockDevice`] face on a [`DecodedCache`] of raw
//! blocks.
//!
//! The paper measures raw disk accesses with no caching, so the experiment
//! defaults bypass the pool (capacity 0 is a pass-through that allocates
//! and counts nothing). The buffer-pool ablation (A2 in `DESIGN.md`) layers
//! this pool between the query algorithms and the tracked device to show
//! how quickly a modest cache erodes the baseline algorithms' disadvantage.
//!
//! Policy: write-through (device first, then cache) over the decoded-node
//! cache's LRU — its `block % N` shards, exact capacity split and per-shard
//! counters. Eviction is therefore per shard; reads stay observationally
//! equivalent to the bare device (property-tested in `tests/props.rs`), and
//! `with_shards(.., 1)` gives exact global LRU.
//!
//! A read miss reads the device outside any lock, so a write-through of the
//! same block may land before it installs. The cache's epoch rule settles
//! that race: the miss snapshots the epoch before reading, and the write
//! invalidates its block (advancing the epoch) before installing its own
//! bytes, so the older ones are dropped. The read still returns what it
//! read — a value the block held while it was being read.

use std::sync::Arc;

use crate::{BlockDevice, BlockId, DecodedCache, Result, BLOCK_SIZE};

/// Default shard count for [`BufferPool::new`]: enough parallelism for the
/// batch engine's default thread counts without splintering tiny pools.
pub const DEFAULT_POOL_SHARDS: usize = crate::DEFAULT_DECODED_SHARDS;

/// A sharded LRU block cache in front of a [`BlockDevice`].
///
/// Implements `BlockDevice` itself, so it can be dropped transparently into
/// any structure, and is safe to share across query threads: each shard has
/// its own lock, so concurrent accesses to different blocks do not
/// serialize. Capacity is in blocks; capacity 0 disables caching.
pub struct BufferPool<D> {
    inner: D,
    cache: DecodedCache<[u8; BLOCK_SIZE]>,
}

impl<D: BlockDevice> BufferPool<D> {
    /// Wraps `inner` with an LRU cache of at least `capacity` blocks split
    /// over [`DEFAULT_POOL_SHARDS`] shards (fewer for tiny capacities).
    pub fn new(inner: D, capacity: usize) -> Self {
        Self::with_shards(inner, capacity, DEFAULT_POOL_SHARDS)
    }

    /// Wraps `inner` with an LRU cache of exactly `capacity` blocks split
    /// over `shards` independent locks, clamped to `[1, capacity]` (see
    /// [`DecodedCache::with_shards`]). One shard gives exact global LRU;
    /// more shards trade strict LRU order for lock independence.
    pub fn with_shards(inner: D, capacity: usize, shards: usize) -> Self {
        Self {
            inner,
            cache: DecodedCache::with_shards(capacity, shards),
        }
    }

    /// The wrapped device.
    pub fn inner(&self) -> &D {
        &self.inner
    }

    /// Number of independent shards (0 when caching is disabled).
    pub fn num_shards(&self) -> usize {
        self.cache.num_shards()
    }

    /// Total frame capacity across shards — exactly the capacity the pool
    /// was constructed with.
    pub fn capacity(&self) -> usize {
        self.cache.capacity()
    }

    /// Aggregate `(hits, misses)` observed on reads so far, summed over all
    /// shards.
    pub fn hit_stats(&self) -> (u64, u64) {
        self.cache.hit_stats()
    }

    /// Fraction of reads served from the cache, in `[0.0, 1.0]`.
    ///
    /// Defined as `0.0` when no reads have happened yet (a pool that has
    /// served nothing has no hit rate, not a `NaN` one) — including the
    /// capacity-0 passthrough configuration, which never counts accesses.
    pub fn hit_rate(&self) -> f64 {
        self.cache.hit_rate()
    }

    /// `(hits, misses)` of one shard (indexes follow `block % num_shards`).
    ///
    /// Panics if `shard >= num_shards()`.
    pub fn shard_hit_stats(&self, shard: usize) -> (u64, u64) {
        self.cache.shard_hit_stats(shard)
    }

    /// Drops every cached block (counters are kept).
    pub fn clear(&self) {
        self.cache.clear();
    }
}

impl<D: BlockDevice> BlockDevice for BufferPool<D> {
    fn read_block(&self, id: BlockId, buf: &mut [u8; BLOCK_SIZE]) -> Result<()> {
        if self.cache.capacity() == 0 {
            return self.inner.read_block(id, buf);
        }
        if let Some(block) = self.cache.get(id) {
            buf.copy_from_slice(&*block);
            return Ok(());
        }
        // Miss: installed only if no write began meanwhile (module docs).
        let snapshot = self.cache.epoch();
        self.inner.read_block(id, buf)?;
        self.cache.insert(id, snapshot, Arc::new(*buf));
        Ok(())
    }

    fn write_block(&self, id: BlockId, data: &[u8; BLOCK_SIZE]) -> Result<()> {
        // Write-through: device first (so a device error leaves the cache
        // consistent with disk), then cache.
        self.inner.write_block(id, data)?;
        if self.cache.capacity() > 0 {
            self.cache.invalidate([id]);
            self.cache.insert(id, self.cache.epoch(), Arc::new(*data));
        }
        Ok(())
    }

    fn allocate(&self, n: u64) -> Result<BlockId> {
        self.inner.allocate(n)
    }

    fn num_blocks(&self) -> u64 {
        self.inner.num_blocks()
    }

    fn sync(&self) -> Result<()> {
        self.inner.sync()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MemDevice, TrackedDevice};

    fn block_of(byte: u8) -> Box<[u8; BLOCK_SIZE]> {
        let mut b = crate::zeroed_block();
        b.fill(byte);
        b
    }

    #[test]
    fn read_hit_skips_the_device() {
        let tracked = TrackedDevice::new(MemDevice::new());
        let stats = tracked.stats();
        let pool = BufferPool::new(tracked, 4);
        pool.allocate(2).unwrap();
        pool.write_block(0, &block_of(0xAA)).unwrap();
        stats.reset();

        let mut buf = crate::zeroed_block();
        pool.read_block(0, &mut buf).unwrap(); // cached by the write-through
        assert_eq!(buf[0], 0xAA);
        assert_eq!(stats.snapshot().total(), 0, "hit must not touch the device");
        assert_eq!(pool.hit_stats().0, 1);
    }

    #[test]
    fn hit_rate_is_zero_before_any_read() {
        let pool = BufferPool::new(MemDevice::new(), 4);
        assert_eq!(pool.hit_rate(), 0.0, "0 accesses must not yield NaN");

        // Capacity 0 (the paper's uncached configuration) never counts
        // accesses at all; the rate stays a clean 0.0 forever.
        let passthrough = BufferPool::new(MemDevice::new(), 0);
        passthrough.allocate(1).unwrap();
        let mut buf = crate::zeroed_block();
        passthrough.read_block(0, &mut buf).unwrap();
        assert_eq!(passthrough.hit_rate(), 0.0);

        // And once reads happen, the rate is the hits fraction.
        pool.allocate(1).unwrap();
        pool.write_block(0, &block_of(1)).unwrap();
        pool.read_block(0, &mut buf).unwrap(); // hit (write-through cached)
        pool.clear();
        pool.read_block(0, &mut buf).unwrap(); // miss
        assert_eq!(pool.hit_rate(), 0.5);
        assert!(pool.hit_rate().is_finite());
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        // Single shard: exact global LRU.
        let pool = BufferPool::with_shards(MemDevice::new(), 2, 1);
        pool.allocate(3).unwrap();
        for (id, byte) in [(0u64, 1u8), (1, 2), (2, 3)] {
            pool.write_block(id, &block_of(byte)).unwrap();
        }
        // Capacity 2: blocks 1 and 2 are resident, block 0 was evicted.
        let mut buf = crate::zeroed_block();
        let (h0, m0) = pool.hit_stats();
        pool.read_block(1, &mut buf).unwrap();
        pool.read_block(2, &mut buf).unwrap();
        let (h1, m1) = pool.hit_stats();
        assert_eq!((h1 - h0, m1 - m0), (2, 0));
        pool.read_block(0, &mut buf).unwrap(); // miss
        assert_eq!(buf[0], 1, "evicted block still correct via device");
        assert_eq!(pool.hit_stats().1, m1 + 1);
    }

    #[test]
    fn touch_on_read_protects_from_eviction() {
        // Single shard: exact global LRU.
        let pool = BufferPool::with_shards(MemDevice::new(), 2, 1);
        pool.allocate(3).unwrap();
        pool.write_block(0, &block_of(1)).unwrap();
        pool.write_block(1, &block_of(2)).unwrap();
        let mut buf = crate::zeroed_block();
        pool.read_block(0, &mut buf).unwrap(); // 0 becomes MRU
        pool.write_block(2, &block_of(3)).unwrap(); // evicts 1, not 0
        let (h0, _) = pool.hit_stats();
        pool.read_block(0, &mut buf).unwrap();
        assert_eq!(pool.hit_stats().0, h0 + 1, "block 0 must still be cached");
    }

    #[test]
    fn capacity_zero_is_passthrough() {
        let tracked = TrackedDevice::new(MemDevice::new());
        let stats = tracked.stats();
        let pool = BufferPool::new(tracked, 0);
        assert_eq!(pool.num_shards(), 0);
        assert_eq!(pool.capacity(), 0);
        pool.allocate(1).unwrap();
        pool.write_block(0, &block_of(9)).unwrap();
        let mut buf = crate::zeroed_block();
        pool.read_block(0, &mut buf).unwrap();
        pool.read_block(0, &mut buf).unwrap();
        assert_eq!(
            stats.snapshot().total(),
            3,
            "every access reaches the device"
        );
    }

    #[test]
    fn write_through_keeps_device_fresh() {
        let mem = std::sync::Arc::new(MemDevice::new());
        let pool = BufferPool::new(std::sync::Arc::clone(&mem), 8);
        pool.allocate(1).unwrap();
        pool.write_block(0, &block_of(0x5C)).unwrap();
        let mut buf = crate::zeroed_block();
        mem.read_block(0, &mut buf).unwrap();
        assert_eq!(buf[17], 0x5C);
    }

    #[test]
    fn failed_write_leaves_cached_copy_unchanged() {
        // Write-through ordering regression: the cache must never get ahead
        // of the disk, so a failed device write must not install the new
        // bytes in a frame.
        use crate::testing::FlakyDevice;
        let mem = std::sync::Arc::new(MemDevice::new());
        let flaky = FlakyDevice::new(std::sync::Arc::clone(&mem), u64::MAX);
        let pool = BufferPool::new(flaky, 4);
        pool.allocate(1).unwrap();
        pool.write_block(0, &block_of(0xAA)).unwrap(); // cached + on disk

        pool.inner().refill(0);
        assert!(pool.write_block(0, &block_of(0xBB)).is_err());

        // The cached copy still holds the last successfully written bytes…
        let (h0, _) = pool.hit_stats();
        let mut buf = crate::zeroed_block();
        pool.read_block(0, &mut buf).unwrap();
        assert_eq!(pool.hit_stats().0, h0 + 1, "read must be a cache hit");
        assert_eq!(buf[0], 0xAA, "cache must not be ahead of the device");
        // …and matches the device exactly.
        mem.read_block(0, &mut buf).unwrap();
        assert_eq!(buf[0], 0xAA);
    }

    #[test]
    fn clear_forgets_cached_blocks() {
        let pool = BufferPool::new(MemDevice::new(), 4);
        pool.allocate(1).unwrap();
        pool.write_block(0, &block_of(1)).unwrap();
        pool.clear();
        let mut buf = crate::zeroed_block();
        let (_, m0) = pool.hit_stats();
        pool.read_block(0, &mut buf).unwrap();
        assert_eq!(pool.hit_stats().1, m0 + 1, "read after clear is a miss");
        assert_eq!(buf[0], 1);
    }

    #[test]
    fn shards_clamp_to_capacity() {
        let pool = BufferPool::with_shards(MemDevice::new(), 3, 16);
        assert_eq!(pool.num_shards(), 3, "no shard may own zero frames");
        assert_eq!(pool.capacity(), 3);
        let pool = BufferPool::new(MemDevice::new(), 64);
        assert_eq!(pool.num_shards(), DEFAULT_POOL_SHARDS);
        assert_eq!(pool.capacity(), 64);
    }

    #[test]
    fn capacity_distributes_the_remainder_exactly() {
        // capacity 9 over 8 shards used to round each shard *up* to 2
        // frames — a pool of 16 where 9 was configured. The remainder must
        // be distributed instead: shard 0 gets the extra frame, the total
        // stays exactly 9.
        let pool = BufferPool::with_shards(MemDevice::new(), 9, 8);
        assert_eq!(pool.num_shards(), 8);
        assert_eq!(pool.capacity(), 9, "pool must hold exactly what was asked");

        // And no shard may round down to zero frames: capacity 3 over 2
        // shards is [2, 1], so shard 1 still caches.
        let pool = BufferPool::with_shards(MemDevice::new(), 3, 2);
        assert_eq!(pool.capacity(), 3);
        pool.allocate(2).unwrap();
        pool.write_block(1, &block_of(5)).unwrap(); // shard 1's only frame
        let mut buf = crate::zeroed_block();
        pool.read_block(1, &mut buf).unwrap();
        assert_eq!(
            pool.shard_hit_stats(1),
            (1, 0),
            "shard 1 must not be a passthrough"
        );

        // Shard 0 holds the extra frame: blocks 0 and 2 both stay resident.
        pool.allocate(1).unwrap();
        pool.write_block(0, &block_of(1)).unwrap();
        pool.write_block(2, &block_of(2)).unwrap();
        pool.read_block(0, &mut buf).unwrap();
        pool.read_block(2, &mut buf).unwrap();
        assert_eq!(pool.shard_hit_stats(0), (2, 0), "shard 0 owns two frames");
    }

    #[test]
    fn blocks_land_on_their_shard() {
        let pool = BufferPool::with_shards(MemDevice::new(), 8, 4);
        pool.allocate(8).unwrap();
        // Blocks 0 and 4 share shard 0; 1 goes to shard 1.
        pool.write_block(0, &block_of(1)).unwrap();
        pool.write_block(4, &block_of(2)).unwrap();
        pool.write_block(1, &block_of(3)).unwrap();
        let mut buf = crate::zeroed_block();
        pool.read_block(0, &mut buf).unwrap();
        pool.read_block(4, &mut buf).unwrap();
        pool.read_block(1, &mut buf).unwrap();
        assert_eq!(pool.shard_hit_stats(0), (2, 0));
        assert_eq!(pool.shard_hit_stats(1), (1, 0));
        assert_eq!(pool.shard_hit_stats(2), (0, 0));
        assert_eq!(pool.hit_stats(), (3, 0));
    }

    #[test]
    fn per_shard_lru_is_independent() {
        // 2 shards x 1 frame. Evictions in shard 0 must not disturb
        // shard 1's resident block.
        let pool = BufferPool::with_shards(MemDevice::new(), 2, 2);
        pool.allocate(6).unwrap();
        pool.write_block(1, &block_of(7)).unwrap(); // shard 1
        pool.write_block(0, &block_of(1)).unwrap(); // shard 0
        pool.write_block(2, &block_of(2)).unwrap(); // shard 0, evicts 0
        pool.write_block(4, &block_of(3)).unwrap(); // shard 0, evicts 2
        let mut buf = crate::zeroed_block();
        let (h0, _) = pool.hit_stats();
        pool.read_block(1, &mut buf).unwrap(); // still cached in shard 1
        assert_eq!(pool.hit_stats().0, h0 + 1);
        assert_eq!(buf[0], 7);
        pool.read_block(0, &mut buf).unwrap(); // evicted from shard 0
        assert_eq!(pool.shard_hit_stats(0).1, 1, "block 0 was evicted");
        assert_eq!(buf[0], 1, "device still serves the evicted block");
    }
}
