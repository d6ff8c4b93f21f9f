//! Sharded LRU buffer pool.
//!
//! The paper measures raw disk accesses with no caching, so the experiment
//! defaults bypass the pool (capacity 0 constructs a pass-through). The
//! buffer-pool ablation (A2 in `DESIGN.md`) layers this pool between the
//! query algorithms and the tracked device to show how quickly a modest
//! cache erodes the baseline algorithms' disadvantage.
//!
//! Policy: least-recently-used eviction per shard, write-through (a write
//! updates the cached copy and the device immediately), implemented with a
//! hash map into a slab of frames linked in an intrusive LRU list — no
//! per-access allocation.
//!
//! # Sharding
//!
//! The frame table is split into N independent shards, each behind its own
//! mutex, selected by `block_id % N`. Concurrent readers touching different
//! blocks therefore take different locks instead of serializing on one —
//! the property the concurrent batch query engine
//! (`SpatialKeywordDb::run_batch`) relies on. Adjacent block ids land in
//! different shards, so a sequential scan round-robins the locks rather
//! than hammering one.
//!
//! Sharding makes eviction *local*: each shard runs LRU over its own
//! `capacity / N` frames, so the global eviction order can differ from a
//! single LRU list (a hot shard evicts blocks that a colder shard would
//! have kept). Reads remain observationally equivalent to the bare device
//! — property-tested in `tests/props.rs` — and a single-shard pool
//! (`with_shards(.., 1)`) reproduces exact global LRU for tests that need
//! it.

use std::collections::HashMap;

use parking_lot::Mutex;

use crate::{BlockDevice, BlockId, Result, BLOCK_SIZE};

const NIL: usize = usize::MAX;

/// Default shard count for [`BufferPool::new`]: enough parallelism for the
/// batch engine's default thread counts without splintering tiny pools.
pub const DEFAULT_POOL_SHARDS: usize = 8;

struct Frame {
    block: BlockId,
    data: Box<[u8; BLOCK_SIZE]>,
    prev: usize,
    next: usize,
}

struct PoolState {
    map: HashMap<BlockId, usize>,
    frames: Vec<Frame>,
    /// Most recently used frame index.
    head: usize,
    /// Least recently used frame index.
    tail: usize,
    hits: u64,
    misses: u64,
    /// Write-throughs installed in this shard so far: a read miss installs
    /// its bytes only if none landed while it was at the device.
    writes: u64,
}

impl PoolState {
    fn with_capacity(capacity: usize) -> Self {
        Self {
            map: HashMap::with_capacity(capacity),
            frames: Vec::with_capacity(capacity),
            head: NIL,
            tail: NIL,
            hits: 0,
            misses: 0,
            writes: 0,
        }
    }

    fn detach(&mut self, idx: usize) {
        let (prev, next) = (self.frames[idx].prev, self.frames[idx].next);
        if prev != NIL {
            self.frames[prev].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.frames[next].prev = prev;
        } else {
            self.tail = prev;
        }
        self.frames[idx].prev = NIL;
        self.frames[idx].next = NIL;
    }

    fn push_front(&mut self, idx: usize) {
        self.frames[idx].prev = NIL;
        self.frames[idx].next = self.head;
        if self.head != NIL {
            self.frames[self.head].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }

    fn touch(&mut self, idx: usize) {
        if self.head != idx {
            self.detach(idx);
            self.push_front(idx);
        }
    }

    /// Installs `data` as the cached copy of `block`, evicting this shard's
    /// LRU victim if the shard is full.
    fn install(&mut self, capacity: usize, block: BlockId, data: &[u8; BLOCK_SIZE]) {
        if let Some(&idx) = self.map.get(&block) {
            self.frames[idx].data.copy_from_slice(data);
            self.touch(idx);
            return;
        }
        let idx = if self.frames.len() < capacity {
            self.frames.push(Frame {
                block,
                data: crate::zeroed_block(),
                prev: NIL,
                next: NIL,
            });
            self.frames.len() - 1
        } else {
            // Evict the LRU frame and reuse it.
            let victim = self.tail;
            debug_assert_ne!(victim, NIL, "capacity > 0 implies a tail");
            self.detach(victim);
            let old = self.frames[victim].block;
            self.map.remove(&old);
            self.frames[victim].block = block;
            victim
        };
        self.frames[idx].data.copy_from_slice(data);
        self.map.insert(block, idx);
        self.push_front(idx);
    }
}

/// A sharded LRU block cache in front of a [`BlockDevice`].
///
/// Implements `BlockDevice` itself, so it can be dropped transparently into
/// any structure, and is safe to share across query threads: each shard has
/// its own lock, so concurrent accesses to different blocks do not
/// serialize. Capacity is in blocks; capacity 0 disables caching.
pub struct BufferPool<D> {
    inner: D,
    /// Per-shard frame budgets, summing to exactly the requested capacity
    /// (empty when caching is disabled).
    shard_capacities: Box<[usize]>,
    /// Empty when caching is disabled.
    shards: Box<[Mutex<PoolState>]>,
}

impl<D: BlockDevice> BufferPool<D> {
    /// Wraps `inner` with an LRU cache of at least `capacity` blocks split
    /// over [`DEFAULT_POOL_SHARDS`] shards (fewer for tiny capacities).
    pub fn new(inner: D, capacity: usize) -> Self {
        Self::with_shards(inner, capacity, DEFAULT_POOL_SHARDS)
    }

    /// Wraps `inner` with an LRU cache of exactly `capacity` blocks split
    /// over `shards` independent locks.
    ///
    /// `shards` is clamped to `[1, capacity]` so every shard owns at least
    /// one frame. The `capacity` frames are distributed evenly; when it does
    /// not divide exactly, the first `capacity % shards` shards each take
    /// one extra frame, so the budgets sum to exactly `capacity` (neither
    /// rounding some shards down to zero frames nor inflating the pool past
    /// its configured size). One shard gives exact global LRU; more shards
    /// trade strict LRU order for lock independence.
    pub fn with_shards(inner: D, capacity: usize, shards: usize) -> Self {
        let nshards = if capacity == 0 {
            0
        } else {
            shards.clamp(1, capacity)
        };
        let base = capacity.checked_div(nshards).unwrap_or(0);
        let extra = capacity.checked_rem(nshards).unwrap_or(0);
        let shard_capacities: Box<[usize]> = (0..nshards)
            .map(|i| base + usize::from(i < extra))
            .collect();
        Self {
            inner,
            shards: shard_capacities
                .iter()
                .map(|&c| Mutex::new(PoolState::with_capacity(c)))
                .collect(),
            shard_capacities,
        }
    }

    /// The wrapped device.
    pub fn inner(&self) -> &D {
        &self.inner
    }

    /// Number of independent shards (0 when caching is disabled).
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Total frame capacity across shards — exactly the capacity the pool
    /// was constructed with.
    pub fn capacity(&self) -> usize {
        self.shard_capacities.iter().sum()
    }

    #[inline]
    fn shard(&self, block: BlockId) -> usize {
        // Modulo keeps adjacent blocks on different locks (sequential scans
        // round-robin the shards) and is trivially predictable in tests.
        (block % self.shards.len() as u64) as usize
    }

    /// Aggregate `(hits, misses)` observed on reads so far, summed over all
    /// shards.
    pub fn hit_stats(&self) -> (u64, u64) {
        self.shards.iter().fold((0, 0), |(h, m), shard| {
            let s = shard.lock();
            (h + s.hits, m + s.misses)
        })
    }

    /// Fraction of reads served from the cache, in `[0.0, 1.0]`.
    ///
    /// Defined as `0.0` when no reads have happened yet (a pool that has
    /// served nothing has no hit rate, not a `NaN` one) — including the
    /// capacity-0 passthrough configuration, which never counts accesses.
    pub fn hit_rate(&self) -> f64 {
        let (hits, misses) = self.hit_stats();
        crate::metrics::ratio(hits, hits + misses)
    }

    /// `(hits, misses)` of one shard (indexes follow `block % num_shards`).
    ///
    /// Panics if `shard >= num_shards()`.
    pub fn shard_hit_stats(&self, shard: usize) -> (u64, u64) {
        let s = self.shards[shard].lock();
        (s.hits, s.misses)
    }

    /// Drops every cached block (counters are kept).
    pub fn clear(&self) {
        for shard in &self.shards {
            let mut s = shard.lock();
            s.map.clear();
            s.frames.clear();
            s.head = NIL;
            s.tail = NIL;
        }
    }
}

impl<D: BlockDevice> BlockDevice for BufferPool<D> {
    fn read_block(&self, id: BlockId, buf: &mut [u8; BLOCK_SIZE]) -> Result<()> {
        if self.shards.is_empty() {
            return self.inner.read_block(id, buf);
        }
        let si = self.shard(id);
        let writes = {
            let mut s = self.shards[si].lock();
            if let Some(&idx) = s.map.get(&id) {
                buf.copy_from_slice(&*s.frames[idx].data);
                s.touch(idx);
                s.hits += 1;
                return Ok(());
            }
            s.misses += 1;
            s.writes
        };
        // Miss: fetch outside the lock (other shards — and this one — stay
        // available to concurrent readers), then re-lock to install the
        // bytes read. A write-through that lands between the device read
        // and the re-lock has already installed newer bytes, which the ones
        // read would overwrite: the install happens only if the shard took
        // no write meanwhile. The read returns what it read either way — a
        // value the block held while it was being read.
        self.inner.read_block(id, buf)?;
        let mut s = self.shards[si].lock();
        if s.writes == writes {
            s.install(self.shard_capacities[si], id, buf);
        }
        Ok(())
    }

    fn write_block(&self, id: BlockId, data: &[u8; BLOCK_SIZE]) -> Result<()> {
        // Write-through: device first (so a device error leaves the cache
        // consistent with disk), then cache.
        self.inner.write_block(id, data)?;
        if self.shards.is_empty() {
            return Ok(());
        }
        let si = self.shard(id);
        let mut s = self.shards[si].lock();
        s.writes += 1;
        s.install(self.shard_capacities[si], id, data);
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
