//! Decoded-value cache: the storage layer's one sharded LRU, invalidated
//! key by key — the engine of the [`BufferPool`](crate::BufferPool).
//!
//! `DecodedCache<T>` holds values keyed by [`BlockId`] behind `Arc`, so
//! readers share one allocation. The buffer pool is this cache holding raw
//! 4096-byte blocks (`T = [u8; BLOCK_SIZE]`) behind a `BlockDevice` face: a
//! write-through there is `invalidate` of the block, then `insert` of its
//! new bytes. (A tree's decoded-node cache is not this type: it keeps one
//! image table per commit, `ir2_rtree::NodeCache`, and needs none of the
//! rules below.)
//!
//! # Per-key invalidation
//!
//! [`DecodedCache::invalidate`] removes exactly the keys it is given — the
//! blocks a write changed — and every other value stays resident.
//!
//! A value read *before* a write must not slip in *after* the write
//! removed its key. The cache counts invalidations in an **epoch**:
//! a reader snapshots it before reading the device and hands the snapshot
//! to [`DecodedCache::insert`], which compares it *under the key's shard
//! lock* and drops the value if any invalidation began in between.
//! `invalidate` advances the epoch first and only then takes the shard
//! locks, so for a stale value of key `K` either the insert's critical
//! section comes first and the invalidation removes what it installed, or
//! it comes second and — the shard lock ordering the two — sees the
//! advanced epoch. The epoch is one counter for the whole cache, so a
//! racing insert of an unrelated key is dropped too; that costs one
//! re-decode and keeps the rule a single comparison.
//!
//! Lock order: a shard lock is a leaf — nothing else is acquired while one
//! is held, and `invalidate` holds one shard lock at a time.
//!
//! # Sharding
//!
//! `block % N` selects one of N independently locked shards (adjacent
//! blocks land on different locks, so a sequential scan round-robins them),
//! and the configured capacity is distributed exactly (first `capacity % N`
//! shards take one extra slot). Each shard counts its own hits and misses
//! under the lock [`get`](DecodedCache::get) already holds. Capacity 0
//! constructs a pass-through that never caches and never counts.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::BlockId;

const NIL: usize = usize::MAX;

/// Default shard count for [`DecodedCache::new`] — the buffer pool's too,
/// so the two layers scale together under the batch engine.
pub const DEFAULT_DECODED_SHARDS: usize = 8;

struct Slot<T> {
    key: BlockId,
    value: Arc<T>,
    prev: usize,
    next: usize,
}

struct ShardState<T> {
    map: HashMap<BlockId, usize>,
    slots: Vec<Slot<T>>,
    /// Most recently used slot index.
    head: usize,
    /// Least recently used slot index.
    tail: usize,
    /// Lookups in this shard that found / did not find their key.
    hits: u64,
    misses: u64,
}

impl<T> ShardState<T> {
    fn new() -> Self {
        Self {
            map: HashMap::new(),
            slots: Vec::new(),
            head: NIL,
            tail: NIL,
            hits: 0,
            misses: 0,
        }
    }

    /// Drops every entry (the counters are kept).
    fn wipe(&mut self) {
        self.map.clear();
        self.slots.clear();
        self.head = NIL;
        self.tail = NIL;
    }

    fn detach(&mut self, idx: usize) {
        let (prev, next) = (self.slots[idx].prev, self.slots[idx].next);
        if prev != NIL {
            self.slots[prev].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.slots[next].prev = prev;
        } else {
            self.tail = prev;
        }
        self.slots[idx].prev = NIL;
        self.slots[idx].next = NIL;
    }

    fn push_front(&mut self, idx: usize) {
        self.slots[idx].prev = NIL;
        self.slots[idx].next = self.head;
        if self.head != NIL {
            self.slots[self.head].prev = idx;
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

    /// Installs `value` under `key`, evicting this shard's LRU victim if
    /// the shard is at `capacity`.
    fn install(&mut self, capacity: usize, key: BlockId, value: Arc<T>) {
        if let Some(&idx) = self.map.get(&key) {
            self.slots[idx].value = value;
            self.touch(idx);
            return;
        }
        let idx = if self.slots.len() < capacity {
            self.slots.push(Slot {
                key,
                value,
                prev: NIL,
                next: NIL,
            });
            self.slots.len() - 1
        } else {
            let victim = self.tail;
            debug_assert_ne!(victim, NIL, "capacity > 0 implies a tail");
            self.detach(victim);
            let old = self.slots[victim].key;
            self.map.remove(&old);
            self.slots[victim].key = key;
            self.slots[victim].value = value;
            victim
        };
        self.map.insert(key, idx);
        self.push_front(idx);
    }

    /// Drops the entry under `key`, if there is one, leaving the order of
    /// the others as it was. The slab stays dense: the last slot moves into
    /// the hole, and its neighbours and its map entry follow it.
    fn remove(&mut self, key: BlockId) -> bool {
        let Some(idx) = self.map.remove(&key) else {
            return false;
        };
        self.detach(idx);
        self.slots.swap_remove(idx);
        if let Some(moved) = self.slots.get(idx) {
            let (moved_key, prev, next) = (moved.key, moved.prev, moved.next);
            match prev {
                NIL => self.head = idx,
                p => self.slots[p].next = idx,
            }
            match next {
                NIL => self.tail = idx,
                n => self.slots[n].prev = idx,
            }
            self.map.insert(moved_key, idx);
        }
        true
    }
}

/// A sharded LRU cache of values keyed by [`BlockId`], invalidated key by
/// key; see the module docs.
///
/// `T` is the cached representation (the buffer pool's raw block). Values
/// are shared out as `Arc<T>`, so a hit is one clone — no allocation.
pub struct DecodedCache<T> {
    /// Per-shard slot budgets, summing to exactly the requested capacity
    /// (empty when caching is disabled).
    shard_capacities: Box<[usize]>,
    shards: Box<[Mutex<ShardState<T>>]>,
    /// Invalidations begun so far.
    epoch: AtomicU64,
    /// Values removed by [`invalidate`](DecodedCache::invalidate).
    invalidated: AtomicU64,
}

impl<T> DecodedCache<T> {
    /// A cache of `capacity` values over
    /// [`DEFAULT_DECODED_SHARDS`] shards (fewer for tiny capacities;
    /// capacity 0 disables caching entirely).
    pub fn new(capacity: usize) -> Self {
        Self::with_shards(capacity, DEFAULT_DECODED_SHARDS)
    }

    /// A cache of exactly `capacity` values split over `shards`
    /// independent locks; `shards` is clamped to `[1, capacity]` and the
    /// remainder is distributed so no shard rounds to zero slots.
    pub fn with_shards(capacity: usize, shards: usize) -> Self {
        let nshards = if capacity == 0 {
            0
        } else {
            shards.clamp(1, capacity)
        };
        let base = capacity.checked_div(nshards).unwrap_or(0);
        let extra = capacity.checked_rem(nshards).unwrap_or(0);
        Self {
            shard_capacities: (0..nshards)
                .map(|i| base + usize::from(i < extra))
                .collect(),
            shards: (0..nshards)
                .map(|_| Mutex::new(ShardState::new()))
                .collect(),
            epoch: AtomicU64::new(0),
            invalidated: AtomicU64::new(0),
        }
    }

    fn shard_of(&self, key: BlockId) -> usize {
        (key % self.shards.len() as u64) as usize
    }

    /// How many invalidations have begun. Snapshot it *before* reading the
    /// device and pass the snapshot to [`insert`](Self::insert) so a write
    /// that lands mid-read cannot publish a stale value.
    ///
    /// `Acquire`, pairing with the `Release` increment in
    /// [`invalidate`](Self::invalidate); the comparison that decides an
    /// insert is additionally ordered by the shard lock (module docs).
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Removes the values under `keys` — the blocks a write changed — and
    /// nothing else; LRU order and capacity of the rest are untouched.
    /// Advances the epoch *before* taking any shard lock, so a value
    /// decoded before this call can no longer be installed once its key
    /// has been removed (module docs, "Per-key invalidation").
    pub fn invalidate(&self, keys: impl IntoIterator<Item = BlockId>) {
        if self.shards.is_empty() {
            return;
        }
        self.epoch.fetch_add(1, Ordering::Release);
        let mut removed = 0;
        for key in keys {
            removed += u64::from(self.shards[self.shard_of(key)].lock().remove(key));
        }
        self.invalidated.fetch_add(removed, Ordering::Relaxed);
    }

    /// Looks up the decoded value for `key`, touching it in the LRU order.
    /// Counts a hit or a miss (except in the capacity-0 pass-through
    /// configuration, which never counts).
    pub fn get(&self, key: BlockId) -> Option<Arc<T>> {
        if self.shards.is_empty() {
            return None;
        }
        let mut s = self.shards[self.shard_of(key)].lock();
        if let Some(&idx) = s.map.get(&key) {
            s.touch(idx);
            s.hits += 1;
            return Some(Arc::clone(&s.slots[idx].value));
        }
        s.misses += 1;
        None
    }

    /// Installs `value` under `key`, provided the epoch is still the
    /// `snapshot` the caller took before reading and decoding the bytes.
    /// If an invalidation began in between, the value is silently dropped —
    /// it may describe an extent that has been rewritten. The comparison
    /// runs under the key's shard lock, which is what orders it against
    /// the removal of `key`.
    pub fn insert(&self, key: BlockId, snapshot: u64, value: Arc<T>) {
        if self.shards.is_empty() {
            return;
        }
        let si = self.shard_of(key);
        let mut s = self.shards[si].lock();
        if snapshot == self.epoch() {
            s.install(self.shard_capacities[si], key, value);
        }
    }

    /// Total slot capacity across shards — exactly the configured value.
    pub fn capacity(&self) -> usize {
        self.shard_capacities.iter().sum()
    }

    /// Number of independent shards (0 when caching is disabled).
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Number of values currently resident, exactly: an invalidated or
    /// evicted value is gone from the count the moment the call returns.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().map.len()).sum()
    }

    /// Whether no values are resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every cached value immediately (counters are kept; the epoch
    /// is unchanged, so this does not stop a concurrent reader installing
    /// what it read before the call).
    pub fn clear(&self) {
        for shard in &self.shards {
            shard.lock().wipe();
        }
    }

    /// Aggregate `(hits, misses)` observed by [`get`](Self::get) so far,
    /// summed over all shards.
    pub fn hit_stats(&self) -> (u64, u64) {
        self.shards.iter().fold((0, 0), |(h, m), shard| {
            let s = shard.lock();
            (h + s.hits, m + s.misses)
        })
    }

    /// `(hits, misses)` of one shard (indexes follow `key % num_shards`).
    ///
    /// Panics if `shard >= num_shards()`.
    pub fn shard_hit_stats(&self, shard: usize) -> (u64, u64) {
        let s = self.shards[shard].lock();
        (s.hits, s.misses)
    }

    /// Values removed by [`invalidate`](Self::invalidate) so far — per
    /// call, the part of its keys that was resident.
    pub fn invalidated(&self) -> u64 {
        self.invalidated.load(Ordering::Relaxed)
    }

    /// Fraction of lookups served from the cache, in `[0.0, 1.0]`; `0.0`
    /// before any lookup (never `NaN`).
    pub fn hit_rate(&self) -> f64 {
        let (hits, misses) = self.hit_stats();
        crate::metrics::ratio(hits, hits + misses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_returns_the_shared_value() {
        let cache: DecodedCache<Vec<u32>> = DecodedCache::new(8);
        assert_eq!(cache.get(5), None);
        cache.insert(5, cache.epoch(), Arc::new(vec![1, 2, 3]));
        let v = cache.get(5).expect("hit");
        assert_eq!(*v, vec![1, 2, 3]);
        assert_eq!(cache.hit_stats(), (1, 1));
        assert!((cache.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn capacity_zero_is_passthrough() {
        let cache: DecodedCache<u32> = DecodedCache::new(0);
        cache.insert(1, cache.epoch(), Arc::new(7));
        assert_eq!(cache.get(1), None);
        assert_eq!(cache.hit_stats(), (0, 0), "passthrough never counts");
        assert_eq!(cache.capacity(), 0);
    }

    #[test]
    fn capacity_distributes_the_remainder_exactly() {
        let cache: DecodedCache<u32> = DecodedCache::with_shards(9, 8);
        assert_eq!(cache.capacity(), 9);
        let cache: DecodedCache<u32> = DecodedCache::with_shards(3, 16);
        assert_eq!(cache.capacity(), 3, "shards clamp to capacity");
    }

    #[test]
    fn lru_evicts_within_a_shard() {
        // One shard, two slots: exact global LRU.
        let cache: DecodedCache<u64> = DecodedCache::with_shards(2, 1);
        let e = cache.epoch();
        cache.insert(1, e, Arc::new(1));
        cache.insert(2, e, Arc::new(2));
        assert!(cache.get(1).is_some()); // 1 becomes MRU
        cache.insert(3, e, Arc::new(3)); // evicts 2
        assert!(cache.get(2).is_none());
        assert!(cache.get(1).is_some());
        assert!(cache.get(3).is_some());
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn invalidate_drops_the_named_keys_and_nothing_else() {
        let cache: DecodedCache<u64> = DecodedCache::new(8);
        for k in 1..=4 {
            cache.insert(k, cache.epoch(), Arc::new(k * 10));
        }
        cache.invalidate([2, 4, 99]); // 99 was never resident
        assert_eq!(cache.len(), 2, "len is exact");
        assert_eq!(cache.invalidated(), 2, "only resident values count");
        assert_eq!(cache.get(2), None);
        assert_eq!(cache.get(4), None);
        assert_eq!(cache.get(1).as_deref(), Some(&10));
        assert_eq!(cache.get(3).as_deref(), Some(&30));
        // The keys serve again once re-read under the new epoch.
        cache.insert(2, cache.epoch(), Arc::new(21));
        assert_eq!(cache.get(2).as_deref(), Some(&21));
    }

    /// Removing the LRU tail, the MRU head, a middle entry or the slab's
    /// last slot leaves the others in their order and the capacity whole.
    #[test]
    fn invalidate_keeps_lru_order_and_capacity() {
        for victim in 1..=4u64 {
            // One shard, four slots. Keys land in slots 0..4 in key order;
            // the touches make the LRU order (oldest first) 2, 4, 1, 3.
            let cache: DecodedCache<u64> = DecodedCache::with_shards(4, 1);
            for k in 1..=4 {
                cache.insert(k, cache.epoch(), Arc::new(k));
            }
            assert!(cache.get(1).is_some());
            assert!(cache.get(3).is_some());
            cache.invalidate([victim]);
            assert_eq!(cache.len(), 3, "victim {victim}");
            let survivors: Vec<u64> = [2, 4, 1, 3].into_iter().filter(|&k| k != victim).collect();

            // The freed slot is capacity again: one insert evicts nobody,
            // the next evicts the oldest survivor.
            cache.insert(5, cache.epoch(), Arc::new(5));
            assert_eq!(cache.len(), 4, "victim {victim}");
            cache.insert(6, cache.epoch(), Arc::new(6));
            assert_eq!(cache.len(), 4, "victim {victim}");
            assert_eq!(cache.get(survivors[0]), None, "victim {victim}");
            for &k in &survivors[1..] {
                assert_eq!(cache.get(k).as_deref(), Some(&k), "victim {victim}");
            }
            assert!(cache.get(5).is_some() && cache.get(6).is_some());
            assert_eq!(cache.get(victim), None);
        }
    }

    #[test]
    fn invalidating_the_only_value_empties_the_shard() {
        let cache: DecodedCache<u64> = DecodedCache::with_shards(1, 1);
        cache.insert(7, cache.epoch(), Arc::new(7));
        cache.invalidate([7]);
        assert!(cache.is_empty());
        cache.insert(8, cache.epoch(), Arc::new(8));
        assert_eq!(cache.get(8).as_deref(), Some(&8));
    }

    #[test]
    fn stale_snapshot_insert_is_dropped() {
        let cache: DecodedCache<u64> = DecodedCache::new(8);
        let before = cache.epoch();
        cache.invalidate([4]); // a commit lands while the caller was decoding
        cache.insert(4, before, Arc::new(40));
        assert_eq!(cache.get(4), None, "pre-commit decode must not be cached");
        // One epoch for the whole cache: an unrelated key is dropped too.
        cache.insert(5, before, Arc::new(50));
        assert_eq!(cache.get(5), None);
    }

    #[test]
    fn clear_drops_values_but_keeps_the_epoch() {
        let cache: DecodedCache<u64> = DecodedCache::new(4);
        cache.insert(1, cache.epoch(), Arc::new(1));
        let e = cache.epoch();
        cache.clear();
        assert_eq!(cache.epoch(), e);
        assert!(cache.is_empty());
        assert_eq!(cache.get(1), None);
    }

    #[test]
    fn concurrent_readers_share_one_allocation() {
        let cache: Arc<DecodedCache<Vec<u8>>> = Arc::new(DecodedCache::new(16));
        cache.insert(3, cache.epoch(), Arc::new(vec![7; 128]));
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..100 {
                        let v = cache.get(3).expect("hit");
                        assert_eq!(v[0], 7);
                    }
                });
            }
        });
        assert_eq!(cache.hit_stats().0, 400);
    }
}
