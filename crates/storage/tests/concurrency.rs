//! Multi-threaded stress tests on the sharded [`BufferPool`]: counter
//! integrity (no lost updates), write-through visibility, and the 1:1
//! correspondence between pool misses and device reads, all under real
//! contention from many reader/writer threads; and bytes a miss read
//! before a write-through never outlive it. And on the [`RecordFile`]:
//! readers racing the one appender. And, step by step, on a pool read miss
//! racing a write-through: of its own block, which drops the install, and
//! of a block in another shard, which does not.

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Barrier;

use ir2_storage::{
    BlockDevice, BlockId, BufferPool, MemDevice, RecordFile, RecordPtr, Result, TrackedDevice,
    BLOCK_SIZE,
};

const BLOCKS: u64 = 64;

/// Deterministic content per block, so any reader can verify any block no
/// matter how writers interleave (writers re-write the same content).
fn content(id: u64) -> Box<[u8; BLOCK_SIZE]> {
    let mut b = ir2_storage::zeroed_block();
    b.fill((id % 251) as u8 ^ 0x5A);
    b
}

fn run_contended(pool_capacity: usize, shards: usize, threads: usize, ops: usize) {
    let tracked = TrackedDevice::new(MemDevice::with_blocks(BLOCKS));
    let device_stats = tracked.stats();
    let pool = BufferPool::with_shards(tracked, pool_capacity, shards);
    for id in 0..BLOCKS {
        pool.write_block(id, &content(id)).unwrap();
    }
    device_stats.reset(); // count only the contended phase below

    let total_reads = AtomicU64::new(0);
    let total_writes = AtomicU64::new(0);
    std::thread::scope(|s| {
        for t in 0..threads {
            let (pool, total_reads, total_writes) = (&pool, &total_reads, &total_writes);
            s.spawn(move || {
                // Per-thread xorshift stream — no shared RNG lock to
                // accidentally serialize the threads we mean to contend.
                let mut state = 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(t as u64 + 1) | 1;
                let mut buf = ir2_storage::zeroed_block();
                let (mut reads, mut writes) = (0u64, 0u64);
                for _ in 0..ops {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    let id = state % BLOCKS;
                    if state & 0xF == 0 {
                        pool.write_block(id, &content(id)).unwrap();
                        writes += 1;
                    } else {
                        pool.read_block(id, &mut buf).unwrap();
                        assert_eq!(
                            &buf[..],
                            &content(id)[..],
                            "read of block {id} returned foreign content"
                        );
                        reads += 1;
                    }
                }
                total_reads.fetch_add(reads, Ordering::Relaxed);
                total_writes.fetch_add(writes, Ordering::Relaxed);
            });
        }
    });

    // No lost updates on the hit counters: every pool-level read is either
    // a hit or a miss, never dropped or double-counted.
    let (hits, misses) = pool.hit_stats();
    assert_eq!(hits + misses, total_reads.load(Ordering::Relaxed));

    let s = device_stats.snapshot();
    // Write-through: every write reached the device.
    assert_eq!(
        s.random_writes + s.seq_writes,
        total_writes.load(Ordering::Relaxed)
    );
    // Each miss triggers exactly one device read; hits never do.
    assert_eq!(s.random_reads + s.seq_reads, misses);

    // Per-shard counters must sum to the aggregate (each access lands on
    // exactly one shard).
    let per_shard: (u64, u64) = (0..pool.num_shards())
        .map(|i| pool.shard_hit_stats(i))
        .fold((0, 0), |(h, m), (sh, sm)| (h + sh, m + sm));
    assert_eq!(per_shard, (hits, misses));
}

#[test]
fn contended_pool_counters_are_exact() {
    // Capacity 16 over 64 blocks: plenty of misses and evictions.
    run_contended(16, 8, 8, 4_000);
}

#[test]
fn contended_pool_single_shard_still_exact() {
    // One shard = one global lock: the degenerate configuration must obey
    // the same invariants (it is the pre-sharding behavior).
    run_contended(4, 1, 8, 2_000);
}

#[test]
fn contended_pool_with_more_threads_than_shards() {
    run_contended(8, 2, 12, 2_000);
}

#[test]
fn contended_pool_full_capacity_all_hits_after_warmup() {
    // Pool holds every block: after the warm-up fill, no read ever misses,
    // even with 8 threads hammering it.
    let tracked = TrackedDevice::new(MemDevice::with_blocks(BLOCKS));
    let device_stats = tracked.stats();
    let pool = BufferPool::with_shards(tracked, BLOCKS as usize, 8);
    for id in 0..BLOCKS {
        pool.write_block(id, &content(id)).unwrap();
    }
    device_stats.reset();

    std::thread::scope(|s| {
        for t in 0..8u64 {
            let pool = &pool;
            s.spawn(move || {
                let mut buf = ir2_storage::zeroed_block();
                for i in 0..1_000u64 {
                    let id = (i * 7 + t * 13) % BLOCKS;
                    pool.read_block(id, &mut buf).unwrap();
                    assert_eq!(buf[0], content(id)[0]);
                }
            });
        }
    });

    let (hits, misses) = pool.hit_stats();
    assert_eq!(misses, 0, "resident working set must never miss");
    assert_eq!(hits, 8 * 1_000);
    assert_eq!(device_stats.snapshot().total(), 0);
}

/// A device whose reads take a while, and not always the same while, so
/// that write-throughs land while a miss is reading.
struct DawdlingDevice {
    inner: MemDevice,
    reads: AtomicU32,
}

impl BlockDevice for DawdlingDevice {
    fn read_block(&self, id: BlockId, buf: &mut [u8; BLOCK_SIZE]) -> Result<()> {
        self.inner.read_block(id, buf)?;
        for _ in 0..self.reads.fetch_add(1, Ordering::Relaxed) % 256 {
            std::hint::spin_loop();
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

/// Readers miss, read the device outside the shard lock and install what
/// they read, racing a writer that writes each round's bytes through and
/// then clears the pool, so that the readers miss again: the first read
/// after that must see the round's bytes — also when a reader was in the
/// middle of a miss at the write, and installs after the clear.
#[test]
fn no_pre_commit_value_survives_its_invalidation() {
    const BLOCK: u64 = 11;
    const ROUNDS: u64 = 5_000;
    let round_bytes = |round: u64| {
        let mut b = ir2_storage::zeroed_block();
        b[..8].copy_from_slice(&round.to_le_bytes());
        b
    };
    let round_of = |b: &[u8; BLOCK_SIZE]| u64::from_le_bytes(b[..8].try_into().unwrap());
    let pool = BufferPool::new(
        DawdlingDevice {
            inner: MemDevice::with_blocks(BLOCK + 1),
            reads: AtomicU32::new(0),
        },
        8,
    );
    let done = AtomicBool::new(false);
    let start = Barrier::new(3);
    let mut stale = None;
    std::thread::scope(|s| {
        for _ in 0..2 {
            s.spawn(|| {
                start.wait();
                let mut buf = ir2_storage::zeroed_block();
                while !done.load(Ordering::Acquire) {
                    pool.read_block(BLOCK, &mut buf).unwrap();
                }
            });
        }
        start.wait();
        // The verdict is asserted outside the scope: a panic in here would
        // leave the readers spinning and the scope waiting for them.
        let mut buf = ir2_storage::zeroed_block();
        for round in 1..=ROUNDS {
            pool.write_block(BLOCK, &round_bytes(round)).unwrap();
            pool.clear();
            pool.read_block(BLOCK, &mut buf).unwrap();
            if round_of(&buf) != round {
                stale = Some((round, round_of(&buf)));
                break;
            }
        }
        done.store(true, Ordering::Release);
    });
    assert_eq!(
        stale, None,
        "(round, value): bytes read before a write-through outlived it"
    );
    assert!(pool.hit_stats().0 > 0, "no read was served from a frame");
}

/// Readers race the appender over every pointer it has published — some
/// long on the device (their block lent while the tail block is rewritten
/// beside them), some still in the tail (flushed on demand). Each record's
/// bytes are a function of its index, so a torn or stale read shows as a
/// wrong payload and a half-published one as `Corrupt`.
#[test]
fn readers_racing_append_see_whole_records() {
    const RECORDS: u64 = 4_000;
    // Lengths cross block boundaries often: lent and assembled reads both.
    let payload = |i: u64| vec![(i % 251) as u8 + 1; 1 + (i as usize * 37) % 1_500];
    let file = RecordFile::create(MemDevice::new());
    let published: Vec<AtomicU64> = (0..RECORDS).map(|_| AtomicU64::new(u64::MAX)).collect();
    let count = AtomicU64::new(0);
    let start = Barrier::new(3);

    std::thread::scope(|s| {
        s.spawn(|| {
            start.wait();
            for i in 0..RECORDS {
                let ptr = file.append(&payload(i)).unwrap();
                published[i as usize].store(ptr.0, Ordering::Relaxed);
                // Publishes the pointer stored just above.
                count.store(i + 1, Ordering::Release);
            }
        });
        for reader in 0..2u64 {
            let (file, published, count, start) = (&file, &published, &count, &start);
            s.spawn(move || {
                start.wait();
                let mut scratch = Vec::new();
                let mut x = 0x9E37_79B9_7F4A_7C15 ^ reader;
                let mut reads = 0u64;
                loop {
                    let n = count.load(Ordering::Acquire);
                    if n == 0 {
                        std::hint::spin_loop();
                        continue;
                    }
                    // Favour the newest records, where the race is.
                    x = x
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    let i = n - 1 - (x >> 33) % n.min(8);
                    let ptr = RecordPtr(published[i as usize].load(Ordering::Relaxed));
                    let whole = file
                        .read_with(ptr, &mut scratch, |bytes| bytes == &payload(i)[..])
                        .unwrap_or_else(|e| panic!("record {i} of {n} at {ptr:?}: {e}"));
                    assert!(whole, "record {i} of {n} at {ptr:?} read torn");
                    reads += 1;
                    if n == RECORDS && reads > RECORDS {
                        break;
                    }
                }
            });
        }
    });
}

/// A device whose next read, once armed, pauses after it has read its
/// bytes: it meets `gate` once to say it has read, and once more before it
/// returns them.
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

/// A read miss fetches old bytes, a write-through of the same block lands
/// (device, then pool), and only then does the miss re-lock to install:
/// the pool must keep the written bytes, not the ones the miss read.
#[test]
fn a_read_miss_never_installs_bytes_older_than_a_write_through() {
    let block = |byte: u8| {
        let mut b = ir2_storage::zeroed_block();
        b.fill(byte);
        b
    };
    let dev = PausingDevice {
        inner: MemDevice::with_blocks(1),
        armed: AtomicBool::new(true),
        gate: Barrier::new(2),
    };
    dev.inner.write_block(0, &block(0xAA)).unwrap();
    let pool = BufferPool::with_shards(dev, 4, 1);
    let mut buf = ir2_storage::zeroed_block();

    std::thread::scope(|s| {
        let reader = s.spawn(|| {
            let mut buf = ir2_storage::zeroed_block();
            pool.read_block(0, &mut buf).unwrap();
            buf
        });
        pool.inner().gate.wait(); // the miss has read 0xAA
        pool.write_block(0, &block(0xBB)).unwrap();
        pool.inner().gate.wait(); // let it re-lock
        let read = reader.join().unwrap();
        assert!(read == block(0xAA), "the miss returns what it read");
    });

    pool.inner().read_block(0, &mut buf).unwrap();
    assert!(buf == block(0xBB), "the write reached the device");
    pool.read_block(0, &mut buf).unwrap();
    assert!(
        buf == block(0xBB),
        "the pool serves {:#04x} while the device holds 0xbb",
        buf[0]
    );
    assert_eq!(
        pool.hit_stats(),
        (1, 1),
        "the write-through's bytes were cached"
    );
}

/// A miss of block 2 (shard 0 of 2) reads the device, a write-through of
/// block 1 (shard 1) lands, and only then does the miss re-lock: a write
/// counts against its own shard only, so the miss still installs and the
/// next read of block 2 is a hit.
#[test]
fn a_write_through_keeps_a_miss_in_another_shard() {
    let dev = PausingDevice {
        inner: MemDevice::with_blocks(3),
        armed: AtomicBool::new(true),
        gate: Barrier::new(2),
    };
    let pool = BufferPool::with_shards(dev, 4, 2);
    let mut buf = ir2_storage::zeroed_block();

    std::thread::scope(|s| {
        let reader = s.spawn(|| {
            let mut buf = ir2_storage::zeroed_block();
            pool.read_block(2, &mut buf).unwrap();
        });
        pool.inner().gate.wait(); // the miss of block 2 has read
        pool.write_block(1, &content(1)).unwrap();
        pool.inner().gate.wait(); // let it re-lock
        reader.join().unwrap();
    });

    pool.read_block(2, &mut buf).unwrap();
    assert_eq!(
        pool.shard_hit_stats(0),
        (1, 1),
        "the miss of block 2 was installed despite the write to block 1"
    );
}
