//! Random vs. sequential I/O accounting.
//!
//! The paper's figures plot, for every algorithm, the number of **random**
//! disk block accesses (thick bars) and **sequential** ones (thin lines),
//! observing that "execution time is primarily proportional to the random
//! access numbers". [`TrackedDevice`] reproduces that instrumentation: it
//! wraps any [`BlockDevice`] and classifies each access by comparing the
//! block id with the immediately preceding access on the same device — a
//! disk arm model. Accessing block `b` right after block `b - 1` is
//! sequential; anything else (including re-reading the same block) requires
//! a seek and counts as random.
//!
//! A query's own share is measured in an [`IoScope`]: the one per-thread
//! scope the storage layer keeps, which sees every block access the
//! entering thread makes — per device, against an arm of its own — and
//! every retry a [`RetryDevice`](crate::RetryDevice) sleeps through on that
//! thread.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::{BlockDevice, BlockId, Result, BLOCK_SIZE};

/// Sentinel for "no previous access".
const NO_PREV: u64 = u64::MAX;

/// Shared, thread-safe I/O counters.
///
/// Cloneable handles (via `Arc`) let the query layer snapshot counters
/// before and after a query and report the delta.
///
/// # Concurrency and classification
///
/// The counter *totals* are exact under concurrency (plain atomic
/// increments). The random/sequential *split*, however, models a single
/// disk arm via one shared `last_block` register: when several threads
/// interleave accesses on the same device, thread A's access can be
/// classified against thread B's arm position, so per-access
/// classification is only meaningful for single-threaded (or externally
/// serialized) workloads — which is how the paper's experiments run.
/// Subtracting two global snapshots taken around one query while other
/// queries run is worse still: the delta includes every concurrent
/// thread's traffic.
///
/// Concurrent engines that want *per-query* attribution should wrap each
/// query in an [`IoScope`], which keeps per-thread counters and a
/// per-thread arm position per device, and therefore stays deterministic
/// no matter how threads interleave.
#[derive(Debug, Default)]
pub struct IoStats {
    random_reads: AtomicU64,
    seq_reads: AtomicU64,
    random_writes: AtomicU64,
    seq_writes: AtomicU64,
    last_block: AtomicU64,
}

impl IoStats {
    /// Fresh zeroed counters.
    pub fn new() -> Self {
        Self {
            last_block: AtomicU64::new(NO_PREV),
            ..Self::default()
        }
    }

    /// Records an access to `id`, classifying it against the previous one.
    ///
    /// Note: `last_block` is shared across threads, so under concurrent
    /// access the random/sequential split of the *global* counters is
    /// interleaving-dependent (see the type-level docs). The active
    /// [`IoScope`], if any, classifies the same access against a
    /// per-thread arm position instead.
    #[inline]
    pub fn record(&self, id: BlockId, write: bool) {
        let prev = self.last_block.swap(id, Ordering::Relaxed);
        let sequential = prev != NO_PREV && id == prev.wrapping_add(1);
        let counter = match (write, sequential) {
            (false, false) => &self.random_reads,
            (false, true) => &self.seq_reads,
            (true, false) => &self.random_writes,
            (true, true) => &self.seq_writes,
        };
        counter.fetch_add(1, Ordering::Relaxed);
        scope_record(self as *const Self as usize, id, write);
    }

    /// Current counter values.
    pub fn snapshot(&self) -> IoSnapshot {
        IoSnapshot {
            random_reads: self.random_reads.load(Ordering::Relaxed),
            seq_reads: self.seq_reads.load(Ordering::Relaxed),
            random_writes: self.random_writes.load(Ordering::Relaxed),
            seq_writes: self.seq_writes.load(Ordering::Relaxed),
        }
    }

    /// Resets all counters (and the arm position) to the initial state.
    pub fn reset(&self) {
        self.random_reads.store(0, Ordering::Relaxed);
        self.seq_reads.store(0, Ordering::Relaxed);
        self.random_writes.store(0, Ordering::Relaxed);
        self.seq_writes.store(0, Ordering::Relaxed);
        self.last_block.store(NO_PREV, Ordering::Relaxed);
    }
}

/// A point-in-time copy of [`IoStats`] counters.
///
/// Supports subtraction, so `after - before` yields the I/O a single query
/// performed — the quantity the paper's figures plot.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct IoSnapshot {
    /// Block accesses that required a seek (reads).
    pub random_reads: u64,
    /// Block accesses adjacent to the previous access (reads).
    pub seq_reads: u64,
    /// Block accesses that required a seek (writes).
    pub random_writes: u64,
    /// Block accesses adjacent to the previous access (writes).
    pub seq_writes: u64,
}

impl IoSnapshot {
    /// Total random accesses (reads + writes).
    pub fn random(&self) -> u64 {
        self.random_reads + self.random_writes
    }

    /// Total sequential accesses (reads + writes).
    pub fn sequential(&self) -> u64 {
        self.seq_reads + self.seq_writes
    }

    /// Total block accesses of any kind.
    pub fn total(&self) -> u64 {
        self.random() + self.sequential()
    }

    /// Total bytes transferred.
    pub fn bytes(&self) -> u64 {
        self.total() * BLOCK_SIZE as u64
    }
}

impl std::ops::Sub for IoSnapshot {
    type Output = IoSnapshot;

    fn sub(self, rhs: IoSnapshot) -> IoSnapshot {
        IoSnapshot {
            random_reads: self.random_reads - rhs.random_reads,
            seq_reads: self.seq_reads - rhs.seq_reads,
            random_writes: self.random_writes - rhs.random_writes,
            seq_writes: self.seq_writes - rhs.seq_writes,
        }
    }
}

impl std::ops::Add for IoSnapshot {
    type Output = IoSnapshot;

    fn add(self, rhs: IoSnapshot) -> IoSnapshot {
        IoSnapshot {
            random_reads: self.random_reads + rhs.random_reads,
            seq_reads: self.seq_reads + rhs.seq_reads,
            random_writes: self.random_writes + rhs.random_writes,
            seq_writes: self.seq_writes + rhs.seq_writes,
        }
    }
}

impl std::iter::Sum for IoSnapshot {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Self::default(), |a, b| a + b)
    }
}

thread_local! {
    /// Per-thread attribution scope: one tally per device seen, so one
    /// scope can observe several devices (index, objects, ...) at once,
    /// plus the retries made on this thread.
    static ACTIVE_SCOPE: RefCell<Option<ScopedIo>> = const { RefCell::new(None) };
}

/// What one scope has seen of one device. A scope sees a handful of
/// devices (a query touches at most five), so the tallies are a `Vec`
/// scanned linearly — no hashing on the path of every block access.
#[derive(Debug, Clone, Copy)]
struct DeviceTally {
    /// The device's `IoStats` address: its identity within the scope.
    stats_addr: usize,
    /// Arm position as seen by *this thread only*.
    last: BlockId,
    counts: IoSnapshot,
}

/// Feeds one access into the current thread's scope, if one is active.
#[inline]
fn scope_record(stats_addr: usize, id: BlockId, write: bool) {
    ACTIVE_SCOPE.with(|cell| {
        let mut slot = cell.borrow_mut();
        let Some(scope) = slot.as_mut() else { return };
        let tallies = &mut scope.tallies;
        let i = tallies
            .iter()
            .position(|t| t.stats_addr == stats_addr)
            .unwrap_or_else(|| {
                tallies.push(DeviceTally {
                    stats_addr,
                    last: NO_PREV,
                    counts: IoSnapshot::default(),
                });
                tallies.len() - 1
            });
        let tally = &mut tallies[i];
        let sequential = tally.last != NO_PREV && id == tally.last.wrapping_add(1);
        tally.last = id;
        match (write, sequential) {
            (false, false) => tally.counts.random_reads += 1,
            (false, true) => tally.counts.seq_reads += 1,
            (true, false) => tally.counts.random_writes += 1,
            (true, true) => tally.counts.seq_writes += 1,
        }
    });
}

/// Feeds one retry, and the backoff slept before it, into the current
/// thread's scope, if one is active.
#[inline]
pub(crate) fn scope_record_retry(backoff: Duration) {
    ACTIVE_SCOPE.with(|cell| {
        if let Some(scope) = cell.borrow_mut().as_mut() {
            scope.retries += 1;
            scope.backoff += backoff;
        }
    });
}

/// Deterministic per-thread I/O attribution.
///
/// While a scope is active on a thread, every [`IoStats::record`] call made
/// *from that thread* is additionally tallied into the scope, classified
/// against a per-thread, per-device arm position, and every backoff sleep a
/// [`RetryDevice`](crate::RetryDevice) performs on that thread is counted.
/// Other threads' traffic is invisible to the scope, so what
/// [`IoScope::finish`] returns is exactly the I/O the enclosed code
/// performed — the property the batch query engine needs to attribute I/O
/// and retry stalls to individual queries running concurrently (global
/// before/after snapshot subtraction would lump every in-flight query
/// together).
///
/// The trade-off: the per-thread arm model treats each thread as having
/// its own disk arm, so a scoped query's random/sequential split matches
/// what the same query reports when run alone, not the seek pattern a
/// single shared arm would produce under interleaving.
///
/// Scopes do not nest; entering a second scope on the same thread panics.
///
/// ```
/// # use ir2_storage::{BlockDevice, IoScope, MemDevice, TrackedDevice};
/// let dev = TrackedDevice::new(MemDevice::new());
/// dev.allocate(4).unwrap();
/// let mut buf = ir2_storage::zeroed_block();
/// let scope = IoScope::enter();
/// dev.read_block(0, &mut buf).unwrap();
/// dev.read_block(1, &mut buf).unwrap();
/// let io = scope.finish().for_stats(&dev.stats());
/// assert_eq!((io.random_reads, io.seq_reads), (1, 1));
/// ```
#[must_use = "a scope that is never finished records nothing useful"]
pub struct IoScope {
    /// Prevents `Send`: the scope must be finished on the entering thread.
    _not_send: std::marker::PhantomData<*const ()>,
}

impl IoScope {
    /// Starts attributing this thread's I/O. Panics if a scope is already
    /// active on this thread.
    pub fn enter() -> Self {
        ACTIVE_SCOPE.with(|cell| {
            let mut slot = cell.borrow_mut();
            assert!(slot.is_none(), "IoScope does not nest");
            *slot = Some(ScopedIo::default());
        });
        Self {
            _not_send: std::marker::PhantomData,
        }
    }

    /// Ends the scope and returns everything it observed.
    pub fn finish(self) -> ScopedIo {
        let seen = ACTIVE_SCOPE.with(|cell| cell.borrow_mut().take());
        std::mem::forget(self); // Drop would otherwise clear an already-taken slot.
        seen.expect("scope state present until finish")
    }
}

impl Drop for IoScope {
    fn drop(&mut self) {
        ACTIVE_SCOPE.with(|cell| cell.borrow_mut().take());
    }
}

/// What one [`IoScope`] observed: block accesses per device, and retries.
#[derive(Debug, Default, Clone)]
pub struct ScopedIo {
    tallies: Vec<DeviceTally>,
    /// Transient faults retried on the scope's thread.
    pub retries: u64,
    /// Total backoff the scope's thread slept before those retries.
    pub backoff: Duration,
}

impl ScopedIo {
    /// The delta attributed to the device whose counters are `stats`
    /// (zero if the scope never saw that device).
    pub fn for_stats(&self, stats: &IoStats) -> IoSnapshot {
        let stats_addr = stats as *const IoStats as usize;
        self.tallies
            .iter()
            .find(|t| t.stats_addr == stats_addr)
            .map(|t| t.counts)
            .unwrap_or_default()
    }

    /// Sum over every device the scope observed.
    pub fn total(&self) -> IoSnapshot {
        self.tallies.iter().map(|t| t.counts).sum()
    }
}

/// A [`BlockDevice`] wrapper that feeds every access into an [`IoStats`].
pub struct TrackedDevice<D> {
    inner: D,
    stats: Arc<IoStats>,
}

impl<D: BlockDevice> TrackedDevice<D> {
    /// Wraps `inner` with fresh counters.
    pub fn new(inner: D) -> Self {
        Self::with_stats(inner, Arc::new(IoStats::new()))
    }

    /// Wraps `inner`, accumulating into an existing counter handle (lets a
    /// caller own the handle before constructing the device).
    pub fn with_stats(inner: D, stats: Arc<IoStats>) -> Self {
        Self { inner, stats }
    }

    /// Handle to the shared counters.
    pub fn stats(&self) -> Arc<IoStats> {
        Arc::clone(&self.stats)
    }

    /// The wrapped device.
    pub fn inner(&self) -> &D {
        &self.inner
    }
}

impl<D: BlockDevice> BlockDevice for TrackedDevice<D> {
    fn read_block(&self, id: BlockId, buf: &mut [u8; BLOCK_SIZE]) -> Result<()> {
        self.stats.record(id, false);
        self.inner.read_block(id, buf)
    }

    fn with_block(&self, id: BlockId, f: &mut dyn FnMut(&[u8; BLOCK_SIZE])) -> Result<()> {
        self.stats.record(id, false);
        self.inner.with_block(id, f)
    }

    fn write_block(&self, id: BlockId, data: &[u8; BLOCK_SIZE]) -> Result<()> {
        self.stats.record(id, true);
        self.inner.write_block(id, data)
    }

    fn allocate(&self, n: u64) -> Result<BlockId> {
        // Allocation itself is metadata, not a block transfer.
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
    use crate::MemDevice;

    #[test]
    fn classifies_sequential_and_random() {
        let dev = TrackedDevice::new(MemDevice::new());
        dev.allocate(10).unwrap();
        let mut buf = crate::zeroed_block();

        dev.read_block(3, &mut buf).unwrap(); // first access: random
        dev.read_block(4, &mut buf).unwrap(); // sequential
        dev.read_block(5, &mut buf).unwrap(); // sequential
        dev.read_block(5, &mut buf).unwrap(); // same block again: random (seek back)
        dev.read_block(0, &mut buf).unwrap(); // random
        dev.read_block(1, &mut buf).unwrap(); // sequential

        let s = dev.stats().snapshot();
        assert_eq!(s.random_reads, 3);
        assert_eq!(s.seq_reads, 3);
        assert_eq!(s.random_writes, 0);
    }

    #[test]
    fn writes_share_the_arm_position() {
        let dev = TrackedDevice::new(MemDevice::new());
        dev.allocate(4).unwrap();
        let buf = crate::zeroed_block();
        let mut out = crate::zeroed_block();

        dev.write_block(0, &buf).unwrap(); // random
        dev.write_block(1, &buf).unwrap(); // sequential
        dev.read_block(2, &mut out).unwrap(); // sequential (follows the write)

        let s = dev.stats().snapshot();
        assert_eq!(s.random_writes, 1);
        assert_eq!(s.seq_writes, 1);
        assert_eq!(s.seq_reads, 1);
        assert_eq!(s.total(), 3);
    }

    #[test]
    fn snapshot_delta() {
        let dev = TrackedDevice::new(MemDevice::new());
        dev.allocate(4).unwrap();
        let mut buf = crate::zeroed_block();
        dev.read_block(0, &mut buf).unwrap();

        let before = dev.stats().snapshot();
        dev.read_block(2, &mut buf).unwrap();
        dev.read_block(3, &mut buf).unwrap();
        let delta = dev.stats().snapshot() - before;
        assert_eq!(delta.random_reads, 1);
        assert_eq!(delta.seq_reads, 1);
        assert_eq!(delta.bytes(), 2 * BLOCK_SIZE as u64);
    }

    #[test]
    fn scope_attributes_only_this_thread() {
        let dev = Arc::new(TrackedDevice::new(MemDevice::new()));
        dev.allocate(64).unwrap();
        // Background noise from other threads must not leak into the scope.
        std::thread::scope(|s| {
            let noisy = Arc::clone(&dev);
            let stop = Arc::new(AtomicU64::new(0));
            let stop2 = Arc::clone(&stop);
            s.spawn(move || {
                let mut buf = crate::zeroed_block();
                while stop2.load(Ordering::Relaxed) == 0 {
                    noisy.read_block(63, &mut buf).unwrap();
                }
            });
            let mut buf = crate::zeroed_block();
            let scope = IoScope::enter();
            dev.read_block(0, &mut buf).unwrap();
            dev.read_block(1, &mut buf).unwrap();
            dev.read_block(10, &mut buf).unwrap();
            let io = scope.finish().for_stats(&dev.stats());
            stop.store(1, Ordering::Relaxed);
            assert_eq!(io.random_reads, 2);
            assert_eq!(io.seq_reads, 1);
            assert_eq!(io.total(), 3);
        });
    }

    #[test]
    fn scope_separates_devices() {
        let a = TrackedDevice::new(MemDevice::new());
        let b = TrackedDevice::new(MemDevice::new());
        a.allocate(4).unwrap();
        b.allocate(4).unwrap();
        let mut buf = crate::zeroed_block();
        let scope = IoScope::enter();
        a.read_block(0, &mut buf).unwrap();
        a.read_block(1, &mut buf).unwrap();
        b.read_block(2, &mut buf).unwrap();
        let io = scope.finish();
        assert_eq!(io.for_stats(&a.stats()).total(), 2);
        assert_eq!(io.for_stats(&b.stats()).total(), 1);
        // Device b's access is random in b's own arm model even though it
        // would have been sequential on a shared arm (a ended at block 1).
        assert_eq!(io.for_stats(&b.stats()).random_reads, 1);
        assert_eq!(io.total().total(), 3);
    }

    #[test]
    fn dropped_scope_deactivates() {
        let dev = TrackedDevice::new(MemDevice::new());
        dev.allocate(2).unwrap();
        let mut buf = crate::zeroed_block();
        {
            let _scope = IoScope::enter();
            dev.read_block(0, &mut buf).unwrap();
            // Dropped without finish(): attribution simply stops.
        }
        let scope = IoScope::enter(); // must not panic — slot was cleared
        dev.read_block(1, &mut buf).unwrap();
        assert_eq!(scope.finish().total().total(), 1);
    }

    #[test]
    fn reset_clears_counters_and_arm() {
        let dev = TrackedDevice::new(MemDevice::new());
        dev.allocate(4).unwrap();
        let mut buf = crate::zeroed_block();
        dev.read_block(0, &mut buf).unwrap();
        dev.read_block(1, &mut buf).unwrap();
        dev.stats().reset();
        assert_eq!(dev.stats().snapshot(), IoSnapshot::default());
        // After reset the next access is random even if adjacent.
        dev.read_block(2, &mut buf).unwrap();
        assert_eq!(dev.stats().snapshot().random_reads, 1);
    }
}
