//! Fault-injection test doubles.
//!
//! Real disks fail; a database library must surface those failures as
//! errors, never panics or silent corruption. Three injectors live here (in
//! the library, not `#[cfg(test)]`, so downstream crates' tests can use
//! them too):
//!
//! * [`FlakyDevice`] wraps one device and injects faults in one of three
//!   modes: a hard budget cutoff (every op after the first `budget` fails
//!   permanently — exercising every error path), and two *intermittent*
//!   modes (every k-th op, or each op with probability `p` from a seeded
//!   RNG) that inject **transient** errors a retry layer is expected to
//!   absorb.
//! * [`CrashPoint`] / [`TornWriteDevice`] simulate a *crash*: at a chosen
//!   global I/O index the in-flight write is torn (truncated or garbled)
//!   and every subsequent operation fails, as if the machine lost power.
//!   One `CrashPoint` can wrap several devices that share the operation
//!   counter, so a whole database's I/O stream has a single crash index —
//!   the basis of the crash-point sweep harness.
//! * [`KillSwitch`] / [`KillableDevice`] model a *replica death*: the
//!   switch wraps all of one replica's devices, and when pulled (or when
//!   an armed operation index is reached) every subsequent operation fails
//!   **permanently** — the failure mode replica failover exists to absorb.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;

use crate::{BlockDevice, BlockId, Result, StorageError, BLOCK_SIZE};

/// How a [`FlakyDevice`] decides which operations fail.
enum FaultMode {
    /// Every operation after the first `budget` fails *permanently*.
    Budget(AtomicU64),
    /// Every `period`-th operation *of each calling thread* (its
    /// `period`-th, `2·period`-th, …) fails with a *transient* error.
    EveryKth {
        period: u64,
        /// Operations seen from all threads (where a thread's own count
        /// starts when it first touches the device), and each thread's.
        counts: Mutex<(u64, HashMap<ThreadId, u64>)>,
    },
    /// Each operation fails with probability `p`, drawn from a seeded
    /// SplitMix64 stream, with a *transient* error.
    Probability { p: f64, state: AtomicU64 },
}

/// A fault-injecting device wrapper; see the module docs for the modes.
pub struct FlakyDevice<D> {
    inner: D,
    mode: FaultMode,
    injected: AtomicU64,
}

/// One SplitMix64 output for a given stream position.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl<D: BlockDevice> FlakyDevice<D> {
    /// Wraps `inner`; the first `budget` read/write/allocate calls succeed,
    /// everything after fails with a **permanent** [`StorageError::Io`].
    pub fn new(inner: D, budget: u64) -> Self {
        Self {
            inner,
            mode: FaultMode::Budget(AtomicU64::new(budget)),
            injected: AtomicU64::new(0),
        }
    }

    /// Wraps `inner`; every `period`-th operation fails with a
    /// **transient** error (`ErrorKind::Interrupted`). The failed
    /// operation does not reach the inner device, so an immediate retry
    /// lands on a fresh count and succeeds — the deterministic
    /// recoverable-fault workload. `period` must be ≥ 1; `period == 1`
    /// fails every operation.
    ///
    /// The period is counted per calling thread, so "a retry lands on a
    /// fresh count" holds under concurrency too: with one shared count,
    /// other threads' operations between a fault and its retries could put
    /// every retry on a multiple of `period` again. A thread's count starts
    /// at the number of operations the device has seen so far, so threads
    /// that use the device one after another see the fault positions of a
    /// single counter.
    pub fn every_kth(inner: D, period: u64) -> Self {
        assert!(period >= 1, "period must be at least 1");
        Self {
            inner,
            mode: FaultMode::EveryKth {
                period,
                counts: Mutex::new((0, HashMap::new())),
            },
            injected: AtomicU64::new(0),
        }
    }

    /// Wraps `inner`; each operation independently fails with probability
    /// `p` (a **transient** error), drawn from a SplitMix64 stream seeded
    /// with `seed` — the same seed replays the same fault pattern for a
    /// serial workload.
    pub fn with_probability(inner: D, p: f64, seed: u64) -> Self {
        assert!((0.0..=1.0).contains(&p), "p must be within [0, 1]");
        Self {
            inner,
            mode: FaultMode::Probability {
                p,
                state: AtomicU64::new(seed),
            },
            injected: AtomicU64::new(0),
        }
    }

    /// Restores `budget` further successful operations (budget mode only;
    /// a no-op for the intermittent modes).
    pub fn refill(&self, budget: u64) {
        if let FaultMode::Budget(remaining) = &self.mode {
            remaining.store(budget, Ordering::Relaxed);
        }
    }

    /// Operations left before failures begin. Intermittent modes never
    /// run out, so they report `u64::MAX`.
    pub fn remaining(&self) -> u64 {
        match &self.mode {
            FaultMode::Budget(remaining) => remaining.load(Ordering::Relaxed),
            _ => u64::MAX,
        }
    }

    /// Total faults injected so far, across all modes.
    pub fn faults_injected(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }

    fn transient() -> StorageError {
        StorageError::Io {
            op: crate::IoOp::Other,
            block: None,
            source: std::io::Error::new(
                std::io::ErrorKind::Interrupted,
                "injected transient fault",
            ),
        }
    }

    fn spend(&self) -> Result<()> {
        let fail = match &self.mode {
            FaultMode::Budget(remaining) => {
                // Decrement-if-positive; at zero, fail permanently.
                let mut cur = remaining.load(Ordering::Relaxed);
                loop {
                    if cur == 0 {
                        self.injected.fetch_add(1, Ordering::Relaxed);
                        return Err(StorageError::Io {
                            op: crate::IoOp::Other,
                            block: None,
                            source: std::io::Error::other("injected device failure"),
                        });
                    }
                    match remaining.compare_exchange_weak(
                        cur,
                        cur - 1,
                        Ordering::Relaxed,
                        Ordering::Relaxed,
                    ) {
                        Ok(_) => return Ok(()),
                        Err(seen) => cur = seen,
                    }
                }
            }
            FaultMode::EveryKth { period, counts } => {
                let mut counts = counts.lock().expect("no panic while counting");
                let (total, per_thread) = &mut *counts;
                let n = per_thread
                    .entry(std::thread::current().id())
                    .or_insert(*total);
                *total += 1;
                *n += 1;
                *n % period == 0
            }
            FaultMode::Probability { p, state } => {
                let pos = state.fetch_add(1, Ordering::Relaxed);
                // Top 53 bits → a uniform double in [0, 1).
                let u = (splitmix64(pos) >> 11) as f64 / (1u64 << 53) as f64;
                u < *p
            }
        };
        if fail {
            self.injected.fetch_add(1, Ordering::Relaxed);
            return Err(Self::transient());
        }
        Ok(())
    }
}

impl<D: BlockDevice> BlockDevice for FlakyDevice<D> {
    fn read_block(&self, id: BlockId, buf: &mut [u8; BLOCK_SIZE]) -> Result<()> {
        self.spend()?;
        self.inner.read_block(id, buf)
    }

    fn write_block(&self, id: BlockId, data: &[u8; BLOCK_SIZE]) -> Result<()> {
        self.spend()?;
        self.inner.write_block(id, data)
    }

    fn allocate(&self, n: u64) -> Result<BlockId> {
        self.spend()?;
        self.inner.allocate(n)
    }

    fn num_blocks(&self) -> u64 {
        self.inner.num_blocks()
    }

    fn sync(&self) -> Result<()> {
        self.inner.sync()
    }
}

/// How the in-flight write is damaged when the crash point fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TornWrite {
    /// Only the first half of the block reaches the disk; the rest keeps
    /// its previous contents.
    Truncated,
    /// The block lands whole but with a burst of flipped bits.
    Garbled,
}

struct CrashState {
    next_op: AtomicU64,
    crash_at: u64,
    mode: TornWrite,
    dead: AtomicBool,
}

/// A simulated power-cut shared by any number of [`TornWriteDevice`]s.
///
/// Counts read/write/allocate operations across every wrapped device; the
/// operation with global index `crash_at` (0-based) is the crash: if it is
/// a write, a torn version of the block reaches the inner device, then the
/// operation — and all later ones — fail with [`StorageError::Io`].
pub struct CrashPoint {
    state: Arc<CrashState>,
}

impl CrashPoint {
    /// A crash at global operation index `crash_at`; `u64::MAX` never
    /// crashes (useful for counting a workload's operations).
    pub fn new(crash_at: u64, mode: TornWrite) -> Self {
        Self {
            state: Arc::new(CrashState {
                next_op: AtomicU64::new(0),
                crash_at,
                mode,
                dead: AtomicBool::new(false),
            }),
        }
    }

    /// Wraps a device; all wrappers from one `CrashPoint` share the
    /// operation counter and die together.
    pub fn wrap<D: BlockDevice>(&self, inner: D) -> TornWriteDevice<D> {
        TornWriteDevice {
            inner,
            state: Arc::clone(&self.state),
        }
    }

    /// Operations observed so far.
    pub fn ops(&self) -> u64 {
        self.state.next_op.load(Ordering::Relaxed)
    }

    /// Whether the crash point has fired.
    pub fn crashed(&self) -> bool {
        self.state.dead.load(Ordering::Relaxed)
    }
}

/// A device wrapped by a [`CrashPoint`]; see there.
pub struct TornWriteDevice<D> {
    inner: D,
    state: Arc<CrashState>,
}

impl<D: BlockDevice> TornWriteDevice<D> {
    fn injected() -> StorageError {
        StorageError::Io {
            op: crate::IoOp::Other,
            block: None,
            source: std::io::Error::other("injected crash"),
        }
    }

    /// `Ok(true)` means "this operation is the crash"; `Err` means the
    /// device already died.
    fn step(&self) -> Result<bool> {
        if self.state.dead.load(Ordering::Relaxed) {
            return Err(Self::injected());
        }
        let n = self.state.next_op.fetch_add(1, Ordering::Relaxed);
        if n >= self.state.crash_at {
            self.state.dead.store(true, Ordering::Relaxed);
            if n == self.state.crash_at {
                return Ok(true);
            }
            return Err(Self::injected());
        }
        Ok(false)
    }
}

impl<D: BlockDevice> BlockDevice for TornWriteDevice<D> {
    fn read_block(&self, id: BlockId, buf: &mut [u8; BLOCK_SIZE]) -> Result<()> {
        if self.step()? {
            return Err(Self::injected());
        }
        self.inner.read_block(id, buf)
    }

    fn write_block(&self, id: BlockId, data: &[u8; BLOCK_SIZE]) -> Result<()> {
        if self.step()? {
            // The crash lands mid-write: a damaged version of the block
            // reaches the platter before the error is reported.
            let mut torn = *data;
            match self.state.mode {
                TornWrite::Truncated => {
                    let mut old = [0u8; BLOCK_SIZE];
                    if self.inner.read_block(id, &mut old).is_ok() {
                        torn[BLOCK_SIZE / 2..].copy_from_slice(&old[BLOCK_SIZE / 2..]);
                    } else {
                        torn[BLOCK_SIZE / 2..].fill(0);
                    }
                }
                TornWrite::Garbled => {
                    for b in &mut torn[256..272] {
                        *b ^= 0xA5;
                    }
                }
            }
            let _ = self.inner.write_block(id, &torn);
            return Err(Self::injected());
        }
        self.inner.write_block(id, data)
    }

    fn allocate(&self, n: u64) -> Result<BlockId> {
        if self.step()? {
            return Err(Self::injected());
        }
        self.inner.allocate(n)
    }

    fn num_blocks(&self) -> u64 {
        self.inner.num_blocks()
    }

    fn sync(&self) -> Result<()> {
        if self.state.dead.load(Ordering::Relaxed) {
            return Err(Self::injected());
        }
        self.inner.sync()
    }
}

struct KillState {
    ops: AtomicU64,
    kill_at: AtomicU64,
    dead: AtomicBool,
}

/// A remote kill switch for a replica's devices.
///
/// One `KillSwitch` wraps any number of devices (typically the six devices
/// of one replica's `DeviceSet`); they share an operation counter and die
/// together, like [`CrashPoint`] — but the death is commanded, not fixed at
/// construction: [`kill`](KillSwitch::kill) fails every operation from now
/// on, [`kill_after`](KillSwitch::kill_after) arms a death at a chosen
/// global operation index (a "crash point" for replica-failover sweeps).
/// Errors are **permanent** (`StorageError::Io`, not transient), so a retry
/// layer gives up immediately and the failure surfaces to the replica
/// router.
#[derive(Clone)]
pub struct KillSwitch {
    state: Arc<KillState>,
}

impl Default for KillSwitch {
    fn default() -> Self {
        Self::new()
    }
}

impl KillSwitch {
    /// A switch that is alive until told otherwise.
    pub fn new() -> Self {
        Self {
            state: Arc::new(KillState {
                ops: AtomicU64::new(0),
                kill_at: AtomicU64::new(u64::MAX),
                dead: AtomicBool::new(false),
            }),
        }
    }

    /// Wraps a device; all wrappers from one switch share the operation
    /// counter and die together.
    pub fn wrap<D: BlockDevice>(&self, inner: D) -> KillableDevice<D> {
        KillableDevice {
            inner,
            state: Arc::clone(&self.state),
        }
    }

    /// Kills every wrapped device immediately.
    pub fn kill(&self) {
        self.state.dead.store(true, Ordering::Relaxed);
    }

    /// Arms a death at global operation index `n` (0-based): the `n`-th
    /// and every later operation fail.
    pub fn kill_after(&self, n: u64) {
        self.state.kill_at.store(n, Ordering::Relaxed);
    }

    /// Whether the switch has fired (or was killed directly).
    pub fn killed(&self) -> bool {
        self.state.dead.load(Ordering::Relaxed)
    }

    /// Operations observed so far across all wrapped devices.
    pub fn ops(&self) -> u64 {
        self.state.ops.load(Ordering::Relaxed)
    }
}

/// A device wrapped by a [`KillSwitch`]; see there. `Clone` shares both
/// the inner device handle and the switch, so a cloned replica set keeps
/// answering to the same switch.
#[derive(Clone)]
pub struct KillableDevice<D> {
    inner: D,
    state: Arc<KillState>,
}

impl<D: BlockDevice> KillableDevice<D> {
    fn check(&self) -> Result<()> {
        let n = self.state.ops.fetch_add(1, Ordering::Relaxed);
        if self.state.dead.load(Ordering::Relaxed)
            || n >= self.state.kill_at.load(Ordering::Relaxed)
        {
            self.state.dead.store(true, Ordering::Relaxed);
            return Err(StorageError::Io {
                op: crate::IoOp::Other,
                block: None,
                source: std::io::Error::other("replica killed"),
            });
        }
        Ok(())
    }
}

impl<D: BlockDevice> BlockDevice for KillableDevice<D> {
    fn read_block(&self, id: BlockId, buf: &mut [u8; BLOCK_SIZE]) -> Result<()> {
        self.check()?;
        self.inner.read_block(id, buf)
    }

    fn write_block(&self, id: BlockId, data: &[u8; BLOCK_SIZE]) -> Result<()> {
        self.check()?;
        self.inner.write_block(id, data)
    }

    fn allocate(&self, n: u64) -> Result<BlockId> {
        self.check()?;
        self.inner.allocate(n)
    }

    fn num_blocks(&self) -> u64 {
        self.inner.num_blocks()
    }

    fn sync(&self) -> Result<()> {
        if self.state.dead.load(Ordering::Relaxed) {
            return Err(StorageError::Io {
                op: crate::IoOp::Other,
                block: None,
                source: std::io::Error::other("replica killed"),
            });
        }
        self.inner.sync()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MemDevice;

    #[test]
    fn fails_exactly_after_budget() {
        let dev = FlakyDevice::new(MemDevice::new(), 3);
        dev.allocate(4).unwrap(); // 1
        let buf = crate::zeroed_block();
        dev.write_block(0, &buf).unwrap(); // 2
        let mut out = crate::zeroed_block();
        dev.read_block(0, &mut out).unwrap(); // 3
        let err = dev.read_block(0, &mut out).unwrap_err();
        assert!(matches!(err, StorageError::Io { .. }));
        assert!(!err.is_transient(), "budget cutoff is permanent");
        assert_eq!(dev.remaining(), 0);
        assert_eq!(dev.faults_injected(), 1);
    }

    #[test]
    fn every_kth_fails_transiently_and_recovers() {
        let dev = FlakyDevice::every_kth(MemDevice::new(), 3);
        dev.allocate(1).unwrap(); // op 1
        let mut out = crate::zeroed_block();
        dev.read_block(0, &mut out).unwrap(); // op 2
        let err = dev.read_block(0, &mut out).unwrap_err(); // op 3: fault
        assert!(err.is_transient(), "{err}");
        // The very next attempt (op 4) succeeds: the fault is recoverable.
        dev.read_block(0, &mut out).unwrap();
        assert_eq!(dev.faults_injected(), 1);
        assert_eq!(dev.remaining(), u64::MAX);
    }

    /// The interleaving that broke retries under one shared count: between
    /// a thread's fault and its retry, another thread performs exactly
    /// `period − 1` operations. The retry must still succeed — and a thread
    /// that arrives later continues the count the device has seen, so
    /// handing the device from thread to thread keeps one counter's fault
    /// positions.
    #[test]
    fn every_kth_retry_succeeds_whatever_other_threads_do() {
        let dev = FlakyDevice::every_kth(MemDevice::new(), 4);
        dev.allocate(1).unwrap(); // op 1
        let mut out = crate::zeroed_block();
        dev.read_block(0, &mut out).unwrap(); // op 2
        dev.read_block(0, &mut out).unwrap(); // op 3
        assert!(dev.read_block(0, &mut out).is_err()); // op 4: fault
        std::thread::scope(|scope| {
            scope.spawn(|| {
                // Continues the device's count at 5, 6, 7: no fault.
                let mut out = crate::zeroed_block();
                for _ in 0..3 {
                    dev.read_block(0, &mut out).unwrap();
                }
            });
        });
        // The device's 8th operation, but this thread's 5th.
        dev.read_block(0, &mut out).unwrap();
        assert_eq!(dev.faults_injected(), 1);
    }

    #[test]
    fn probability_mode_is_seeded_and_transient() {
        let run = |seed| {
            let dev = FlakyDevice::with_probability(MemDevice::new(), 0.5, seed);
            dev.allocate(1).unwrap_or(0);
            let mut out = crate::zeroed_block();
            let pattern: Vec<bool> = (0..64)
                .map(|_| dev.read_block(0, &mut out).is_ok())
                .collect();
            (pattern, dev.faults_injected())
        };
        let (a, faults_a) = run(42);
        let (b, _) = run(42);
        assert_eq!(a, b, "same seed must replay the same fault pattern");
        let (c, _) = run(7);
        assert_ne!(a, c, "different seeds should differ");
        assert!(
            faults_a > 10 && faults_a < 55,
            "p=0.5 over 65 ops: {faults_a}"
        );

        let dev = FlakyDevice::with_probability(MemDevice::new(), 1.0, 0);
        let err = dev.allocate(1).unwrap_err();
        assert!(err.is_transient());
    }

    #[test]
    fn refill_restores_service() {
        let dev = FlakyDevice::new(MemDevice::new(), 1);
        dev.allocate(1).unwrap();
        let mut out = crate::zeroed_block();
        assert!(dev.read_block(0, &mut out).is_err());
        dev.refill(2);
        assert!(dev.read_block(0, &mut out).is_ok());
    }

    #[test]
    fn crash_tears_the_write_then_kills_the_device() {
        let mem = Arc::new(MemDevice::new());
        mem.allocate(1).unwrap();
        mem.write_block(0, &[0xFFu8; BLOCK_SIZE]).unwrap();

        // Op 0 is the write: it must land truncated and fail.
        let cp = CrashPoint::new(0, TornWrite::Truncated);
        let dev = cp.wrap(Arc::clone(&mem));
        assert!(dev.write_block(0, &[0x11u8; BLOCK_SIZE]).is_err());
        assert!(cp.crashed());
        let mut out = crate::zeroed_block();
        assert!(dev.read_block(0, &mut out).is_err(), "device is dead");
        assert!(dev.sync().is_err(), "sync after the crash fails too");

        mem.read_block(0, &mut out).unwrap();
        assert!(out[..BLOCK_SIZE / 2].iter().all(|&b| b == 0x11));
        assert!(out[BLOCK_SIZE / 2..].iter().all(|&b| b == 0xFF));
    }

    #[test]
    fn garble_mode_flips_a_burst() {
        let mem = Arc::new(MemDevice::new());
        mem.allocate(1).unwrap();
        let cp = CrashPoint::new(0, TornWrite::Garbled);
        let dev = cp.wrap(Arc::clone(&mem));
        assert!(dev.write_block(0, &[0u8; BLOCK_SIZE]).is_err());
        let mut out = crate::zeroed_block();
        mem.read_block(0, &mut out).unwrap();
        assert!(out[256..272].iter().all(|&b| b == 0xA5));
        assert!(out[..256].iter().all(|&b| b == 0));
    }

    #[test]
    fn wrappers_share_one_op_counter() {
        let cp = CrashPoint::new(2, TornWrite::Garbled);
        let a = cp.wrap(MemDevice::new());
        let b = cp.wrap(MemDevice::new());
        a.allocate(1).unwrap(); // op 0
        b.allocate(1).unwrap(); // op 1
        assert!(a.allocate(1).is_err()); // op 2: crash
        assert!(b.allocate(1).is_err()); // dead: rejected without counting
        assert_eq!(cp.ops(), 3);
    }

    #[test]
    fn max_crash_index_never_fires() {
        let cp = CrashPoint::new(u64::MAX, TornWrite::Garbled);
        let dev = cp.wrap(MemDevice::new());
        dev.allocate(8).unwrap();
        for i in 0..8 {
            dev.write_block(i, &[i as u8; BLOCK_SIZE]).unwrap();
        }
        assert!(!cp.crashed());
        assert_eq!(cp.ops(), 9);
    }

    #[test]
    fn kill_switch_is_alive_until_pulled() {
        let ks = KillSwitch::new();
        let dev = ks.wrap(MemDevice::new());
        dev.allocate(2).unwrap();
        dev.write_block(0, &[7u8; BLOCK_SIZE]).unwrap();
        assert!(!ks.killed());
        ks.kill();
        assert!(ks.killed());
        let mut buf = crate::zeroed_block();
        let err = dev.read_block(0, &mut buf).unwrap_err();
        assert!(!err.is_transient(), "kill must be permanent: {err}");
        assert!(dev.sync().is_err());
        assert!(dev.write_block(1, &[0u8; BLOCK_SIZE]).is_err());
    }

    #[test]
    fn kill_after_fires_at_the_armed_op_and_spans_wrappers() {
        let ks = KillSwitch::new();
        let a = ks.wrap(MemDevice::new());
        let b = ks.wrap(MemDevice::new());
        ks.kill_after(2);
        a.allocate(1).unwrap(); // op 0
        b.allocate(1).unwrap(); // op 1
        assert!(a.allocate(1).is_err()); // op 2: dead from here on
        assert!(b.allocate(1).is_err());
        assert!(ks.killed());
    }

    #[test]
    fn kill_switch_clone_shares_fate() {
        let ks = KillSwitch::new();
        let dev = ks.wrap(Arc::new(MemDevice::new()));
        let twin = dev.clone();
        dev.allocate(1).unwrap();
        ks.kill();
        assert!(twin.allocate(1).is_err());
    }
}
