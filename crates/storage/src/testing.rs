//! Fault injection: one device wrapper over one shared plan.
//!
//! Real disks fail; a database library must surface those failures as
//! errors, never panics or silent corruption. A [`FaultPlan`] decides, in
//! one place, whether each read, write and allocate of every
//! [`FaultDevice`] it wraps passes, fails transiently, fails permanently,
//! tears the write in flight, or finds the plan dead. The plan counts those
//! operations across all its devices, so a whole replica's or database's
//! I/O stream has one op index, and a clone of the plan is the same plan.
//! (It lives in the library, not `#[cfg(test)]`, so downstream crates'
//! tests can use it too.) Its rules:
//!
//! * **Permanent failure from op `n`** ([`FaultPlan::budget`], moved by
//!   [`FaultPlan::set_budget`]): the next `n` operations pass and every
//!   later one fails with a permanent [`StorageError::Io`], the error a
//!   retry layer gives up on at once. A spent budget can be set again (the
//!   device heals); `set_budget(0)` kills a replica now, `set_budget(d)`
//!   arms its death `d` operations ahead.
//! * **Transient failure on every k-th op** ([`FaultPlan::every_kth`]),
//!   counted per calling thread: the recoverable fault a retry layer must
//!   absorb.
//! * **Transient failure with probability `p`**
//!   ([`FaultPlan::with_probability`]) from a seeded SplitMix64 stream.
//! * **A torn write at op `n`, then death** ([`FaultPlan::crash_at`]): a
//!   power cut. The write at index `n` reaches the inner device truncated
//!   or garbled ([`TornWrite`]) and fails, and so does every later
//!   operation — the basis of the crash-point sweeps.
//!
//! The plan is dead while it refuses every operation permanently
//! ([`FaultPlan::dead`]); an operation it refuses for that is not counted.
//! `sync` is never counted either: it passes while the plan is alive and
//! fails once it is dead.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::ThreadId;

use crate::{BlockDevice, BlockId, Result, StorageError, BLOCK_SIZE};

/// How the in-flight write is damaged when a crash fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TornWrite {
    /// Only the first half of the block reaches the disk; the rest keeps
    /// its previous contents.
    Truncated,
    /// The block lands whole but with a burst of flipped bits.
    Garbled,
}

/// A plan's transient rule.
enum Transient {
    Never,
    /// Every `period`-th operation *of each calling thread* fails. A
    /// thread's count starts at the plan's op count when it first calls.
    EveryKth {
        period: u64,
        per_thread: HashMap<ThreadId, u64>,
    },
    /// Operation `i` fails when SplitMix64 output `seed + i`, as a uniform
    /// double in [0, 1), is below `p`.
    Probability {
        p: f64,
        seed: u64,
    },
}

struct PlanState {
    /// Operations counted so far across every wrapped device.
    ops: u64,
    /// Index of the first operation refused permanently.
    fail_from: u64,
    /// The operation a crash tears, and how.
    torn: Option<(u64, TornWrite)>,
    transient: Transient,
    injected: u64,
}

/// The one decision over a set of [`FaultDevice`]s; see the module docs.
#[derive(Clone)]
pub struct FaultPlan {
    state: Arc<Mutex<PlanState>>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self::new()
    }
}

/// One SplitMix64 output for a given stream position.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// An injected failure; `transient` ones carry `ErrorKind::Interrupted`.
fn injected(transient: bool) -> StorageError {
    let source = if transient {
        std::io::Error::new(std::io::ErrorKind::Interrupted, "injected transient fault")
    } else {
        std::io::Error::other("injected device failure")
    };
    StorageError::Io {
        op: crate::IoOp::Other,
        block: None,
        source,
    }
}

impl FaultPlan {
    fn with(fail_from: u64, torn: Option<(u64, TornWrite)>, transient: Transient) -> Self {
        Self {
            state: Arc::new(Mutex::new(PlanState {
                ops: 0,
                fail_from,
                torn,
                transient,
                injected: 0,
            })),
        }
    }

    /// A plan that passes every operation until its budget is set.
    pub fn new() -> Self {
        Self::budget(u64::MAX)
    }

    /// The first `n` operations pass; every later one fails permanently.
    pub fn budget(n: u64) -> Self {
        Self::with(n, None, Transient::Never)
    }

    /// Every `period`-th operation fails with a **transient** error. The
    /// failed operation does not reach the inner device, so an immediate
    /// retry lands on a fresh count and succeeds — the deterministic
    /// recoverable-fault workload. `period` must be ≥ 1; `period == 1`
    /// fails every operation.
    ///
    /// The period is counted per calling thread, so "a retry lands on a
    /// fresh count" holds under concurrency too: with one shared count,
    /// other threads' operations between a fault and its retries could put
    /// every retry on a multiple of `period` again. A thread's count starts
    /// at the number of operations the plan has seen so far, so threads
    /// that use the devices one after another see the fault positions of a
    /// single counter.
    pub fn every_kth(period: u64) -> Self {
        assert!(period >= 1, "period must be at least 1");
        let per_thread = HashMap::new();
        Self::with(u64::MAX, None, Transient::EveryKth { period, per_thread })
    }

    /// Each operation independently fails with probability `p` (a
    /// **transient** error), drawn from a SplitMix64 stream seeded with
    /// `seed` — the same seed replays the same fault pattern for a serial
    /// workload.
    pub fn with_probability(p: f64, seed: u64) -> Self {
        assert!((0.0..=1.0).contains(&p), "p must be within [0, 1]");
        Self::with(u64::MAX, None, Transient::Probability { p, seed })
    }

    /// A crash at operation index `n` (0-based): if it is a write, a torn
    /// version of the block reaches the inner device; the operation and
    /// every later one fail. `u64::MAX` never crashes (useful for counting
    /// a workload's operations).
    pub fn crash_at(n: u64, mode: TornWrite) -> Self {
        Self::with(n.saturating_add(1), Some((n, mode)), Transient::Never)
    }

    /// Wraps a device; every device a plan wraps shares its op count and
    /// its fate.
    pub fn wrap<D>(&self, inner: D) -> FaultDevice<D> {
        FaultDevice {
            inner,
            plan: self.clone(),
        }
    }

    /// Lets the next `n` operations pass and fails every later one
    /// permanently: `set_budget(0)` kills the devices now.
    pub fn set_budget(&self, n: u64) {
        let mut s = self.lock();
        s.fail_from = s.ops.saturating_add(n);
    }

    /// Operations counted so far across every wrapped device.
    pub fn ops(&self) -> u64 {
        self.lock().ops
    }

    /// Operations failed so far, under every rule.
    pub fn faults_injected(&self) -> u64 {
        self.lock().injected
    }

    /// Whether the plan refuses every operation permanently.
    pub fn dead(&self) -> bool {
        let s = self.lock();
        s.ops >= s.fail_from
    }

    fn lock(&self) -> MutexGuard<'_, PlanState> {
        self.state.lock().expect("no panic while deciding")
    }

    /// Decides the next operation: `Ok(None)` passes it, `Ok(Some(mode))`
    /// makes this write the crash, `Err` fails it.
    fn decide(&self, write: bool) -> Result<Option<TornWrite>> {
        let mut guard = self.lock();
        let s = &mut *guard;
        if s.ops >= s.fail_from {
            s.injected += 1;
            return Err(injected(false));
        }
        let i = s.ops;
        s.ops += 1;
        if let Some((_, mode)) = s.torn.filter(|&(at, _)| at == i) {
            s.injected += 1;
            return if write {
                Ok(Some(mode))
            } else {
                Err(injected(false))
            };
        }
        let fault = match &mut s.transient {
            Transient::Never => false,
            Transient::EveryKth { period, per_thread } => {
                let n = per_thread.entry(std::thread::current().id()).or_insert(i);
                *n += 1;
                *n % *period == 0
            }
            Transient::Probability { p, seed } => {
                // Top 53 bits → a uniform double in [0, 1).
                let u = (splitmix64(seed.wrapping_add(i)) >> 11) as f64 / (1u64 << 53) as f64;
                u < *p
            }
        };
        if fault {
            s.injected += 1;
            return Err(injected(true));
        }
        Ok(None)
    }
}

/// A device whose reads, writes and allocations its [`FaultPlan`] decides.
/// `Clone` (when `D` is) shares the inner device handle and the plan.
#[derive(Clone)]
pub struct FaultDevice<D> {
    inner: D,
    plan: FaultPlan,
}

impl<D> FaultDevice<D> {
    /// The plan this device answers to.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }
}

impl<D: BlockDevice> BlockDevice for FaultDevice<D> {
    fn read_block(&self, id: BlockId, buf: &mut [u8; BLOCK_SIZE]) -> Result<()> {
        self.plan.decide(false)?;
        self.inner.read_block(id, buf)
    }

    fn write_block(&self, id: BlockId, data: &[u8; BLOCK_SIZE]) -> Result<()> {
        let Some(mode) = self.plan.decide(true)? else {
            return self.inner.write_block(id, data);
        };
        // The crash lands mid-write: a damaged version of the block
        // reaches the platter before the error is reported.
        let mut torn = *data;
        match mode {
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
        Err(injected(false))
    }

    fn allocate(&self, n: u64) -> Result<BlockId> {
        self.plan.decide(false)?;
        self.inner.allocate(n)
    }

    fn num_blocks(&self) -> u64 {
        self.inner.num_blocks()
    }

    fn sync(&self) -> Result<()> {
        if self.plan.dead() {
            return Err(injected(false));
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
        let plan = FaultPlan::budget(3);
        let dev = plan.wrap(MemDevice::new());
        dev.allocate(4).unwrap(); // 1
        let buf = crate::zeroed_block();
        dev.write_block(0, &buf).unwrap(); // 2
        let mut out = crate::zeroed_block();
        dev.read_block(0, &mut out).unwrap(); // 3
        let err = dev.read_block(0, &mut out).unwrap_err();
        assert!(matches!(err, StorageError::Io { .. }));
        assert!(!err.is_transient(), "budget cutoff is permanent");
        assert!(plan.dead());
        assert_eq!(plan.faults_injected(), 1);
    }

    #[test]
    fn every_kth_fails_transiently_and_recovers() {
        let plan = FaultPlan::every_kth(3);
        let dev = plan.wrap(MemDevice::new());
        dev.allocate(1).unwrap(); // op 1
        let mut out = crate::zeroed_block();
        dev.read_block(0, &mut out).unwrap(); // op 2
        let err = dev.read_block(0, &mut out).unwrap_err(); // op 3: fault
        assert!(err.is_transient(), "{err}");
        // The very next attempt (op 4) succeeds: the fault is recoverable.
        dev.read_block(0, &mut out).unwrap();
        assert_eq!(plan.faults_injected(), 1);
        assert!(!plan.dead());
    }

    /// The interleaving that broke retries under one shared count: between
    /// a thread's fault and its retry, another thread performs exactly
    /// `period − 1` operations. The retry must still succeed — and a thread
    /// that arrives later continues the count the plan has seen, so
    /// handing the device from thread to thread keeps one counter's fault
    /// positions.
    #[test]
    fn every_kth_retry_succeeds_whatever_other_threads_do() {
        let plan = FaultPlan::every_kth(4);
        let dev = plan.wrap(MemDevice::new());
        dev.allocate(1).unwrap(); // op 1
        let mut out = crate::zeroed_block();
        dev.read_block(0, &mut out).unwrap(); // op 2
        dev.read_block(0, &mut out).unwrap(); // op 3
        assert!(dev.read_block(0, &mut out).is_err()); // op 4: fault
        std::thread::scope(|scope| {
            scope.spawn(|| {
                // Continues the plan's count at 5, 6, 7: no fault.
                let mut out = crate::zeroed_block();
                for _ in 0..3 {
                    dev.read_block(0, &mut out).unwrap();
                }
            });
        });
        // The plan's 8th operation, but this thread's 5th.
        dev.read_block(0, &mut out).unwrap();
        assert_eq!(plan.faults_injected(), 1);
    }

    #[test]
    fn probability_mode_is_seeded_and_transient() {
        let run = |seed| {
            let plan = FaultPlan::with_probability(0.5, seed);
            let dev = plan.wrap(MemDevice::new());
            dev.allocate(1).unwrap_or(0);
            let mut out = crate::zeroed_block();
            let pattern: Vec<bool> = (0..64)
                .map(|_| dev.read_block(0, &mut out).is_ok())
                .collect();
            (pattern, plan.faults_injected())
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

        let dev = FaultPlan::with_probability(1.0, 0).wrap(MemDevice::new());
        let err = dev.allocate(1).unwrap_err();
        assert!(err.is_transient());
    }

    #[test]
    fn refill_restores_service() {
        let plan = FaultPlan::budget(1);
        let dev = plan.wrap(MemDevice::new());
        dev.allocate(1).unwrap();
        let mut out = crate::zeroed_block();
        assert!(dev.read_block(0, &mut out).is_err());
        plan.set_budget(2);
        assert!(dev.read_block(0, &mut out).is_ok());
    }

    #[test]
    fn crash_tears_the_write_then_kills_the_device() {
        let mem = Arc::new(MemDevice::new());
        mem.allocate(1).unwrap();
        mem.write_block(0, &[0xFFu8; BLOCK_SIZE]).unwrap();

        // Op 0 is the write: it must land truncated and fail.
        let plan = FaultPlan::crash_at(0, TornWrite::Truncated);
        let dev = plan.wrap(Arc::clone(&mem));
        assert!(dev.write_block(0, &[0x11u8; BLOCK_SIZE]).is_err());
        assert!(plan.dead());
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
        let dev = FaultPlan::crash_at(0, TornWrite::Garbled).wrap(Arc::clone(&mem));
        assert!(dev.write_block(0, &[0u8; BLOCK_SIZE]).is_err());
        let mut out = crate::zeroed_block();
        mem.read_block(0, &mut out).unwrap();
        assert!(out[256..272].iter().all(|&b| b == 0xA5));
        assert!(out[..256].iter().all(|&b| b == 0));
    }

    #[test]
    fn wrappers_share_one_op_counter() {
        let plan = FaultPlan::crash_at(2, TornWrite::Garbled);
        let a = plan.wrap(MemDevice::new());
        let b = plan.wrap(MemDevice::new());
        a.allocate(1).unwrap(); // op 0
        b.allocate(1).unwrap(); // op 1
        assert!(a.allocate(1).is_err()); // op 2: crash
        assert!(b.allocate(1).is_err()); // dead: rejected without counting
        assert_eq!(plan.ops(), 3);
    }

    #[test]
    fn max_crash_index_never_fires() {
        let plan = FaultPlan::crash_at(u64::MAX, TornWrite::Garbled);
        let dev = plan.wrap(MemDevice::new());
        dev.allocate(8).unwrap();
        for i in 0..8 {
            dev.write_block(i, &[i as u8; BLOCK_SIZE]).unwrap();
        }
        assert!(!plan.dead());
        assert_eq!(plan.ops(), 9);
    }

    #[test]
    fn kill_switch_is_alive_until_pulled() {
        let plan = FaultPlan::new();
        let dev = plan.wrap(MemDevice::new());
        dev.allocate(2).unwrap();
        dev.write_block(0, &[7u8; BLOCK_SIZE]).unwrap();
        assert!(!plan.dead());
        plan.set_budget(0);
        assert!(plan.dead());
        let mut buf = crate::zeroed_block();
        let err = dev.read_block(0, &mut buf).unwrap_err();
        assert!(!err.is_transient(), "kill must be permanent: {err}");
        assert!(dev.sync().is_err());
        assert!(dev.write_block(1, &[0u8; BLOCK_SIZE]).is_err());
    }

    #[test]
    fn kill_after_fires_at_the_armed_op_and_spans_wrappers() {
        let plan = FaultPlan::new();
        let a = plan.wrap(MemDevice::new());
        let b = plan.wrap(MemDevice::new());
        plan.set_budget(2);
        a.allocate(1).unwrap(); // op 0
        b.allocate(1).unwrap(); // op 1
        assert!(a.allocate(1).is_err()); // op 2: dead from here on
        assert!(b.allocate(1).is_err());
        assert!(plan.dead());
    }

    #[test]
    fn kill_switch_clone_shares_fate() {
        let plan = FaultPlan::new();
        let dev = plan.wrap(Arc::new(MemDevice::new()));
        let twin = dev.clone();
        dev.allocate(1).unwrap();
        plan.set_budget(0);
        assert!(twin.allocate(1).is_err());
    }
}
