//! Transparent retry layer: jittered exponential backoff for transient
//! faults plus a per-block circuit breaker for persistent ones.
//!
//! Real disks exhibit two failure regimes. *Transient* faults (an
//! interrupted syscall, a momentary timeout) succeed if simply tried
//! again; *permanent* faults (a dead sector, corruption) repeat forever,
//! and retrying them only burns latency. [`RetryDevice`] splits the two
//! with [`StorageError::is_transient`]: transient errors are retried with
//! jittered exponential backoff up to [`RetryPolicy::max_retries`] times,
//! while permanent errors count *strikes* against the block they hit —
//! after [`RetryPolicy::quarantine_after`] consecutive strikes the block
//! is quarantined and every later access fails fast with
//! [`StorageError::Quarantined`], sparing the query path from grinding on
//! a sector that will never answer.
//!
//! Retries and backoff are observable at two granularities: device-wide
//! via the [`MetricsRegistry`] (see [`RetryDevice::with_metrics`]) and
//! per-query in the [`IoScope`](crate::IoScope) that measures the query's
//! block accesses: a retry is counted in the scope of the thread that
//! slept through it.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

use crate::{
    BlockDevice, BlockId, Counter, Histogram, IoOp, MetricsRegistry, Result, StorageError,
    BLOCK_SIZE,
};

/// Tunables for [`RetryDevice`].
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Retries per operation beyond the initial attempt.
    pub max_retries: u32,
    /// Backoff before the first retry; doubles each retry after that.
    pub base_backoff: Duration,
    /// Upper bound on any single backoff sleep.
    pub max_backoff: Duration,
    /// Consecutive *permanent* failures on one block before it is
    /// quarantined. `u32::MAX` disables the breaker.
    pub quarantine_after: u32,
    /// Seed for the deterministic jitter stream.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_retries: 4,
            base_backoff: Duration::from_micros(20),
            max_backoff: Duration::from_millis(2),
            quarantine_after: 3,
            seed: 0x5EED_1E57,
        }
    }
}

/// One SplitMix64 output — the jitter stream.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Registry handles, held so the hot path never takes the registry lock.
struct RetryMetrics {
    attempts: Arc<Counter>,
    recoveries: Arc<Counter>,
    exhausted: Arc<Counter>,
    quarantined: Arc<Counter>,
    rejections: Arc<Counter>,
    backoff_us: Arc<Histogram>,
}

impl RetryMetrics {
    fn register(registry: &MetricsRegistry, label: &str) -> Self {
        let name = |stem: &str| format!("{stem}{{dev=\"{label}\"}}");
        Self {
            attempts: registry.counter(&name("device_retry_attempts_total")),
            recoveries: registry.counter(&name("device_retry_recoveries_total")),
            exhausted: registry.counter(&name("device_retry_exhausted_total")),
            quarantined: registry.counter(&name("device_quarantined_blocks_total")),
            rejections: registry.counter(&name("device_quarantine_rejections_total")),
            backoff_us: registry.histogram(&name("device_retry_backoff_us")),
        }
    }
}

/// Per-block circuit-breaker state.
#[derive(Default)]
struct Breaker {
    /// Consecutive permanent failures per block (cleared on success).
    strikes: HashMap<BlockId, u32>,
    /// Quarantined blocks → strike count at quarantine time.
    quarantined: HashMap<BlockId, u32>,
}

/// A [`BlockDevice`] wrapper that retries transient faults and quarantines
/// persistently failing blocks; see the module docs.
pub struct RetryDevice<D> {
    inner: D,
    policy: RetryPolicy,
    breaker: Mutex<Breaker>,
    jitter: AtomicU64,
    metrics: Option<RetryMetrics>,
}

impl<D: BlockDevice> RetryDevice<D> {
    /// Wraps `inner` with the default [`RetryPolicy`].
    pub fn new(inner: D) -> Self {
        Self::with_policy(inner, RetryPolicy::default())
    }

    /// Wraps `inner` with an explicit policy.
    pub fn with_policy(inner: D, policy: RetryPolicy) -> Self {
        let jitter = AtomicU64::new(policy.seed);
        Self {
            inner,
            policy,
            breaker: Mutex::new(Breaker::default()),
            jitter,
            metrics: None,
        }
    }

    /// Wraps `inner` and publishes retry/backoff/quarantine counters and a
    /// backoff histogram into `registry`, labeled `{dev="<label>"}`.
    pub fn with_metrics(
        inner: D,
        policy: RetryPolicy,
        registry: &MetricsRegistry,
        label: &str,
    ) -> Self {
        let mut dev = Self::with_policy(inner, policy);
        dev.metrics = Some(RetryMetrics::register(registry, label));
        dev
    }

    /// The wrapped device.
    pub fn inner(&self) -> &D {
        &self.inner
    }

    /// The active policy.
    pub fn policy(&self) -> &RetryPolicy {
        &self.policy
    }

    /// Blocks currently quarantined by the circuit breaker, sorted.
    pub fn quarantined_blocks(&self) -> Vec<BlockId> {
        let mut v: Vec<BlockId> = self.breaker.lock().quarantined.keys().copied().collect();
        v.sort_unstable();
        v
    }

    /// The backoff before retry number `attempt` (1-based): exponential
    /// growth from the base, capped, with "equal jitter" — half the delay
    /// is fixed, half uniform random — so concurrent retriers against one
    /// busy resource do not stampede in lockstep.
    fn backoff_delay(&self, attempt: u32) -> Duration {
        // `attempt` is 1-based; saturate rather than underflow if a caller
        // ever passes 0. The shift is clamped so `1u32 << shift` cannot
        // overflow, and the exponential product saturates at Duration::MAX.
        let shift = attempt.saturating_sub(1).min(16);
        let exp = self.policy.base_backoff.saturating_mul(1u32 << shift);
        let capped = exp.min(self.policy.max_backoff);
        // A pathological `max_backoff` holds more nanoseconds than u64;
        // saturate instead of silently truncating to an arbitrary sleep.
        let nanos = u64::try_from(capped.as_nanos()).unwrap_or(u64::MAX);
        let r = splitmix64(self.jitter.fetch_add(1, Ordering::Relaxed));
        Duration::from_nanos(nanos / 2 + r % (nanos / 2 + 1))
    }

    /// Fails fast if `block` is quarantined.
    fn check_quarantine(&self, block: BlockId) -> Result<()> {
        if let Some(&failures) = self.breaker.lock().quarantined.get(&block) {
            if let Some(m) = &self.metrics {
                m.rejections.inc();
            }
            return Err(StorageError::Quarantined { block, failures });
        }
        Ok(())
    }

    /// Records the outcome of a settled (non-retryable) operation on
    /// `block` in the breaker.
    fn settle(&self, block: Option<BlockId>, permanent_failure: bool) {
        let Some(block) = block else { return };
        let mut b = self.breaker.lock();
        if !permanent_failure {
            b.strikes.remove(&block);
            return;
        }
        let strikes = b.strikes.entry(block).or_insert(0);
        *strikes += 1;
        if *strikes >= self.policy.quarantine_after {
            let n = *strikes;
            b.strikes.remove(&block);
            b.quarantined.insert(block, n);
            if let Some(m) = &self.metrics {
                m.quarantined.inc();
            }
        }
    }

    /// Runs `f`, retrying transient failures with backoff and feeding the
    /// breaker on permanent ones.
    fn run<T>(
        &self,
        op: IoOp,
        block: Option<BlockId>,
        mut f: impl FnMut() -> Result<T>,
    ) -> Result<T> {
        if let Some(b) = block {
            self.check_quarantine(b)?;
        }
        let mut attempt = 0u32;
        loop {
            match f() {
                Ok(v) => {
                    self.settle(block, false);
                    if attempt > 0 {
                        if let Some(m) = &self.metrics {
                            m.recoveries.inc();
                        }
                    }
                    return Ok(v);
                }
                Err(e) if e.is_transient() && attempt < self.policy.max_retries => {
                    attempt += 1;
                    let delay = self.backoff_delay(attempt);
                    if let Some(m) = &self.metrics {
                        m.attempts.inc();
                        m.backoff_us.observe(delay.as_micros() as u64);
                    }
                    crate::tracking::scope_record_retry(delay);
                    std::thread::sleep(delay);
                }
                Err(e) => {
                    if e.is_transient() {
                        // Retries exhausted without recovering.
                        if let Some(m) = &self.metrics {
                            m.exhausted.inc();
                        }
                    } else {
                        self.settle(block, true);
                    }
                    return Err(e.with_io_context(op, block));
                }
            }
        }
    }
}

impl<D: BlockDevice> BlockDevice for RetryDevice<D> {
    fn read_block(&self, id: BlockId, buf: &mut [u8; BLOCK_SIZE]) -> Result<()> {
        self.run(IoOp::Read, Some(id), || self.inner.read_block(id, buf))
    }

    fn write_block(&self, id: BlockId, data: &[u8; BLOCK_SIZE]) -> Result<()> {
        self.run(IoOp::Write, Some(id), || self.inner.write_block(id, data))
    }

    fn allocate(&self, n: u64) -> Result<BlockId> {
        self.run(IoOp::Allocate, None, || self.inner.allocate(n))
    }

    fn num_blocks(&self) -> u64 {
        self.inner.num_blocks()
    }

    fn sync(&self) -> Result<()> {
        self.run(IoOp::Sync, None, || self.inner.sync())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::{FaultDevice, FaultPlan};
    use crate::{IoScope, MemDevice};

    fn fast_policy() -> RetryPolicy {
        RetryPolicy {
            base_backoff: Duration::from_micros(1),
            max_backoff: Duration::from_micros(10),
            ..RetryPolicy::default()
        }
    }

    #[test]
    fn clean_path_is_transparent() {
        let dev = RetryDevice::with_policy(MemDevice::new(), fast_policy());
        let first = dev.allocate(2).unwrap();
        let mut block = crate::zeroed_block();
        block[0] = 0x42;
        dev.write_block(first, &block).unwrap();
        let mut out = crate::zeroed_block();
        dev.read_block(first, &mut out).unwrap();
        assert_eq!(out[0], 0x42);
        assert!(dev.quarantined_blocks().is_empty());
    }

    #[test]
    fn transient_faults_are_absorbed() {
        // Every 2nd op fails transiently; one retry always recovers.
        let flaky = FaultPlan::every_kth(2).wrap(MemDevice::new());
        let dev = RetryDevice::with_policy(flaky, fast_policy());
        dev.allocate(4).unwrap();
        let buf = crate::zeroed_block();
        let scope = IoScope::enter();
        for i in 0..4 {
            dev.write_block(i, &buf).unwrap();
        }
        let mut out = crate::zeroed_block();
        for i in 0..4 {
            dev.read_block(i, &mut out).unwrap();
        }
        let stats = scope.finish();
        assert!(dev.inner().plan().faults_injected() > 0);
        assert!(stats.retries > 0, "retries must be attributed to the scope");
        assert!(stats.backoff > Duration::ZERO);
        assert!(
            dev.quarantined_blocks().is_empty(),
            "transients never quarantine"
        );
    }

    /// A borrowed read goes through whatever wraps the device: under
    /// injected transient faults it is retried and counted exactly like
    /// the `read_block` it replaces.
    #[test]
    fn a_borrowed_read_is_retried_and_counted_like_read_block() {
        use crate::TrackedDevice;
        let stack = || {
            let flaky = FaultPlan::every_kth(2).wrap(MemDevice::new());
            let dev = TrackedDevice::new(RetryDevice::with_policy(flaky, fast_policy()));
            let first = dev.allocate(4).unwrap();
            for id in first..first + 4 {
                dev.write_block(id, &[id as u8 + 1; BLOCK_SIZE]).unwrap();
            }
            dev.stats().reset();
            dev
        };
        let (copied, lent) = (stack(), stack());
        let faults = |dev: &TrackedDevice<RetryDevice<FaultDevice<MemDevice>>>| {
            dev.inner().inner().plan().faults_injected()
        };
        let (faults_copied, faults_lent) = (faults(&copied), faults(&lent));

        let scope = IoScope::enter();
        let mut buf = crate::zeroed_block();
        for id in [2, 3, 0, 1] {
            copied.read_block(id, &mut buf).unwrap();
            assert_eq!(buf[0], id as u8 + 1);
        }
        // One scope sees both: the blocks the tracked device read, and the
        // retries the retry layer beneath it made.
        let seen = scope.finish();
        assert_eq!(seen.for_stats(&copied.stats()).total(), 4);
        let retries_copied = seen.retries;

        let scope = IoScope::enter();
        for id in [2, 3, 0, 1] {
            let mut calls = 0;
            lent.with_block(id, &mut |block| {
                calls += 1;
                assert_eq!(block, &[id as u8 + 1; BLOCK_SIZE]);
            })
            .unwrap();
            assert_eq!(calls, 1);
        }
        let retries_lent = scope.finish().retries;

        assert!(retries_lent > 0);
        assert_eq!(retries_lent, retries_copied);
        assert_eq!(faults(&lent) - faults_lent, faults(&copied) - faults_copied);
        assert_eq!(lent.stats().snapshot(), copied.stats().snapshot());
    }

    #[test]
    fn transient_exhaustion_surfaces_the_error() {
        // p = 1.0: every attempt fails transiently; retries run out.
        let flaky = FaultPlan::with_probability(1.0, 7).wrap(MemDevice::new());
        let dev = RetryDevice::with_policy(flaky, fast_policy());
        let err = dev.allocate(1).unwrap_err();
        assert!(err.is_transient());
        // Initial attempt + max_retries.
        assert_eq!(
            dev.inner().plan().faults_injected(),
            1 + fast_policy().max_retries as u64
        );
    }

    #[test]
    fn permanent_failures_are_not_retried() {
        let flaky = FaultPlan::budget(0).wrap(MemDevice::new()); // fails everything, permanently
        let dev = RetryDevice::with_policy(flaky, fast_policy());
        let mut out = crate::zeroed_block();
        assert!(dev.read_block(0, &mut out).is_err());
        assert_eq!(
            dev.inner().plan().faults_injected(),
            1,
            "exactly one attempt"
        );
    }

    #[test]
    fn breaker_quarantines_after_consecutive_permanent_failures() {
        let policy = RetryPolicy {
            quarantine_after: 3,
            ..fast_policy()
        };
        let flaky = FaultPlan::budget(0).wrap(MemDevice::new());
        let dev = RetryDevice::with_policy(flaky, policy);
        let mut out = crate::zeroed_block();
        for _ in 0..3 {
            assert!(matches!(
                dev.read_block(5, &mut out),
                Err(StorageError::Io { .. })
            ));
        }
        assert_eq!(dev.quarantined_blocks(), vec![5]);
        // Even after the device heals, the quarantined block fails fast
        // without touching the inner device.
        dev.inner().plan().set_budget(100);
        let before = dev.inner().plan().faults_injected();
        match dev.read_block(5, &mut out) {
            Err(StorageError::Quarantined {
                block: 5,
                failures: 3,
            }) => {}
            other => panic!("expected fail-fast quarantine, got {other:?}"),
        }
        assert_eq!(dev.inner().plan().faults_injected(), before);
        // Other blocks are unaffected.
        dev.allocate(8).unwrap();
        assert!(dev.read_block(0, &mut out).is_ok());
    }

    #[test]
    fn success_resets_the_strike_count() {
        let policy = RetryPolicy {
            quarantine_after: 2,
            ..fast_policy()
        };
        let flaky = FaultPlan::budget(0).wrap(MemDevice::new());
        let dev = RetryDevice::with_policy(flaky, policy);
        let mut out = crate::zeroed_block();
        assert!(dev.read_block(3, &mut out).is_err()); // strike 1
        dev.inner().plan().set_budget(10);
        dev.allocate(8).unwrap();
        assert!(dev.read_block(3, &mut out).is_ok()); // strikes cleared
        dev.inner().plan().set_budget(0);
        assert!(dev.read_block(3, &mut out).is_err()); // strike 1 again
        assert!(dev.quarantined_blocks().is_empty());
    }

    #[test]
    fn metrics_are_published() {
        let registry = MetricsRegistry::new();
        let flaky = FaultPlan::every_kth(2).wrap(MemDevice::new());
        let dev = RetryDevice::with_metrics(flaky, fast_policy(), &registry, "objects");
        dev.allocate(2).unwrap();
        let buf = crate::zeroed_block();
        for i in 0..2 {
            dev.write_block(i, &buf).unwrap();
        }
        let snap = registry.snapshot();
        let attempts = snap.counter("device_retry_attempts_total{dev=\"objects\"}");
        let recoveries = snap.counter("device_retry_recoveries_total{dev=\"objects\"}");
        assert!(attempts > 0);
        assert!(recoveries > 0);
        assert!(registry
            .export_prometheus()
            .contains("device_retry_backoff_us_count{dev=\"objects\"}"));
    }

    #[test]
    fn backoff_grows_and_stays_capped() {
        let dev = RetryDevice::with_policy(
            MemDevice::new(),
            RetryPolicy {
                base_backoff: Duration::from_micros(100),
                max_backoff: Duration::from_micros(800),
                ..RetryPolicy::default()
            },
        );
        for attempt in 1..=10 {
            let d = dev.backoff_delay(attempt);
            let cap = Duration::from_micros(800);
            assert!(d <= cap, "attempt {attempt}: {d:?} > cap");
            // Equal jitter keeps at least half the nominal delay.
            let nominal = Duration::from_micros(100 * (1 << (attempt - 1).min(16)).min(8));
            assert!(
                d >= nominal / 2,
                "attempt {attempt}: {d:?} < half of {nominal:?}"
            );
        }
    }

    #[test]
    fn backoff_saturates_at_extreme_attempt_counts() {
        let dev = RetryDevice::with_policy(
            MemDevice::new(),
            RetryPolicy {
                base_backoff: Duration::from_micros(100),
                max_backoff: Duration::from_micros(800),
                ..RetryPolicy::default()
            },
        );
        // Attempt counts past the shift clamp must neither overflow the
        // shift nor escape the cap, and the equal-jitter floor holds.
        for attempt in [17u32, 21, 64, 1 << 20, u32::MAX] {
            let d = dev.backoff_delay(attempt);
            assert!(d <= Duration::from_micros(800), "attempt {attempt}: {d:?}");
            assert!(d >= Duration::from_micros(400), "attempt {attempt}: {d:?}");
        }
        // Attempt 0 is out of contract (retries are 1-based) but must not
        // underflow-panic in debug builds; it degrades to the base delay.
        let d = dev.backoff_delay(0);
        assert!(d <= Duration::from_micros(100));
    }

    #[test]
    fn backoff_survives_pathological_policies() {
        // A cap holding more nanoseconds than u64 used to truncate
        // u128→u64, yielding an arbitrary (possibly near-zero) sleep. The
        // conversion now saturates, so equal jitter keeps the delay at or
        // above half the saturated cap.
        let dev = RetryDevice::with_policy(
            MemDevice::new(),
            RetryPolicy {
                base_backoff: Duration::MAX,
                max_backoff: Duration::MAX,
                ..RetryPolicy::default()
            },
        );
        for attempt in [1u32, 2, 40, u32::MAX] {
            let d = dev.backoff_delay(attempt);
            assert!(
                d >= Duration::from_nanos(u64::MAX / 2),
                "attempt {attempt}: {d:?} lost nanoseconds to truncation"
            );
        }
    }

    #[test]
    fn dropped_scope_deactivates() {
        let flaky = FaultPlan::every_kth(2).wrap(MemDevice::new());
        let dev = RetryDevice::with_policy(flaky, fast_policy());
        dev.allocate(4).unwrap();
        let buf = crate::zeroed_block();
        {
            let _scope = IoScope::enter();
            for i in 0..4 {
                dev.write_block(i, &buf).unwrap();
            }
            // Dropped without finish(): attribution simply stops.
        }
        let scope = IoScope::enter(); // must not panic
        let seen = scope.finish();
        assert_eq!((seen.retries, seen.backoff), (0, Duration::ZERO));
    }
}
