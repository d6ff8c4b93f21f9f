//! Online replica scrubber: detects and repairs silent divergence between
//! a shard's replicas.
//!
//! Replication only helps if the replicas actually agree, and disks rot
//! silently — a flipped bit in a cold page is invisible until a failover
//! routes a query into it. The scrubber walks a sharded directory replica
//! by replica and re-proves the build-time invariant that replicas are
//! byte-identical:
//!
//! 1. **Assess**: every replica is opened and integrity-checked (the same
//!    CRC-verifying walk `ir2 check` runs), and its catalog epoch read.
//! 2. **Pick a reference**: the healthy replica with the highest catalog
//!    epoch (ties break to the lowest replica index). Epoch ordering
//!    matters — after a crash mid-repair, a stale-but-clean replica must
//!    not overwrite a newer one.
//! 3. **Compare**: every device file of every other replica is diffed
//!    block-for-block against the reference (raw bytes — a page whose CRC
//!    still validates but whose bytes differ is still divergence).
//! 4. **Repair** (opt-in): differing files are re-created and copied
//!    block by block from the reference, then re-verified — the same copy
//!    a replicated build makes. Pages are sealed (CRC-trailed, written
//!    once) and the catalog commits by shadow-paged epoch flip, so a
//!    file-granularity copy from a quiescent healthy peer cannot tear.
//!
//! Counters exported through [`MetricsRegistry`]: `scrub_pages_total`
//! (pages compared), `scrub_mismatches_total` (pages that differed),
//! `scrub_repairs_total` (files re-copied), plus `scrub_runs_total` /
//! `scrub_errors_total` from the background [`Scrubber`].

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use ir2_storage::{diff_blocks, BlockDevice, FileDevice, MetricsRegistry, Result, StorageError};

use crate::shard::{copy_verified, shard_layout, SHARD_MANIFEST};
use crate::{DeviceSet, SpatialKeywordDb};

/// Outcome of one scrub pass over a sharded directory.
#[derive(Debug, Default)]
pub struct ScrubReport {
    /// Shards in the manifest.
    pub shards: usize,
    /// Replicas per shard in the manifest.
    pub replicas: usize,
    /// Pages (blocks) compared against a reference replica.
    pub pages: u64,
    /// Pages that differed from the reference (or were missing).
    pub mismatches: u64,
    /// Files re-copied from the reference during repair.
    pub repairs: u64,
    /// Mismatching pages still present after the pass — nonzero when
    /// repair was off, a repair failed re-verification, or a shard had no
    /// healthy replica to repair from.
    pub unrepaired: u64,
    /// Shards that could not be scrubbed at all (no healthy replica).
    pub unscrubbed_shards: u64,
    /// Human-readable findings, one line each.
    pub details: Vec<String>,
}

impl ScrubReport {
    /// Whether the directory is fully consistent after this pass: no
    /// divergence found, or every divergence repaired and re-verified.
    pub fn clean(&self) -> bool {
        self.unrepaired == 0 && self.unscrubbed_shards == 0
    }
}

/// Health of one replica: its catalog epoch if it opens and passes an
/// integrity walk, otherwise the failure.
fn assess(path: &Path) -> Result<u64> {
    let set = DeviceSet::open_dir(path)?;
    let db = SpatialKeywordDb::open(set)?;
    let report = db.check_integrity();
    if let Some(bad) = report.structures.iter().find(|s| !s.ok) {
        return Err(StorageError::Corrupt(format!(
            "integrity check failed in `{}`",
            bad.name
        )));
    }
    Ok(db.catalog_epoch())
}

/// One scrub pass over the sharded database at `dir`; see the module docs
/// for the protocol. With `repair` set, divergent replica files are
/// re-copied from the reference replica and re-verified. Counters go to
/// `metrics` when provided.
pub fn scrub_dir<P: AsRef<Path>>(
    dir: P,
    repair: bool,
    metrics: Option<&MetricsRegistry>,
) -> Result<ScrubReport> {
    let dir = dir.as_ref();
    let layout = shard_layout(dir)?.ok_or_else(|| {
        StorageError::Corrupt(format!(
            "{} has no {SHARD_MANIFEST} manifest (not a sharded database)",
            dir.display()
        ))
    })?;
    let mut report = ScrubReport {
        shards: layout.shards,
        replicas: layout.replicas,
        ..ScrubReport::default()
    };
    for i in 0..layout.shards {
        let dirs = layout.replica_dirs(dir, i);
        let mut health: Vec<Option<u64>> = Vec::with_capacity(dirs.len());
        for (m, path) in dirs.iter().enumerate() {
            match assess(path) {
                Ok(epoch) => health.push(Some(epoch)),
                Err(e) => {
                    report
                        .details
                        .push(format!("shard {i} replica {m}: unhealthy: {e}"));
                    health.push(None);
                }
            }
        }
        // Reference: healthy replica with the highest epoch; ties break
        // toward the lowest index so the choice is deterministic.
        let reference = (0..dirs.len())
            .filter(|&m| health[m].is_some())
            .max_by_key(|&m| (health[m], std::cmp::Reverse(m)));
        let Some(r0) = reference else {
            report
                .details
                .push(format!("shard {i}: no healthy replica to scrub against"));
            report.unscrubbed_shards += 1;
            continue;
        };
        if let Some(stale) = (0..dirs.len())
            .find(|&m| health[m].is_some_and(|e| e != health[r0].expect("reference is healthy")))
        {
            report.details.push(format!(
                "shard {i} replica {stale}: catalog epoch {} behind reference replica {r0} \
                 (epoch {})",
                health[stale].expect("checked healthy"),
                health[r0].expect("reference is healthy"),
            ));
        }
        for m in 0..dirs.len() {
            if m == r0 {
                continue;
            }
            let mut bad_files: Vec<&'static str> = Vec::new();
            let mut bad_pages = 0u64;
            for name in DeviceSet::<FileDevice>::file_names() {
                let src = FileDevice::open(dirs[r0].join(name))?;
                let diffs = match FileDevice::open(dirs[m].join(name)) {
                    Ok(dst) => {
                        report.pages += src.num_blocks().max(dst.num_blocks());
                        diff_blocks(&src, &dst)?
                    }
                    // A missing or unopenable file counts every reference
                    // page as divergent.
                    Err(_) => {
                        report.pages += src.num_blocks();
                        (0..src.num_blocks()).collect()
                    }
                };
                if !diffs.is_empty() {
                    bad_pages += diffs.len() as u64;
                    bad_files.push(name);
                    report.details.push(format!(
                        "shard {i} replica {m}: `{name}` diverges from replica {r0} on {} page(s)",
                        diffs.len()
                    ));
                }
            }
            report.mismatches += bad_pages;
            if bad_files.is_empty() {
                continue;
            }
            if repair {
                std::fs::create_dir_all(&dirs[m])?;
                let mut still = 0u64;
                for name in &bad_files {
                    let src = FileDevice::open(dirs[r0].join(name))?;
                    let dst = FileDevice::create(dirs[m].join(name))?;
                    still += copy_verified(&src, &dst)?.len() as u64;
                    report.repairs += 1;
                }
                report.unrepaired += still;
                report.details.push(format!(
                    "shard {i} replica {m}: repaired {} file(s) from replica {r0}{}",
                    bad_files.len(),
                    if still == 0 {
                        ", verified clean"
                    } else {
                        " — STILL DIVERGENT"
                    }
                ));
            } else {
                report.unrepaired += bad_pages;
            }
        }
    }
    if let Some(m) = metrics {
        m.add_counter("scrub_pages_total", report.pages);
        m.add_counter("scrub_mismatches_total", report.mismatches);
        m.add_counter("scrub_repairs_total", report.repairs);
    }
    Ok(report)
}

/// A background scrubbing thread: runs [`scrub_dir`] every `interval`
/// until stopped (explicitly or on drop). Obtain one from
/// [`ShardedDb::start_scrubber`](crate::ShardedDb::start_scrubber) or
/// [`Scrubber::start`].
pub struct Scrubber {
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl Scrubber {
    /// Starts scrubbing `dir` every `interval` on a background thread,
    /// folding counters into `metrics` (`scrub_runs_total` /
    /// `scrub_errors_total` per pass, plus the [`scrub_dir`] counters).
    pub fn start(
        dir: PathBuf,
        interval: Duration,
        repair: bool,
        metrics: Arc<MetricsRegistry>,
    ) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || loop {
            match scrub_dir(&dir, repair, Some(&metrics)) {
                Ok(_) => metrics.add_counter("scrub_runs_total", 1),
                Err(_) => metrics.add_counter("scrub_errors_total", 1),
            }
            // Sleep in short slices so stop() returns promptly.
            let mut slept = Duration::ZERO;
            while slept < interval {
                if flag.load(Ordering::Relaxed) {
                    return;
                }
                let step = Duration::from_millis(20).min(interval - slept);
                std::thread::sleep(step);
                slept += step;
            }
            if flag.load(Ordering::Relaxed) {
                return;
            }
        });
        Self {
            stop,
            handle: Some(handle),
        }
    }

    /// Stops the background thread and waits for it to exit.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Scrubber {
    fn drop(&mut self) {
        self.shutdown();
    }
}
