//! Spatially sharded database: S independent [`SpatialKeywordDb`] shards
//! behind one exact scatter-gather top-k engine.
//!
//! ## Partitioning
//!
//! At build time the object set is tiled in STR order (the same
//! sort-tile-recursive discipline the bulk loader uses inside one tree):
//! objects are sorted on x, cut into √S̄ vertical slabs, each slab sorted on
//! y and cut again, yielding S spatially coherent tiles of near-equal
//! cardinality. Each tile becomes a fully independent shard — its own
//! devices, buffer pool, decoded-node cache, vocabulary, and metrics — so
//! shards share **no** locks on the query path.
//!
//! ## Exact merge (no fetch-k-from-every-shard over-read)
//!
//! Every shard exposes an *incremental* distance-first iterator whose
//! frontier-heap minimum ([`frontier_bound`](
//! ir2_irtree::DistanceFirstIter::frontier_bound)) lower-bounds everything
//! the shard can still emit. The merge keeps a global heap of shards keyed
//! by `max(MINDIST(query, shard MBR), frontier bound)` and always steps the
//! shard with the smallest bound; it stops the moment the current k-th
//! distance beats every remaining bound (strictly — ties at the k-th
//! distance keep pulling, so the canonical `(distance, id)` answer is
//! exact). A shard whose MBR is farther than the k-th result is never
//! touched at all: its bound is known from the catalog without any I/O.
//!
//! Soundness: a best-first frontier minimum is non-decreasing and MINDIST
//! lower-bounds everything inside an MBR, so `bound(shard)` ≤ distance of
//! every future emission of that shard; when `min over shards of bound` >
//! k-th distance, no shard can improve the answer. This is the standard
//! branch-and-bound argument, applied across trees instead of within one.
//!
//! ## Replication, failover, and hedging
//!
//! Every shard may be backed by R byte-identical replicas (`shard-NNN/
//! replica-M/` directories; replicas are verified block-for-block at build
//! time). At query time a [`ReplicaSet`] routes each shard's pull to a
//! healthy replica. A pull is one `ShardCursor`, and every gather steps
//! the same cursor. When a replica returns a [`StorageError`] (a dead
//! device, or its retry layer's circuit breaker tripping into
//! `Quarantined`), the cursor **fails over** by itself: it restarts the
//! shard's bounded pull from the root on the next replica, under the
//! *surviving* limit slice — the deadline is an absolute instant so it
//! carries over unchanged, and the shard's I/O-budget slice is reduced by
//! what the dead attempts consumed. Only a shard with no replica left to
//! try fails the query. Results stay exact because a restart re-emits a
//! superset of the dead attempt's hits ([`TopK`] deduplicates by object
//! id) and the truncation cut-radius machinery already makes partial
//! traversals honest. Whatever the gather, the report counts the I/O,
//! object loads and counters of every attempt, the dead ones included.
//!
//! Hedged reads ([`Gather::Hedged`]) cut tail latency under *stalls* rather
//! than faults: each shard's drain starts on the primary replica, and if it
//! has not completed after the hedge delay a second cursor, on another
//! replica, drains the same shard concurrently; the first complete drain
//! wins and the other stops at its next bounded step. Each cursor fails
//! over like any other, so a hedged shard fails only when both drains
//! fail. Both drains insert into the shared top-k, which is sound for the
//! same dedup reason.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use ir2_geo::{OrderedF64, Rect};
use ir2_irtree::{BoundedSearch, BoundedStep, NopSink, SearchCounters};
use ir2_model::{DistanceFirstQuery, ExecOutcome, QueryLimits, SpatialObject, TopK};
use ir2_storage::{
    copy_blocks, diff_blocks, BlockDevice, BlockId, FileDevice, MemDevice, MetricsRegistry, Result,
    StorageError,
};

use crate::db::{fan_out, fan_out_isolated};
use crate::report::{QueryError, Tally};
use crate::{Algorithm, DbConfig, DeviceSet, Gather, QueryReport, SpatialKeywordDb, TopkRequest};

/// Name of the manifest file marking a directory as a sharded database.
pub const SHARD_MANIFEST: &str = "SHARDS";

/// On-disk layout of a sharded database, as recorded in its manifest.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardLayout {
    /// Number of shards (STR tiles).
    pub shards: usize,
    /// Replicas per shard. `1` means the pre-replication layout: shard
    /// devices live directly in `shard-NNN/`, with no `replica-M/` level
    /// and no `replicas` manifest line — byte-identical to what older
    /// builds wrote.
    pub replicas: usize,
}

impl ShardLayout {
    /// Directory of shard `i` under `root`.
    pub fn shard_dir(&self, root: &Path, i: usize) -> PathBuf {
        root.join(shard_dir_name(i))
    }

    /// Device directories of every replica of shard `i`, in replica order.
    /// With one replica this is the shard directory itself (see
    /// [`replicas`](Self::replicas)).
    pub fn replica_dirs(&self, root: &Path, i: usize) -> Vec<PathBuf> {
        let shard = self.shard_dir(root, i);
        if self.replicas == 1 {
            vec![shard]
        } else {
            (0..self.replicas)
                .map(|m| shard.join(replica_dir_name(m)))
                .collect()
        }
    }
}

/// Reads the full shard layout of `dir`, if a manifest exists.
///
/// `Ok(None)` means the directory is not a sharded database (no manifest);
/// a present-but-malformed manifest is a [`StorageError::Corrupt`]. The
/// `replicas R` line is optional and defaults to 1 (older manifests
/// predate replication).
pub fn shard_layout<P: AsRef<Path>>(dir: P) -> Result<Option<ShardLayout>> {
    let path = dir.as_ref().join(SHARD_MANIFEST);
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e.into()),
    };
    let mut lines = text.lines();
    if lines.next().map(str::trim) != Some("ir2-sharded v1") {
        return Err(StorageError::Corrupt(
            "shard manifest: bad or missing header (expected `ir2-sharded v1`)".into(),
        ));
    }
    let mut shards = None;
    let mut replicas = 1usize;
    for line in lines {
        if let Some(n) = line.trim().strip_prefix("shards ") {
            let count: usize = n.trim().parse().map_err(|_| {
                StorageError::Corrupt(format!("shard manifest: bad shard count `{n}`"))
            })?;
            if count == 0 {
                return Err(StorageError::Corrupt(
                    "shard manifest: shard count must be at least 1".into(),
                ));
            }
            shards = Some(count);
        } else if let Some(n) = line.trim().strip_prefix("replicas ") {
            let count: usize = n.trim().parse().map_err(|_| {
                StorageError::Corrupt(format!("shard manifest: bad replica count `{n}`"))
            })?;
            if count == 0 {
                return Err(StorageError::Corrupt(
                    "shard manifest: replica count must be at least 1".into(),
                ));
            }
            replicas = count;
        }
    }
    match shards {
        Some(shards) => Ok(Some(ShardLayout { shards, replicas })),
        None => Err(StorageError::Corrupt(
            "shard manifest: missing `shards N` line".into(),
        )),
    }
}

/// Reads the shard count of `dir`'s manifest, if one exists.
///
/// `Ok(None)` means the directory is not a sharded database. This is how
/// the CLI decides whether to route a path to [`ShardedDb`] or to the
/// monolithic [`SpatialKeywordDb`]; see [`shard_layout`] for the replica
/// count as well.
pub fn sharded_manifest<P: AsRef<Path>>(dir: P) -> Result<Option<usize>> {
    Ok(shard_layout(dir)?.map(|l| l.shards))
}

fn shard_dir_name(i: usize) -> String {
    format!("shard-{i:03}")
}

fn replica_dir_name(m: usize) -> String {
    format!("replica-{m}")
}

/// Tiles `objects` into `s` STR-ordered partitions of near-equal size:
/// sort on x, cut into ⌈√s⌉ slabs (shard counts distributed round-robin),
/// sort each slab on y, cut per slab. Ties (coincident points) break on
/// id so the tiling is deterministic.
fn str_partition(mut objects: Vec<SpatialObject<2>>, s: usize) -> Vec<Vec<SpatialObject<2>>> {
    debug_assert!(s >= 1);
    if s == 1 {
        return vec![objects];
    }
    objects.sort_by(|a, b| {
        a.point
            .coord(0)
            .total_cmp(&b.point.coord(0))
            .then(a.point.coord(1).total_cmp(&b.point.coord(1)))
            .then(a.id.cmp(&b.id))
    });
    let cols = (s as f64).sqrt().ceil() as usize;
    let (base, extra) = (s / cols, s % cols);
    let mut out = Vec::with_capacity(s);
    let mut shards_left = s;
    let mut rest = objects;
    for c in 0..cols {
        let col_shards = base + usize::from(c < extra);
        // Objects proportional to this slab's shard share; exact at the end.
        let col_n = rest.len() * col_shards / shards_left;
        shards_left -= col_shards;
        let mut slab: Vec<SpatialObject<2>> = rest.drain(..col_n).collect();
        slab.sort_by(|a, b| {
            a.point
                .coord(1)
                .total_cmp(&b.point.coord(1))
                .then(a.point.coord(0).total_cmp(&b.point.coord(0)))
                .then(a.id.cmp(&b.id))
        });
        let (tile_base, tile_extra) = (slab.len() / col_shards, slab.len() % col_shards);
        let mut slab_rest = slab;
        for t in 0..col_shards {
            let tile_n = tile_base + usize::from(t < tile_extra);
            out.push(slab_rest.drain(..tile_n).collect());
        }
        debug_assert!(slab_rest.is_empty());
    }
    debug_assert!(rest.is_empty());
    debug_assert_eq!(out.len(), s);
    out
}

/// Bounding rectangle of a shard's R-Tree (union of root entry MBRs):
/// the shard bounds of a built or a reopened database alike.
fn tree_mbr<D: BlockDevice + 'static>(db: &SpatialKeywordDb<D>) -> Result<Option<Rect<2>>> {
    let tree = db.rtree();
    let Some(root) = tree.root() else {
        return Ok(None);
    };
    let (node, _) = tree.read_node_cached(root)?;
    if node.is_empty() {
        return Ok(None);
    }
    Ok(Some(node.mbr()))
}

/// Copies `src` onto `dst` block by block and returns the blocks that
/// still differ: the one way a replica's device is written, whether a
/// build populates it or a scrub repairs it.
pub(crate) fn copy_verified<S, T>(src: &S, dst: &T) -> Result<Vec<BlockId>>
where
    S: BlockDevice + ?Sized,
    T: BlockDevice + ?Sized,
{
    copy_blocks(src, dst)?;
    diff_blocks(src, dst)
}

/// Populates replica `dst` from replica 0's devices `src`; a device that
/// does not verify fails the build.
fn copy_replica<E: BlockDevice>(src: &DeviceSet<E>, dst: &DeviceSet<E>) -> Result<()> {
    for ((name, s), (_, d)) in src.as_refs().into_iter().zip(dst.as_refs()) {
        if !copy_verified(s, d)?.is_empty() {
            return Err(StorageError::Corrupt(format!(
                "replica verification failed: `{name}` differs from replica 0 after copy"
            )));
        }
    }
    Ok(())
}

/// Splits one query's limits across `s` shards: the **deadline** is shared
/// (every shard races the same wall-clock instant, like a batch — it is an
/// absolute instant, so it is never divided and can never round to zero),
/// the **I/O budget** is divided evenly (remainder to the first shards),
/// and the **frontier cap** applies per shard (each shard runs its own
/// heap).
///
/// Every live shard's slice is floored at 1: a budget smaller than the
/// shard count used to hand trailing shards a 0-block slice, truncating
/// them before they could report even their root bound. The floor means a
/// tiny budget may overspend by at most `s − 1` blocks in total; when the
/// budget is at least `s`, the slices sum exactly to the budget.
fn split_limits(limits: &QueryLimits, s: usize) -> Vec<QueryLimits> {
    (0..s as u64)
        .map(|i| QueryLimits {
            deadline: limits.deadline,
            io_budget: limits
                .io_budget
                .map(|b| (b / s as u64 + u64::from(i < b % s as u64)).max(1)),
            max_heap_size: limits.max_heap_size,
        })
        .collect()
}

// ---------------------------------------------------------------------
// The shard cursor.
// ---------------------------------------------------------------------

/// One shard's whole pull, on whichever of its replicas is serving it.
/// Its search is [`SpatialKeywordDb::open_search`] on that replica (boxed
/// once per open, never per step; IIO is not here — it is not incremental
/// and merges per-shard *results*). Every gather steps shards through
/// this cursor — the sequential merge, a parallel worker, and both sides
/// of a hedge — so every gather fails over the same way. The caller
/// passes [`step`](Self::step) the tightest bound it holds, so a shard
/// never descends toward a result the gather would discard.
struct ShardCursor<'a, D: BlockDevice + 'static> {
    db: &'a ShardedDb<D>,
    shard: usize,
    req: &'a TopkRequest,
    /// This shard's slice of the request's limits.
    limits: QueryLimits,
    /// MINDIST from the query region to the shard's bounding rect — a constant
    /// lower bound that holds before any I/O (a far shard with an empty
    /// frontier key of 0.0 is still known to be far).
    rect_bound: f64,
    iter: Box<dyn BoundedSearch<2> + 'a>,
    /// Replicas attempted, the one serving now last — a failover never
    /// retries a replica that failed this pull.
    tried: Vec<usize>,
    /// Search counters of the attempts that died mid-pull, their object
    /// loads included.
    prior: SearchCounters,
    stepped: bool,
}

impl<'a, D: BlockDevice + 'static> ShardCursor<'a, D> {
    /// Opens shard `shard`'s pull on replica `m` under `limits`.
    fn open(
        db: &'a ShardedDb<D>,
        shard: usize,
        m: usize,
        req: &'a TopkRequest,
        limits: QueryLimits,
    ) -> Result<Self> {
        Ok(Self {
            iter: db.shards[shard].get(m).open_search(req, limits, NopSink)?,
            rect_bound: db.rect_bound(shard, req),
            db,
            shard,
            req,
            limits,
            tried: vec![m],
            prior: SearchCounters::default(),
            stepped: false,
        })
    }

    /// Lower bound on every result this shard can still emit; `None` once
    /// the shard is finished.
    fn bound(&self) -> Option<f64> {
        self.iter.frontier_bound().map(|fb| fb.max(self.rect_bound))
    }

    /// Advances at most to `limit` ([`next_within`](
    /// BoundedSearch::next_within)). A [`StorageError`] fails the shard
    /// over: its pull restarts from the root on the next replica under
    /// the slice that survives — the deadline is an absolute instant, and
    /// the I/O budget loses what the dead attempts charged (the
    /// `nodes_read + candidates_checked` unit the limited iterators
    /// charge) — and the step is `Pending`. The error comes back only
    /// when the shard has no replica left to try. Hits a dead attempt
    /// emitted stay where the caller put them: the restart re-emits them
    /// and [`TopK`] drops repeats.
    fn step(&mut self, limit: f64) -> Result<BoundedStep<2>> {
        self.stepped = true;
        let err = match self.iter.next_within(limit) {
            Err(e) => e,
            step => return step,
        };
        let set = &self.db.shards[self.shard];
        let failed = self.tried[self.tried.len() - 1];
        let Some(m) = set.fail_over(failed, &mut self.tried, &self.db.metrics) else {
            return Err(err);
        };
        self.prior += &self.iter.counters();
        let consumed = self.prior.nodes_read + self.prior.candidates_checked;
        let mut limits = self.limits;
        limits.io_budget = limits.io_budget.map(|b| b.saturating_sub(consumed).max(1));
        self.iter = set.get(m).open_search(self.req, limits, NopSink)?;
        Ok(BoundedStep::Pending)
    }

    /// Adds what every attempt of this pull counted to `tally`, and
    /// whether it did any work to `stepped`.
    fn fold_into(&self, tally: &mut Tally, stepped: &mut bool) {
        tally.counters += &self.prior;
        tally.counters += &self.iter.counters();
        *stepped |= self.stepped;
    }

    /// A parallel worker's pull: drains this shard into `shared` under
    /// its threshold until the shard cannot improve the answer, or until
    /// `won` says a racing drain of the same shard completed first, then
    /// folds the cursor into `tally` and `stepped`. Returns whether this
    /// drain completed first.
    fn drain(
        mut self,
        shared: &Mutex<TopK<2>>,
        won: &AtomicBool,
        tally: &mut Tally,
        stepped: &mut bool,
    ) -> Result<bool> {
        let out = (|| {
            while let Some(b) = self.bound() {
                if won.load(Ordering::SeqCst) {
                    return Ok(false);
                }
                // Snapshot the shared threshold (+∞ until k results are
                // held) and advance only up to it. It only shrinks as
                // siblings insert, so a stale snapshot is merely a looser
                // — still sound — bound.
                let limit = lock_top_k(shared)?.threshold();
                if b > limit {
                    break;
                }
                match self.step(limit)? {
                    BoundedStep::Hit(obj, d) => lock_top_k(shared)?.insert(obj, d),
                    BoundedStep::Pending => {}
                    BoundedStep::Done => break,
                }
            }
            Ok(!won.swap(true, Ordering::SeqCst))
        })();
        self.fold_into(tally, stepped);
        out
    }
}

// ---------------------------------------------------------------------
// Replica routing.
// ---------------------------------------------------------------------

/// R byte-identical [`SpatialKeywordDb`] replicas of one shard, plus a
/// health bit per replica.
///
/// Health is advisory routing state, not ground truth: a replica is marked
/// failed when a query observes a [`StorageError`] from it, so later
/// queries start on a surviving replica instead of paying a failed attempt
/// first. A fully-failed set still yields candidates (unhealthy ones, as a
/// last resort) — devices recover, and the retry layer re-proves health by
/// simply succeeding. [`ir2 scrub --repair`](crate::scrub) is the durable
/// path back to health.
pub struct ReplicaSet<D: BlockDevice + 'static> {
    replicas: Vec<SpatialKeywordDb<D>>,
    healthy: Vec<AtomicBool>,
}

impl<D: BlockDevice + 'static> ReplicaSet<D> {
    fn new(replicas: Vec<SpatialKeywordDb<D>>) -> Result<Self> {
        if replicas.is_empty() {
            return Err(StorageError::Corrupt(
                "a shard needs at least one replica".into(),
            ));
        }
        let healthy = replicas.iter().map(|_| AtomicBool::new(true)).collect();
        Ok(Self { replicas, healthy })
    }

    /// Number of replicas.
    pub fn len(&self) -> usize {
        self.replicas.len()
    }

    /// Always false (an empty set cannot be constructed).
    pub fn is_empty(&self) -> bool {
        self.replicas.is_empty()
    }

    /// The replica a fresh pull should start on: the first healthy one,
    /// or replica 0 as a last resort when all are marked failed.
    pub fn primary_index(&self) -> usize {
        (0..self.len()).find(|&m| self.is_healthy(m)).unwrap_or(0)
    }

    /// The database behind [`primary_index`](Self::primary_index).
    pub fn primary(&self) -> &SpatialKeywordDb<D> {
        &self.replicas[self.primary_index()]
    }

    /// The `m`-th replica.
    pub fn get(&self, m: usize) -> &SpatialKeywordDb<D> {
        &self.replicas[m]
    }

    /// All replicas, in index order.
    pub fn replicas(&self) -> impl Iterator<Item = &SpatialKeywordDb<D>> {
        self.replicas.iter()
    }

    /// Whether replica `m` is currently considered healthy.
    pub fn is_healthy(&self, m: usize) -> bool {
        self.healthy[m].load(Ordering::Relaxed)
    }

    /// Routes later queries away from replica `m` (it returned a storage
    /// error).
    pub fn mark_failed(&self, m: usize) {
        self.healthy[m].store(false, Ordering::Relaxed);
    }

    /// Marks replica `m` healthy again (e.g. after a scrub repair).
    pub fn mark_healthy(&self, m: usize) {
        self.healthy[m].store(true, Ordering::Relaxed);
    }

    /// The next replica a failover should try, given the ones this query
    /// already attempted: the first untried healthy replica, else the
    /// first untried one at all (a marked-failed replica may have
    /// recovered), else `None` — the shard is out of options and the
    /// query fails.
    pub fn failover_candidate(&self, tried: &[usize]) -> Option<usize> {
        (0..self.len())
            .find(|m| !tried.contains(m) && self.is_healthy(*m))
            .or_else(|| (0..self.len()).find(|m| !tried.contains(m)))
    }

    /// The one failover: replica `failed` returned a storage error, so
    /// later queries route away from it, and the pull moves to the
    /// [`failover_candidate`](Self::failover_candidate), which joins
    /// `tried`. `None` when every replica has been tried.
    fn fail_over(
        &self,
        failed: usize,
        tried: &mut Vec<usize>,
        metrics: &MetricsRegistry,
    ) -> Option<usize> {
        self.mark_failed(failed);
        let next = self.failover_candidate(tried)?;
        tried.push(next);
        metrics.add_counter("replica_failovers_total", 1);
        Some(next)
    }
}

// ---------------------------------------------------------------------
// The sharded database.
// ---------------------------------------------------------------------

/// S independent [`SpatialKeywordDb`] shards over an STR spatial tiling,
/// answering distance-first top-k queries by an exact scatter-gather merge
/// (see the module docs for the bound argument).
///
/// Shards are fully isolated: separate devices, buffer pools, decoded-node
/// caches, vocabularies, and metric registries. The merge attributes I/O
/// per shard through the same [`IoScope`](ir2_storage::IoScope) machinery
/// the batch engine uses and folds everything into one [`QueryReport`],
/// so a sharded query's report is comparable with a monolithic one.
///
/// Object ids are assumed unique across the dataset (the generators and
/// the CLI guarantee this); the canonical result order is `(distance,
/// id)`, which makes answers deterministic across shard counts and worker
/// schedules. The monolithic engines canonicalize ties at the k-th
/// distance to the same `(distance, id)` order (their collectors drain the
/// tied group and reorder it by id), so sharded and monolithic answers are
/// byte-identical — the differential oracle harness (`ir2 fuzz`) asserts
/// exactly this.
pub struct ShardedDb<D: BlockDevice + 'static> {
    shards: Vec<ReplicaSet<D>>,
    bounds: Vec<Option<Rect<2>>>,
    config: DbConfig,
    metrics: Arc<MetricsRegistry>,
    /// Root directory when opened from / created on disk — what the
    /// scrubber walks. `None` for in-memory databases.
    dir: Option<PathBuf>,
}

impl<D: BlockDevice + 'static> ShardedDb<D> {
    /// Builds a sharded database: `objects` are STR-tiled into
    /// `device_sets.len()` partitions and each partition is built into its
    /// own shard **in parallel** (builds are independent). One replica per
    /// shard; see [`build_replicated`](ShardedDb::build_replicated).
    ///
    /// Requires at least one device set and at least one object per shard
    /// (an empty shard would index nothing and answer nothing).
    pub fn build(
        device_sets: Vec<DeviceSet<D>>,
        objects: impl IntoIterator<Item = SpatialObject<2>>,
        config: DbConfig,
    ) -> Result<Self> {
        let s = device_sets.len();
        let objects: Vec<SpatialObject<2>> = objects.into_iter().collect();
        if s == 0 {
            return Err(StorageError::Corrupt(
                "a sharded database needs at least one shard".into(),
            ));
        }
        if objects.len() < s {
            return Err(StorageError::Corrupt(format!(
                "cannot tile {} objects into {} shards (each shard needs at least one object)",
                objects.len(),
                s
            )));
        }
        let parts = str_partition(objects, s);
        let mut slots: Vec<Option<Result<SpatialKeywordDb<D>>>> = (0..s).map(|_| None).collect();
        std::thread::scope(|scope| {
            for ((set, part), slot) in device_sets.into_iter().zip(parts).zip(slots.iter_mut()) {
                let cfg = config.clone();
                scope.spawn(move || *slot = Some(SpatialKeywordDb::build(set, part, cfg)));
            }
        });
        let shards = slots
            .into_iter()
            .map(|slot| {
                // An unfilled slot (a build worker that died without
                // reporting) surfaces as a typed error, not a crash.
                slot.unwrap_or_else(|| {
                    Err(StorageError::Corrupt(
                        "shard build worker terminated without a result".into(),
                    ))
                })
                .and_then(|db| ReplicaSet::new(vec![db]))
            })
            .collect::<Result<Vec<_>>>()?;
        Self::from_replica_sets(shards)
    }

    /// Builds a replicated sharded database over `groups[i][m]` = devices
    /// of shard `i`, replica `m`. Every group must have the same replica
    /// count. Shard `i` is built once into replica 0's devices, then every
    /// other replica is populated by a raw block copy and **byte-verified**
    /// against replica 0 before the database is opened — a replica that
    /// does not verify fails the build.
    ///
    /// `D: Clone` because building consumes a device set, so replica 0's
    /// handles are cloned for the build (device handles are cheap shared
    /// references — e.g. `Arc<MemDevice>`). On-disk databases use
    /// [`create_in_dir_replicated`](ShardedDb::create_in_dir_replicated),
    /// which copies between files the same way.
    pub fn build_replicated(
        groups: Vec<Vec<DeviceSet<D>>>,
        objects: impl IntoIterator<Item = SpatialObject<2>>,
        config: DbConfig,
    ) -> Result<Self>
    where
        D: Clone,
    {
        let r = groups.first().map(|g| g.len()).unwrap_or(0);
        if r == 0 {
            return Err(StorageError::Corrupt(
                "a replicated build needs at least one shard with one replica".into(),
            ));
        }
        if groups.iter().any(|g| g.len() != r) {
            return Err(StorageError::Corrupt(
                "every shard must have the same replica count".into(),
            ));
        }
        let primaries: Vec<DeviceSet<D>> = groups.iter().map(|g| g[0].clone()).collect();
        // Flushed on drop; every replica reopens from its own devices.
        drop(Self::build(primaries, objects, config)?);
        for group in &groups {
            for rep in &group[1..] {
                copy_replica(&group[0], rep)?;
            }
        }
        Self::from_replica_groups(groups)
    }

    /// Opens a replicated sharded database from already-opened devices:
    /// `groups[i][m]` = shard `i`, replica `m`. Replicas are assumed
    /// byte-identical (the build verified them; the scrubber re-proves it
    /// online). Shard bounding rects come from replica 0's R-Tree root
    /// MBR.
    pub fn from_replica_groups(groups: Vec<Vec<DeviceSet<D>>>) -> Result<Self> {
        if groups.is_empty() {
            return Err(StorageError::Corrupt(
                "a sharded database needs at least one shard".into(),
            ));
        }
        let r = groups[0].len();
        if groups.iter().any(|g| g.len() != r) {
            return Err(StorageError::Corrupt(
                "every shard must have the same replica count".into(),
            ));
        }
        let shards = groups
            .into_iter()
            .map(|group| {
                group
                    .into_iter()
                    .map(SpatialKeywordDb::open)
                    .collect::<Result<Vec<_>>>()
                    .and_then(ReplicaSet::new)
            })
            .collect::<Result<Vec<_>>>()?;
        Self::from_replica_sets(shards)
    }

    /// Assembles a sharded database from already-opened replica sets.
    fn from_replica_sets(shards: Vec<ReplicaSet<D>>) -> Result<Self> {
        if shards.is_empty() {
            return Err(StorageError::Corrupt(
                "a sharded database needs at least one shard".into(),
            ));
        }
        let bounds = shards
            .iter()
            .map(|set| tree_mbr(set.get(0)))
            .collect::<Result<Vec<_>>>()?;
        let config = shards[0].get(0).config().clone();
        Ok(Self {
            shards,
            bounds,
            config,
            metrics: Arc::new(MetricsRegistry::new()),
            dir: None,
        })
    }

    /// Reopens a sharded database from already-opened device sets, one per
    /// shard (single replica). Shard bounding rects are recomputed from
    /// each shard's R-Tree root MBR (one cached node read per shard).
    pub fn open(device_sets: Vec<DeviceSet<D>>) -> Result<Self> {
        Self::from_replica_groups(device_sets.into_iter().map(|s| vec![s]).collect())
    }

    /// Opens a sharded directory created by
    /// [`create_in_dir`](ShardedDb::create_in_dir) or
    /// [`create_in_dir_replicated`](ShardedDb::create_in_dir_replicated),
    /// wrapping every device of every replica through `wrap` (role names
    /// as in [`DeviceSet::map`]) — e.g. into
    /// [`RetryDevice`](ir2_storage::RetryDevice)s.
    pub fn open_dir_mapped<P: AsRef<Path>>(
        dir: P,
        mut wrap: impl FnMut(&'static str, FileDevice) -> D,
    ) -> Result<Self> {
        let dir = dir.as_ref();
        let layout = shard_layout(dir)?.ok_or_else(|| {
            StorageError::Corrupt(format!(
                "{} has no {SHARD_MANIFEST} manifest (not a sharded database)",
                dir.display()
            ))
        })?;
        // A replica that fails to open (deleted directory, unreadable
        // devices) degrades the shard instead of failing the whole open —
        // that is the point of replication. Only a shard with *no*
        // openable replica is fatal. `ir2 check` still reports the hole.
        let mut sets = Vec::with_capacity(layout.shards);
        for i in 0..layout.shards {
            let mut group = Vec::with_capacity(layout.replicas);
            let mut last_err = None;
            for path in layout.replica_dirs(dir, i) {
                match DeviceSet::open_dir(path)
                    .and_then(|s| SpatialKeywordDb::open(s.map(&mut wrap)))
                {
                    Ok(db) => group.push(db),
                    Err(e) => last_err = Some(e),
                }
            }
            if group.is_empty() {
                return Err(last_err.unwrap_or_else(|| {
                    StorageError::Corrupt(format!("shard {i} has no openable replica"))
                }));
            }
            sets.push(ReplicaSet::new(group)?);
        }
        let mut db = Self::from_replica_sets(sets)?;
        db.dir = Some(dir.to_path_buf());
        Ok(db)
    }

    /// The primary replica of each shard, in tile order. Each is a
    /// complete [`SpatialKeywordDb`]; integrity checks and statistics go
    /// through these directly.
    pub fn shards(&self) -> impl Iterator<Item = &SpatialKeywordDb<D>> {
        self.shards.iter().map(ReplicaSet::primary)
    }

    /// The replica sets, in tile order — the full replicated topology.
    pub fn replica_sets(&self) -> &[ReplicaSet<D>] {
        &self.shards
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Replicas per shard (uniform across shards).
    pub fn replica_count(&self) -> usize {
        self.shards.first().map(ReplicaSet::len).unwrap_or(0)
    }

    /// Root directory, when opened from disk.
    pub fn dir(&self) -> Option<&Path> {
        self.dir.as_deref()
    }

    /// Starts a background [`Scrubber`](crate::scrub::Scrubber) over this
    /// database's directory: every `interval` it re-verifies that replicas
    /// are byte-identical, repairing divergent ones from a healthy peer
    /// when `repair` is set. Scrub counters fold into this database's
    /// [`metrics`](ShardedDb::metrics) registry. Fails for in-memory
    /// databases (nothing on disk to scrub).
    pub fn start_scrubber(
        &self,
        interval: Duration,
        repair: bool,
    ) -> Result<crate::scrub::Scrubber> {
        let dir = self.dir.clone().ok_or_else(|| {
            StorageError::Corrupt("in-memory sharded database has no directory to scrub".into())
        })?;
        Ok(crate::scrub::Scrubber::start(
            dir,
            interval,
            repair,
            Arc::clone(&self.metrics),
        ))
    }

    /// Per-shard bounding rectangles (`None` for an empty shard).
    pub fn bounds(&self) -> &[Option<Rect<2>>] {
        &self.bounds
    }

    /// The configuration every shard was built with.
    pub fn config(&self) -> &DbConfig {
        &self.config
    }

    /// Total objects across shards (counted once, not per replica).
    pub fn total_objects(&self) -> u64 {
        self.shards().map(|s| s.build_stats().objects).sum()
    }

    /// The sharded engine's metrics registry (`sharded_*` and `shard_*`
    /// series; each shard additionally keeps its own registry).
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.metrics
    }

    // ------------------------------------------------------------------
    // Queries.
    // ------------------------------------------------------------------

    /// Answers one distance-first top-k request by an exact scatter-gather
    /// merge, gathered as [`req.gather`](TopkRequest::gather) says. Every
    /// gather returns the monolithic answer on the same objects (canonical
    /// `(distance, id)` order); the combinations [`TopkRequest`] lists are
    /// refused before anything is read.
    ///
    /// Under [`QueryLimits`] (sequential gather only) the limits are split
    /// across shards: shared deadline, I/O budget divided evenly (each
    /// live shard's slice floored at 1), per-shard frontier cap. On
    /// truncation the report's results are the exact top-m prefix within
    /// the smallest truncated shard's cut radius — every reported result
    /// provably beats everything unseen.
    ///
    /// I/O is attributed through [`IoScope`](ir2_storage::IoScope)s
    /// whatever the gather (the sequential merge runs on the calling
    /// thread, gather workers and hedges each scope their own drain), so
    /// concurrent callers get exact reports from `run` as well as from
    /// [`run_batch`](ShardedDb::run_batch).
    pub fn run(&self, req: &TopkRequest) -> Result<QueryReport> {
        let (report, stepped) = self.execute(req)?;
        self.publish(req.alg, &report, &stepped);
        Ok(report)
    }

    /// Answers `reqs` on `threads` workers (each request runs its whole
    /// gather from one worker, like [`SpatialKeywordDb::run_batch`]):
    /// one entry per request, in input order, with exact per-request I/O
    /// attribution. A request that errors or panics fills only its own
    /// slot.
    pub fn run_batch(
        &self,
        reqs: &[TopkRequest],
        threads: usize,
    ) -> Vec<std::result::Result<QueryReport, QueryError>> {
        let outs = fan_out_isolated(reqs, threads, |req| self.execute(req).map_err(Into::into));
        // Metrics fold in after the concurrent phase.
        reqs.iter()
            .zip(outs)
            .map(|(req, out)| {
                let key = req.alg.key();
                match out {
                    Ok((report, stepped)) => {
                        self.publish(req.alg, &report, &stepped);
                        Ok(report)
                    }
                    Err(e) => {
                        self.metrics.add_counter(
                            &format!(
                                "sharded_query_failures_total{{alg=\"{key}\",kind=\"{}\"}}",
                                e.kind()
                            ),
                            1,
                        );
                        Err(e)
                    }
                }
            })
            .collect()
    }

    /// [`run`](ShardedDb::run) of the plain request `query` stands for:
    /// unlimited, anchored at its point, gathered sequentially.
    pub fn distance_first(
        &self,
        alg: Algorithm,
        query: &DistanceFirstQuery<2>,
    ) -> Result<QueryReport> {
        self.run(&TopkRequest::from_query(alg, query))
    }

    /// One request, checked, gathered and fully attributed, not yet
    /// published: the report plus which shards did any work. IIO merges
    /// results, `k == 0` touches nothing and one shard on one worker has
    /// nothing to overlap, so those gather sequentially whatever was
    /// asked.
    fn execute(&self, req: &TopkRequest) -> Result<(QueryReport, Vec<bool>)> {
        req.check(true)?;
        let t0 = Instant::now();
        let mut tally = Tally::default();
        let mut stepped = vec![false; self.shards.len()];
        let sequential_anyway = req.alg == Algorithm::Iio || req.k == 0;
        let results = match req.gather {
            Gather::Parallel(threads)
                if !sequential_anyway && (self.shards.len() > 1 || threads > 1) =>
            {
                self.gather_parallel(req, threads, None, &mut tally, &mut stepped)?
            }
            Gather::Hedged(delay) if !sequential_anyway => {
                let threads = self.shards.len();
                self.gather_parallel(req, threads, Some(delay), &mut tally, &mut stepped)?
            }
            _ => {
                let replicas = self.shards.iter().flat_map(ReplicaSet::replicas);
                tally.scoped(req.alg, replicas, |t| {
                    if req.alg == Algorithm::Iio {
                        self.merge_iio(req, t, &mut stepped)
                    } else {
                        self.merge_sequential(req, t, &mut stepped)
                    }
                })?
            }
        };
        let report = tally.report(results, &self.config.cost_model, t0.elapsed());
        Ok((report, stepped))
    }

    /// MINDIST from the request's region to shard `i`'s bounding rect — a
    /// lower bound on everything the shard holds, known before any I/O.
    fn rect_bound(&self, i: usize, req: &TopkRequest) -> f64 {
        self.bounds[i].map_or(f64::INFINITY, |r| req.region.min_dist(&r))
    }

    /// The parallel gather behind [`Gather::Parallel`] and
    /// [`Gather::Hedged`]: one worker per shard drains that shard's cursor
    /// into a shared branch-and-bound top-k (a worker stops as soon as its
    /// shard's bound exceeds the current k-th distance, which only shrinks
    /// — so every stop is final and the gathered superset contains the
    /// exact top-k). With `hedge` set a second cursor races the first
    /// after the delay.
    fn gather_parallel(
        &self,
        req: &TopkRequest,
        threads: usize,
        hedge: Option<Duration>,
        tally: &mut Tally,
        stepped: &mut [bool],
    ) -> Result<Vec<(SpatialObject<2>, f64)>> {
        let shared = Mutex::new(TopK::new(req.k));
        let idxs: Vec<usize> = (0..self.shards.len()).collect();
        let tallies = fan_out(&idxs, threads, |&i| {
            let set = &self.shards[i];
            let (mut t, mut st) = (Tally::default(), false);
            t.scoped(req.alg, set.replicas(), |t| match hedge {
                Some(delay) if set.len() > 1 => {
                    self.drain_hedged(i, req, &shared, delay, t, &mut st)
                }
                _ => {
                    let m = set.primary_index();
                    ShardCursor::open(self, i, m, req, QueryLimits::none())?
                        .drain(&shared, &AtomicBool::new(false), t, &mut st)
                        .map(drop)
                }
            })?;
            Ok((t, st))
        })?;
        for ((t, st), stepped) in tallies.into_iter().zip(stepped) {
            *tally += t;
            *stepped = st;
        }
        Ok(shared
            .into_inner()
            .map_err(|_| poisoned_top_k())?
            .into_sorted())
    }

    /// Shard `i`'s pull under a hedge: the primary's cursor drains on a
    /// scoped thread, and if it has not completed within `delay` a second
    /// cursor, on another replica, drains the same shard on this thread.
    /// The first complete drain wins and the other stops at its next
    /// bounded step; its partial inserts stand — they are true results.
    /// Each cursor fails over by itself, so the shard fails only when
    /// both drains fail.
    fn drain_hedged(
        &self,
        i: usize,
        req: &TopkRequest,
        shared: &Mutex<TopK<2>>,
        delay: Duration,
        tally: &mut Tally,
        stepped: &mut bool,
    ) -> Result<()> {
        let set = &self.shards[i];
        let primary = set.primary_index();
        let won = AtomicBool::new(false);
        let (ended, wait) = mpsc::channel::<()>();
        std::thread::scope(|sc| {
            let first = sc.spawn(|| {
                // Dropped when the drain ends, panicking or not: that is
                // what ends the wait below early.
                let _ended = ended;
                let (mut t, mut st) = (Tally::default(), false);
                let out = t.scoped(req.alg, set.replicas(), |t| {
                    ShardCursor::open(self, i, primary, req, QueryLimits::none())?
                        .drain(shared, &won, t, &mut st)
                });
                (out, t, st)
            });
            let _ = wait.recv_timeout(delay);
            if !won.load(Ordering::SeqCst) {
                self.metrics.add_counter("replica_hedges_total", 1);
                let m = set
                    .failover_candidate(&[primary])
                    .expect("a hedged shard has a second replica");
                // An error here is the secondary's alone: the primary may
                // still complete.
                let second = ShardCursor::open(self, i, m, req, QueryLimits::none())?;
                if let Ok(true) = second.drain(shared, &won, tally, stepped) {
                    self.metrics.add_counter("replica_hedge_wins_total", 1);
                }
            }
            let (first, t, st) = first.join().map_err(|_| poisoned_top_k())?;
            *tally += t;
            *stepped |= st;
            // Unwon, both drains failed: report the primary's error.
            match first {
                Err(e) if !won.load(Ordering::SeqCst) => Err(e),
                _ => Ok(()),
            }
        })
    }

    /// The exact sequential merge (module docs): a global heap of shards
    /// keyed by their current lower bound, lazily revalidated, always
    /// stepping the minimum; stops when the k-th distance strictly beats
    /// every remaining bound. A cursor that fails over comes back
    /// `Pending` with its frontier reset to the root, so it requeues at
    /// its rect bound.
    fn merge_sequential(
        &self,
        req: &TopkRequest,
        tally: &mut Tally,
        stepped: &mut [bool],
    ) -> Result<Vec<(SpatialObject<2>, f64)>> {
        if req.k == 0 {
            return Ok(Vec::new());
        }
        let per_shard = split_limits(&req.limits, self.shards.len());
        let mut cursors = (0..self.shards.len())
            .map(|i| {
                let m = self.shards[i].primary_index();
                ShardCursor::open(self, i, m, req, per_shard[i])
            })
            .collect::<Result<Vec<_>>>()?;

        let mut topk = TopK::new(req.k);
        let mut order: BinaryHeap<Reverse<(OrderedF64, usize)>> = cursors
            .iter()
            .enumerate()
            .map(|(i, c)| Reverse((OrderedF64(c.rect_bound), i)))
            .collect();
        // Each cursor has at most one heap entry; a finished one has none.
        while let Some(Reverse((OrderedF64(b), i))) = order.pop() {
            let Some(cur) = cursors[i].bound() else {
                continue;
            };
            if cur > b {
                // Stale heap entry: requeue at the shard's true bound.
                order.push(Reverse((OrderedF64(cur), i)));
                continue;
            }
            // Strict `>`: ties at the k-th distance keep pulling so the
            // canonical (distance, id) answer set is exact. The threshold
            // is +∞ until k results are held.
            if cur > topk.threshold() {
                break;
            }
            // Advance the shard at node granularity: never past the
            // next-best shard's bound (the point where another shard
            // should be stepped instead — this simulates one global
            // priority queue across all shards), and never past the k-th
            // distance (work beyond it would be discarded; `≤` keeps ties
            // at the k-th distance flowing).
            let rival = order
                .peek()
                .map_or(f64::INFINITY, |&Reverse((OrderedF64(rb), _))| rb);
            match cursors[i].step(rival.min(topk.threshold()))? {
                BoundedStep::Hit(obj, d) => topk.insert(obj, d),
                BoundedStep::Pending => {}
                BoundedStep::Done => continue,
            }
            if let Some(nb) = cursors[i].bound() {
                order.push(Reverse((OrderedF64(nb), i)));
            }
        }

        // A truncated search stops stepping, so its bound now is its cut
        // radius: it guarantees nothing at or beyond it. Results are exact
        // only within the smallest cut; the lowest truncated shard names
        // the reason.
        let mut cut = f64::INFINITY;
        for (c, stepped) in cursors.iter().zip(stepped) {
            c.fold_into(tally, stepped);
            if let Some(reason) = c.iter.truncation() {
                tally.outcome = tally.outcome.or(Some(reason));
                cut = cut.min(c.bound().unwrap_or(f64::INFINITY));
            }
        }
        let mut results = topk.into_sorted();
        if tally.outcome.is_some() {
            results.retain(|&(_, d)| d < cut);
        }
        Ok(results)
    }

    /// IIO across shards: the inverted index is non-incremental, so this
    /// is the documented fetch-k-from-every-shard over-read (each shard
    /// computes its own top-k, the union is re-ranked). Degrades
    /// all-or-nothing under limits, like the monolithic IIO. Every
    /// attempt's object loads count, a failed-over one's included.
    fn merge_iio(
        &self,
        req: &TopkRequest,
        tally: &mut Tally,
        stepped: &mut [bool],
    ) -> Result<Vec<(SpatialObject<2>, f64)>> {
        let per_shard = split_limits(&req.limits, self.shards.len());
        let mut topk = TopK::new(req.k);
        for (i, set) in self.shards.iter().enumerate() {
            // IIO is all-or-nothing per shard, so failover retries the
            // whole shard computation on the next replica with the full
            // slice (a partial attempt contributes nothing to reuse).
            let mut tried = vec![set.primary_index()];
            let out = loop {
                let m = tried[tried.len() - 1];
                match set.get(m).iio_topk(req, per_shard[i], &mut tally.iio_loads) {
                    Ok(out) => break out,
                    Err(e) => {
                        if set.fail_over(m, &mut tried, &self.metrics).is_none() {
                            return Err(e);
                        }
                    }
                }
            };
            stepped[i] = true;
            match out {
                ExecOutcome::Complete(hits) => {
                    for (obj, d) in hits {
                        topk.insert(obj, d);
                    }
                }
                ExecOutcome::Truncated { reason, .. } => {
                    tally.outcome = tally.outcome.or(Some(reason));
                }
            }
        }
        // All-or-nothing: any truncated shard could have held the true
        // top-1, so a partial union would not be a prefix of the answer.
        Ok(match tally.outcome {
            None => topk.into_sorted(),
            Some(_) => Vec::new(),
        })
    }

    /// Folds one finished query into the sharded registry: engine-level
    /// series plus a per-shard activity counter (how many queries actually
    /// touched each shard — the scatter-gather's pruning effectiveness).
    fn publish(&self, alg: Algorithm, r: &QueryReport, stepped: &[bool]) {
        let key = alg.key();
        let m = &self.metrics;
        m.add_counter(&format!("sharded_queries_total{{alg=\"{key}\"}}"), 1);
        m.observe_io(&format!("{{alg=\"{key}\",engine=\"sharded\"}}"), r.io);
        m.histogram(&format!("sharded_query_io_blocks{{alg=\"{key}\"}}"))
            .observe(r.io.total());
        m.histogram("sharded_query_shards_touched")
            .observe(stepped.iter().filter(|&&s| s).count() as u64);
        for (i, &st) in stepped.iter().enumerate() {
            if st {
                m.add_counter(&format!("shard_queries_total{{shard=\"{i}\"}}"), 1);
            }
        }
        if let Some(reason) = r.outcome {
            m.add_counter(
                &format!(
                    "sharded_queries_truncated_total{{alg=\"{key}\",reason=\"{}\"}}",
                    reason.key()
                ),
                1,
            );
        }
    }

    /// Prometheus exposition of the sharded engine: per-shard gauges
    /// (`shard_objects`, `shard_io_read_blocks`, `shard_io_write_blocks`)
    /// refreshed from each shard's device counters, plus every
    /// `sharded_*` / `shard_*` series accumulated so far.
    pub fn metrics_prometheus(&self) -> String {
        self.metrics
            .set_gauge("shard_count", self.shards.len() as f64);
        self.metrics
            .set_gauge("replica_count", self.replica_count() as f64);
        for (i, set) in self.shards.iter().enumerate() {
            self.metrics.set_gauge(
                &format!("shard_objects{{shard=\"{i}\"}}"),
                set.get(0).build_stats().objects as f64,
            );
            // Device I/O summed across the shard's replicas (each replica
            // has private devices; a failover or hedge moves real I/O).
            let (mut reads, mut writes) = (0u64, 0u64);
            for rep in set.replicas() {
                let (o, r, i2, m2, inv) = rep.io_totals();
                let all = [o, r, i2, m2, inv];
                reads += all
                    .iter()
                    .map(|s| s.random_reads + s.seq_reads)
                    .sum::<u64>();
                writes += all
                    .iter()
                    .map(|s| s.random_writes + s.seq_writes)
                    .sum::<u64>();
            }
            self.metrics.set_gauge(
                &format!("shard_io_read_blocks{{shard=\"{i}\"}}"),
                reads as f64,
            );
            self.metrics.set_gauge(
                &format!("shard_io_write_blocks{{shard=\"{i}\"}}"),
                writes as f64,
            );
        }
        self.metrics.export_prometheus()
    }
}

impl ShardedDb<FileDevice> {
    /// Creates a sharded database under `dir`: one `shard-NNN/` device
    /// directory per shard plus a `SHARDS` manifest, then builds every
    /// shard (in parallel) from the STR tiling of `objects`. One replica
    /// per shard — the layout is byte-identical to pre-replication builds;
    /// see [`create_in_dir_replicated`](ShardedDb::create_in_dir_replicated).
    pub fn create_in_dir<P: AsRef<Path>>(
        dir: P,
        objects: impl IntoIterator<Item = SpatialObject<2>>,
        config: DbConfig,
        shards: usize,
    ) -> Result<Self> {
        Self::create_in_dir_replicated(dir, objects, config, shards, 1)
    }

    /// Creates a replicated sharded database under `dir`. With `replicas
    /// == 1` the layout is exactly
    /// [`create_in_dir`](ShardedDb::create_in_dir)'s (`shard-NNN/` device
    /// dirs, no replica level, no `replicas` manifest line). With more,
    /// each shard is built once into `shard-NNN/replica-0/`, then copied
    /// block by block into fresh device files in `replica-1..R-1` and
    /// **byte-verified** against replica 0. The manifest is written last
    /// either way: a crash at any point of build, copy, or verification
    /// leaves a directory that is not recognized as a sharded database
    /// rather than one that opens half-built.
    pub fn create_in_dir_replicated<P: AsRef<Path>>(
        dir: P,
        objects: impl IntoIterator<Item = SpatialObject<2>>,
        config: DbConfig,
        shards: usize,
        replicas: usize,
    ) -> Result<Self> {
        let dir = dir.as_ref();
        if replicas == 0 {
            return Err(StorageError::Corrupt(
                "a sharded database needs at least one replica per shard".into(),
            ));
        }
        std::fs::create_dir_all(dir)?;
        let layout = ShardLayout { shards, replicas };
        let sets = (0..shards)
            .map(|i| {
                let dirs = layout.replica_dirs(dir, i);
                DeviceSet::create_in_dir(&dirs[0])
            })
            .collect::<Result<Vec<_>>>()?;
        let db = Self::build(sets, objects, config)?;
        if replicas == 1 {
            std::fs::write(
                dir.join(SHARD_MANIFEST),
                format!("ir2-sharded v1\nshards {shards}\n"),
            )?;
            let mut db = db;
            db.dir = Some(dir.to_path_buf());
            return Ok(db);
        }
        // Release replica 0's file handles before copying, then populate
        // and verify the other replicas from the sealed files.
        drop(db);
        for i in 0..shards {
            let dirs = layout.replica_dirs(dir, i);
            let src = DeviceSet::open_dir(&dirs[0])?;
            for rep_dir in &dirs[1..] {
                copy_replica(&src, &DeviceSet::create_in_dir(rep_dir)?)?;
            }
        }
        std::fs::write(
            dir.join(SHARD_MANIFEST),
            format!("ir2-sharded v1\nshards {shards}\nreplicas {replicas}\n"),
        )?;
        Self::open_dir(dir)
    }

    /// Opens a sharded directory with plain file devices.
    pub fn open_dir<P: AsRef<Path>>(dir: P) -> Result<Self> {
        Self::open_dir_mapped(dir, |_role, d| d)
    }
}

/// Typed error for a parallel-merge mutex poisoned by a sibling worker's
/// panic: the query fails with a [`StorageError`] its caller can isolate
/// (one slot of a batch) instead of a propagating panic aborting the run.
fn poisoned_top_k() -> StorageError {
    StorageError::Corrupt("sharded merge state poisoned by a worker panic".into())
}

fn lock_top_k(m: &Mutex<TopK<2>>) -> Result<std::sync::MutexGuard<'_, TopK<2>>> {
    m.lock().map_err(|_| poisoned_top_k())
}

// The sharded engine hands `&ShardedDb` to scoped worker threads (batch
// fan-out and parallel shard workers), so it must be Send + Sync like the
// facade it wraps; assert it at compile time alongside db.rs's stack.
const _: () = {
    const fn shareable<T: Send + Sync + ?Sized>() {}
    shareable::<ShardedDb<MemDevice>>();
    shareable::<ShardedDb<FileDevice>>();
};

#[cfg(test)]
mod tests {
    use super::*;

    fn obj(id: u64, x: f64, y: f64) -> SpatialObject<2> {
        SpatialObject::new(id, [x, y], "one two")
    }

    #[test]
    fn str_partition_is_exhaustive_and_balanced() {
        for s in [1usize, 2, 3, 4, 5, 8] {
            let objects: Vec<_> = (0..97)
                .map(|i| obj(i, (i * 37 % 89) as f64, (i * 53 % 71) as f64))
                .collect();
            let parts = str_partition(objects, s);
            assert_eq!(parts.len(), s);
            let total: usize = parts.iter().map(Vec::len).sum();
            assert_eq!(total, 97);
            let (min, max) = parts
                .iter()
                .map(Vec::len)
                .fold((usize::MAX, 0), |(lo, hi), n| (lo.min(n), hi.max(n)));
            assert!(max - min <= s, "sizes {min}..{max} too skewed for s={s}");
            // No object lost or duplicated.
            let mut ids: Vec<u64> = parts.iter().flatten().map(|o| o.id).collect();
            ids.sort_unstable();
            assert_eq!(ids, (0..97).collect::<Vec<_>>());
        }
    }

    #[test]
    fn limits_split_conserves_budget() {
        let limits = QueryLimits::none().with_io_budget(10);
        let split = split_limits(&limits, 4);
        let total: u64 = split.iter().map(|l| l.io_budget.unwrap()).sum();
        assert_eq!(total, 10);
        assert_eq!(split[0].io_budget, Some(3));
        assert_eq!(split[3].io_budget, Some(2));
        // Deadline and heap cap replicate, not divide.
        let limits = QueryLimits::none().with_max_heap_size(7);
        for l in split_limits(&limits, 3) {
            assert_eq!(l.max_heap_size, Some(7));
        }
    }

    #[test]
    fn topk_is_canonical_under_arrival_order() {
        let hits = [(3.0, 30), (1.0, 10), (2.0, 20), (2.0, 15), (0.5, 99)];
        let mut forward = TopK::new(3);
        for &(d, id) in &hits {
            forward.insert(obj(id, 0.0, 0.0), d);
        }
        let mut reverse = TopK::new(3);
        for &(d, id) in hits.iter().rev() {
            reverse.insert(obj(id, 0.0, 0.0), d);
        }
        let f: Vec<(u64, f64)> = forward
            .into_sorted()
            .iter()
            .map(|(o, d)| (o.id, *d))
            .collect();
        let r: Vec<(u64, f64)> = reverse
            .into_sorted()
            .iter()
            .map(|(o, d)| (o.id, *d))
            .collect();
        assert_eq!(f, r);
        assert_eq!(f, vec![(99, 0.5), (10, 1.0), (15, 2.0)]);
    }

    #[test]
    fn manifest_roundtrip_and_detection() {
        let dir = std::env::temp_dir().join(format!("ir2-shard-manifest-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        assert_eq!(sharded_manifest(&dir).unwrap(), None);
        std::fs::write(dir.join(SHARD_MANIFEST), "ir2-sharded v1\nshards 4\n").unwrap();
        assert_eq!(sharded_manifest(&dir).unwrap(), Some(4));
        std::fs::write(dir.join(SHARD_MANIFEST), "something else\n").unwrap();
        assert!(sharded_manifest(&dir).is_err());
        std::fs::write(dir.join(SHARD_MANIFEST), "ir2-sharded v1\nshards zero\n").unwrap();
        assert!(sharded_manifest(&dir).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
