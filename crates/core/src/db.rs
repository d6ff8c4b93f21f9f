//! The database facade: one object file, four index structures, measured
//! queries — the paper's experimental apparatus as a library.

use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ir2_geo::Rect;
use ir2_invindex::{iio_topk_limited, InvertedIndex};
use ir2_irtree::{
    collect_topk, insert_object, BoundedSearch, BoundedStep, DistanceFirstIter, Ir2Payload,
    MirPayload, NopSink, ScoreOrder, SearchCounters, SigPayload, TraceSink,
};
use ir2_model::{
    DistanceFirstQuery, ExecOutcome, ObjPtr, ObjectSource, ObjectStore, QueryLimits, QueryRegion,
    SpatialObject,
};
use ir2_rtree::{NodeCache, PayloadOps, RTree, RTreeConfig, UnitPayload};
use ir2_sigfile::{MultiLevelScheme, SignatureScheme};
use ir2_storage::{
    BlockDevice, FileDevice, IoScope, IoSnapshot, IoStats, MemDevice, MetricsRegistry, Result,
    ShadowPair, StorageError, TrackedDevice, BLOCK_SIZE, RECORD_HEADER_LEN,
};
use ir2_text::{tokenize, IrScorer, RankingFn, TermId, Vocabulary};

use crate::report::QueryError;
use crate::request::needs_signature_tree;
use crate::{Algorithm, BuildStats, DbConfig, IndexSizes, QueryReport, Ranking, TopkRequest};

/// One block device per structure (so sizes and I/O are attributable), plus
/// a catalog device holding the cross-structure metadata.
#[derive(Clone)]
pub struct DeviceSet<D> {
    /// Device of the object file.
    pub objects: D,
    /// Device of the plain R-Tree.
    pub rtree: D,
    /// Device of the IR²-Tree.
    pub ir2: D,
    /// Device of the MIR²-Tree.
    pub mir2: D,
    /// Device of the inverted index.
    pub inverted: D,
    /// Device of the catalog (config, vocabulary, dictionaries).
    pub catalog: D,
}

impl<D> DeviceSet<D> {
    /// Applies `f` to every device, preserving roles. The first argument
    /// names the role (`"objects"`, `"rtree"`, `"ir2"`, `"mir2"`,
    /// `"inverted"`, `"catalog"`) so wrappers can label themselves — e.g.
    /// wrapping each device in a
    /// [`RetryDevice`](ir2_storage::RetryDevice) with per-device metrics.
    pub fn map<E>(self, mut f: impl FnMut(&'static str, D) -> E) -> DeviceSet<E> {
        DeviceSet {
            objects: f("objects", self.objects),
            rtree: f("rtree", self.rtree),
            ir2: f("ir2", self.ir2),
            mir2: f("mir2", self.mir2),
            inverted: f("inverted", self.inverted),
            catalog: f("catalog", self.catalog),
        }
    }

    /// The on-disk file name for each device role, in the same order
    /// [`map`](Self::map) visits them. Replication copies and scrubs these
    /// files directly, so the names are part of the layout contract.
    pub const fn file_names() -> [&'static str; 6] {
        [
            "objects.blocks",
            "rtree.blocks",
            "ir2.blocks",
            "mir2.blocks",
            "inverted.blocks",
            "catalog.blocks",
        ]
    }

    /// The six devices as role-named references, in
    /// [`file_names`](Self::file_names) order — for code that iterates a
    /// set (replica verification, scrubbing) rather than addressing roles
    /// by field.
    pub fn as_refs(&self) -> [(&'static str, &D); 6] {
        [
            ("objects", &self.objects),
            ("rtree", &self.rtree),
            ("ir2", &self.ir2),
            ("mir2", &self.mir2),
            ("inverted", &self.inverted),
            ("catalog", &self.catalog),
        ]
    }
}

impl DeviceSet<MemDevice> {
    /// A volatile set for experiments and tests.
    pub fn in_memory() -> Self {
        Self {
            objects: MemDevice::new(),
            rtree: MemDevice::new(),
            ir2: MemDevice::new(),
            mir2: MemDevice::new(),
            inverted: MemDevice::new(),
            catalog: MemDevice::new(),
        }
    }
}

impl DeviceSet<FileDevice> {
    /// Creates (truncating) the device files in `dir`.
    pub fn create_in_dir<P: AsRef<Path>>(dir: P) -> Result<Self> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        let mut f = DeviceSet::<FileDevice>::file_names()
            .into_iter()
            .map(|n| FileDevice::create(dir.join(n)));
        Ok(Self {
            objects: f.next().expect("six files")?,
            rtree: f.next().expect("six files")?,
            ir2: f.next().expect("six files")?,
            mir2: f.next().expect("six files")?,
            inverted: f.next().expect("six files")?,
            catalog: f.next().expect("six files")?,
        })
    }

    /// Opens previously created device files in `dir`.
    pub fn open_dir<P: AsRef<Path>>(dir: P) -> Result<Self> {
        let dir = dir.as_ref();
        let mut f = DeviceSet::<FileDevice>::file_names()
            .into_iter()
            .map(|n| FileDevice::open(dir.join(n)));
        Ok(Self {
            objects: f.next().expect("six files")?,
            rtree: f.next().expect("six files")?,
            ir2: f.next().expect("six files")?,
            mir2: f.next().expect("six files")?,
            inverted: f.next().expect("six files")?,
            catalog: f.next().expect("six files")?,
        })
    }
}

struct IoHandles {
    objects: Arc<IoStats>,
    rtree: Arc<IoStats>,
    ir2: Arc<IoStats>,
    mir2: Arc<IoStats>,
    inverted: Arc<IoStats>,
}

/// An [`ObjectSource`] adapter that counts loads locally, so a query
/// running inside the batch engine gets an exact per-query load count
/// (the store's own counter is shared by every concurrent query).
pub(crate) struct CountingSource<'a, const N: usize> {
    inner: &'a dyn ObjectSource<N>,
    count: AtomicU64,
}

impl<'a, const N: usize> CountingSource<'a, N> {
    pub(crate) fn new(inner: &'a dyn ObjectSource<N>) -> Self {
        Self {
            inner,
            count: AtomicU64::new(0),
        }
    }
}

impl<const N: usize> ObjectSource<N> for CountingSource<'_, N> {
    fn load(&self, ptr: ObjPtr) -> Result<SpatialObject<N>> {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.inner.load(ptr)
    }

    fn load_if_contains_all(
        &self,
        ptr: ObjPtr,
        keywords: &[String],
        scratch: &mut Vec<u8>,
    ) -> Result<Option<SpatialObject<N>>> {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.inner.load_if_contains_all(ptr, keywords, scratch)
    }

    fn with_text(&self, ptr: ObjPtr, scratch: &mut Vec<u8>, f: &mut dyn FnMut(&str)) -> Result<()> {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.inner.with_text(ptr, scratch, f)
    }

    fn loads(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }
}

/// Fans `queries` over `threads` scoped workers (work-stealing: each worker
/// claims the next unclaimed index) and returns per-query outputs in input
/// order. The first query error aborts the claiming of further work and is
/// returned after in-flight queries finish.
pub(crate) fn fan_out<Q: Sync, R: Send + Sync>(
    queries: &[Q],
    threads: usize,
    run: impl Fn(&Q) -> Result<R> + Sync,
) -> Result<Vec<R>> {
    let threads = threads.clamp(1, queries.len().max(1));
    let next = AtomicUsize::new(0);
    let slots: Vec<std::sync::OnceLock<R>> = (0..queries.len())
        .map(|_| std::sync::OnceLock::new())
        .collect();
    let first_error: std::sync::Mutex<Option<StorageError>> = std::sync::Mutex::new(None);

    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= queries.len() {
                    break;
                }
                match run(&queries[i]) {
                    Ok(r) => {
                        let inserted = slots[i].set(r).is_ok();
                        debug_assert!(inserted, "each query index runs once");
                    }
                    Err(e) => {
                        // The guarded Option stays consistent even if a
                        // sibling panicked while holding the lock, so a
                        // poisoned mutex is recovered rather than turned
                        // into a second (aborting) panic.
                        first_error
                            .lock()
                            .unwrap_or_else(std::sync::PoisonError::into_inner)
                            .get_or_insert(e);
                        // Park the claim counter so other workers stop too.
                        next.store(queries.len(), Ordering::Relaxed);
                        break;
                    }
                }
            });
        }
    });

    if let Some(e) = first_error
        .into_inner()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
    {
        return Err(e);
    }
    slots
        .into_iter()
        .map(|s| {
            // Every slot is filled when no worker errored or panicked (the
            // scope re-raises worker panics); an empty one is surfaced as
            // a typed error all the same.
            s.into_inner().ok_or_else(|| {
                StorageError::Corrupt("batch worker terminated without a result".into())
            })
        })
        .collect()
}

/// [`fan_out`] with per-query fault isolation: a query that errors — or
/// *panics* — produces its own [`QueryError`] slot and the batch marches
/// on; siblings are never aborted and the shared structures stay usable
/// (the buffer pool's locks come from `parking_lot`, which does not
/// poison, and the thread-local I/O and retry scopes clear themselves on
/// unwind).
pub(crate) fn fan_out_isolated<Q: Sync, R: Send + Sync>(
    queries: &[Q],
    threads: usize,
    run: impl Fn(&Q) -> std::result::Result<R, QueryError> + Sync,
) -> Vec<std::result::Result<R, QueryError>> {
    let threads = threads.clamp(1, queries.len().max(1));
    let next = AtomicUsize::new(0);
    let slots: Vec<std::sync::OnceLock<std::result::Result<R, QueryError>>> = (0..queries.len())
        .map(|_| std::sync::OnceLock::new())
        .collect();

    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= queries.len() {
                    break;
                }
                let out =
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run(&queries[i])))
                        .unwrap_or_else(|payload| {
                            let msg = payload
                                .downcast_ref::<&str>()
                                .map(|s| s.to_string())
                                .or_else(|| payload.downcast_ref::<String>().cloned())
                                .unwrap_or_else(|| "non-string panic payload".into());
                            Err(QueryError::Panic(msg))
                        });
                let inserted = slots[i].set(out).is_ok();
                debug_assert!(inserted, "each query index runs once");
            });
        }
    });

    slots
        .into_iter()
        .map(|s| s.into_inner().expect("every query ran"))
        .collect()
}

/// A tree's `(root, height, count)`, as the catalog records it.
type TreeMeta = (Option<u64>, u16, u64);

/// A database's three trees: the plain R-Tree, the IR²-Tree, the MIR²-Tree.
type Trees<D> = (
    RTree<2, TrackedDevice<D>, UnitPayload>,
    RTree<2, TrackedDevice<D>, Ir2Payload>,
    RTree<2, TrackedDevice<D>, MirPayload<2>>,
);

/// What [`SpatialKeywordDb::measure`] observed of one query.
struct Measured {
    index_io: IoSnapshot,
    object_io: IoSnapshot,
    io: IoSnapshot,
    object_loads: u64,
    simulated: Duration,
    wall: Duration,
    retries: u64,
    backoff: Duration,
}

/// A spatial keyword database: the object file plus all four access
/// methods of the paper's evaluation, instrumented for I/O accounting.
///
/// Built once over a collection of objects (bulk-loaded by default),
/// queried by any [`Algorithm`], and maintainable through
/// [`insert`](SpatialKeywordDb::insert) / [`delete`](SpatialKeywordDb::delete)
/// on the tree structures.
pub struct SpatialKeywordDb<D: BlockDevice + 'static> {
    config: DbConfig,
    tree_cfg: RTreeConfig,
    vocab: Vocabulary,
    avg_words: f64,
    objects: Arc<ObjectStore<2, TrackedDevice<D>>>,
    rtree: RTree<2, TrackedDevice<D>, UnitPayload>,
    ir2: RTree<2, TrackedDevice<D>, Ir2Payload>,
    mir2: RTree<2, TrackedDevice<D>, MirPayload<2>>,
    inverted: InvertedIndex<TrackedDevice<D>>,
    catalog: ShadowPair<D>,
    io: IoHandles,
    metrics: Arc<MetricsRegistry>,
    build_stats: BuildStats,
}

/// Outcome of checking one structure in
/// [`check_integrity`](SpatialKeywordDb::check_integrity).
#[derive(Debug, Clone)]
pub struct StructureCheck {
    /// Structure name (`objects`, `rtree`, `ir2`, `mir2`).
    pub name: &'static str,
    /// Human-readable summary (entry count, or the corruption found).
    pub detail: String,
    /// Whether the structure passed.
    pub ok: bool,
}

/// Full-database integrity report from
/// [`check_integrity`](SpatialKeywordDb::check_integrity).
#[derive(Debug, Clone)]
pub struct IntegrityReport {
    /// Epoch of the catalog version the database opened with.
    pub catalog_epoch: u64,
    /// Per-structure results.
    pub structures: Vec<StructureCheck>,
}

impl IntegrityReport {
    /// Whether every structure passed.
    pub fn ok(&self) -> bool {
        self.structures.iter().all(|s| s.ok)
    }
}

impl<D: BlockDevice + 'static> SpatialKeywordDb<D> {
    /// Builds the database: appends every object to the object file,
    /// derives the vocabulary, and constructs all four index structures.
    pub fn build(
        devices: DeviceSet<D>,
        objects: impl IntoIterator<Item = SpatialObject<2>>,
        config: DbConfig,
    ) -> Result<Self> {
        let t0 = Instant::now();
        let obj_dev = TrackedDevice::new(devices.objects);
        let io = IoHandles {
            objects: obj_dev.stats(),
            rtree: Arc::new(IoStats::new()),
            ir2: Arc::new(IoStats::new()),
            mir2: Arc::new(IoStats::new()),
            inverted: Arc::new(IoStats::new()),
        };
        let store = Arc::new(ObjectStore::<2, _>::create(obj_dev));

        // Pass 1: append objects, build the vocabulary, keep per-object
        // metadata (pointer, point, distinct term ids) for index builds.
        let mut vocab = Vocabulary::new();
        let mut meta: Vec<(ObjPtr, ir2_geo::Point<2>, Vec<TermId>)> = Vec::new();
        let mut distinct_total = 0u64;
        let mut blocks_total = 0u64;
        for obj in objects {
            let encoded_len = 8 + 32 + obj.text.len() as u64; // id + point + text
            let ptr = store.append(&obj)?;
            let end = ptr.0 + RECORD_HEADER_LEN as u64 + encoded_len;
            blocks_total += end.div_ceil(BLOCK_SIZE as u64) - ptr.0 / BLOCK_SIZE as u64;
            let mut terms: Vec<String> = tokenize(&obj.text).collect();
            terms.sort_unstable();
            terms.dedup();
            let ids = vocab.add_document(terms.iter().map(String::as_str));
            distinct_total += ids.len() as u64;
            meta.push((ptr, obj.point, ids));
        }
        store.flush()?;
        let n = meta.len() as u64;
        if n == 0 {
            return Err(StorageError::Corrupt(
                "cannot build an empty database".into(),
            ));
        }
        let avg_words = config
            .avg_words_hint
            .unwrap_or(distinct_total as f64 / n as f64);

        // Index structures.
        let (tree_cfg, (rtree, ir2, mir2)) = Self::trees(
            &config,
            avg_words,
            vocab.len(),
            &store,
            &io,
            [devices.rtree, devices.ir2, devices.mir2],
            None,
        )?;
        let ir2_scheme = *ir2.ops().leaf_scheme();
        let mir_leaf_scheme = *mir2.ops().leaf_scheme();
        let sign_leaf = |scheme: &SignatureScheme, ids: &[TermId]| -> Vec<u8> {
            let mut out = vec![0u8; scheme.byte_len()];
            scheme.sign_into(&mut out, ids.iter().map(|&t| vocab.name(t)));
            out
        };
        if config.bulk_load {
            rtree.bulk_load(
                meta.iter()
                    .map(|(p, pt, _)| (p.0, Rect::from_point(*pt), Vec::new()))
                    .collect(),
            )?;
            ir2.bulk_load(
                meta.iter()
                    .map(|(p, pt, ids)| (p.0, Rect::from_point(*pt), sign_leaf(&ir2_scheme, ids)))
                    .collect(),
            )?;
            mir2.bulk_load(
                meta.iter()
                    .map(|(p, pt, ids)| {
                        (p.0, Rect::from_point(*pt), sign_leaf(&mir_leaf_scheme, ids))
                    })
                    .collect(),
            )?;
        } else {
            for (p, pt, ids) in &meta {
                let rect = Rect::from_point(*pt);
                rtree.insert(p.0, rect, &[])?;
                ir2.insert(p.0, rect, &sign_leaf(&ir2_scheme, ids))?;
                mir2.insert(p.0, rect, &sign_leaf(&mir_leaf_scheme, ids))?;
            }
        }

        let inverted = InvertedIndex::build(
            TrackedDevice::with_stats(devices.inverted, Arc::clone(&io.inverted)),
            &vocab,
            meta.iter().map(|(p, _, ids)| (*p, ids.clone())),
        )?;

        let catalog = ShadowPair::create(devices.catalog)?;

        let build_stats = BuildStats {
            objects: n,
            avg_unique_words: distinct_total as f64 / n as f64,
            unique_words: vocab.len() as u64,
            object_file_bytes: store.size_bytes(),
            avg_blocks_per_object: blocks_total as f64 / n as f64,
            build_time: t0.elapsed(),
        };

        let db = Self {
            config,
            tree_cfg,
            vocab,
            avg_words,
            objects: store,
            rtree,
            ir2,
            mir2,
            inverted,
            catalog,
            io,
            metrics: Arc::new(MetricsRegistry::new()),
            build_stats,
        };
        db.save_catalog()?;
        Ok(db)
    }

    /// The one recipe for the three trees, shared by
    /// [`build`](SpatialKeywordDb::build) and
    /// [`open`](SpatialKeywordDb::open): the node capacity, the IR² scheme
    /// and the MIR² ladder (strict if the config says so) derived from
    /// `config`, and a node cache per tree. `metas` is `None` to create the
    /// trees on empty devices, or the `(root, height, count)` the catalog
    /// recorded for each tree to open them.
    fn trees(
        config: &DbConfig,
        avg_words: f64,
        vocab_len: usize,
        store: &Arc<ObjectStore<2, TrackedDevice<D>>>,
        io: &IoHandles,
        [rtree, ir2, mir2]: [D; 3],
        metas: Option<[TreeMeta; 3]>,
    ) -> Result<(RTreeConfig, Trees<D>)> {
        let cfg = match config.capacity {
            // What `RTreeConfig::with_max` accepts: two entries a side for a
            // split, and a count the node header's `u16` can hold.
            Some(c) if !(4..=usize::from(u16::MAX)).contains(&c) => {
                return Err(StorageError::Unsupported(format!(
                    "node capacity {c} is outside 4..=65535"
                )))
            }
            Some(c) => RTreeConfig::with_max(c),
            None => RTreeConfig::for_dims::<2>(),
        };
        let ir2_payload = Ir2Payload::new(SignatureScheme::from_bytes_len(
            config.sig_bytes,
            config.sig_k,
            config.seed,
        ));
        let mir_schemes = MultiLevelScheme::new(
            config.sig_bytes,
            config.sig_k,
            config.seed,
            cfg.max_entries,
            avg_words,
            vocab_len,
        );
        let mut mir_payload =
            MirPayload::new(mir_schemes, Arc::clone(store) as Arc<dyn ObjectSource<2>>);
        if config.mir_strict {
            mir_payload = mir_payload.strict();
        }
        fn tree<D: BlockDevice, P: PayloadOps>(
            dev: TrackedDevice<D>,
            cfg: RTreeConfig,
            ops: P,
            meta: Option<TreeMeta>,
            node_cache: usize,
        ) -> Result<RTree<2, TrackedDevice<D>, P>> {
            let mut tree = match meta {
                None => RTree::create(dev, cfg, ops)?,
                Some((root, height, count)) => {
                    RTree::open_with_meta(dev, cfg, ops, root, height, count)?
                }
            };
            // One cache per tree: block ids are device-local, so sharing a
            // cache across trees would alias distinct nodes.
            if node_cache > 0 {
                tree.set_node_cache(Arc::new(NodeCache::new(node_cache)));
            }
            Ok(tree)
        }
        let dev = |d: D, stats: &Arc<IoStats>| TrackedDevice::with_stats(d, Arc::clone(stats));
        let meta = |i: usize| metas.map(|m| m[i]);
        let cache = config.node_cache;
        Ok((
            cfg,
            (
                tree(dev(rtree, &io.rtree), cfg, UnitPayload, meta(0), cache)?,
                tree(dev(ir2, &io.ir2), cfg, ir2_payload, meta(1), cache)?,
                tree(dev(mir2, &io.mir2), cfg, mir_payload, meta(2), cache)?,
            ),
        ))
    }

    /// [`build`](SpatialKeywordDb::build) publishing into the caller's
    /// metrics registry instead of a fresh one — so device-level metrics
    /// (e.g. a [`RetryDevice`](ir2_storage::RetryDevice)'s retry and
    /// quarantine counters) land beside the query metrics in one
    /// exposition.
    pub fn build_with_registry(
        devices: DeviceSet<D>,
        objects: impl IntoIterator<Item = SpatialObject<2>>,
        config: DbConfig,
        registry: Arc<MetricsRegistry>,
    ) -> Result<Self> {
        let mut db = Self::build(devices, objects, config)?;
        db.metrics = registry;
        Ok(db)
    }

    /// Persists the cross-structure metadata to the catalog device. Called
    /// automatically by [`build`](SpatialKeywordDb::build); call again
    /// after maintenance to refresh.
    ///
    /// This is the database's *commit point*, and it is atomic: the object
    /// file and every tree are made durable first, then the catalog — which
    /// records each tree's root/height/count — flips to a new shadow epoch
    /// in one checksummed step. A crash anywhere in between leaves the
    /// previous catalog epoch intact, and every block it references is
    /// still valid because tree extents freed since then are only recycled
    /// *after* the flip succeeds.
    pub fn save_catalog(&self) -> Result<()> {
        // Make everything the new catalog will point at durable.
        self.objects.flush()?;
        self.objects.device().sync()?;
        self.rtree.checkpoint()?;
        self.ir2.checkpoint()?;
        self.mir2.checkpoint()?;

        // Catalog payload: four length-prefixed chunks in order (config,
        // vocabulary, inverted dictionary, store state + stats + tree
        // metadata). Framing and integrity live in the shadow layer.
        let (len, records) = self.objects.state();
        let s = &self.build_stats;
        let mut tail = Vec::with_capacity(144);
        for v in [len, records, s.objects, s.unique_words, s.object_file_bytes] {
            tail.extend_from_slice(&v.to_le_bytes());
        }
        tail.extend_from_slice(&s.avg_unique_words.to_le_bytes());
        tail.extend_from_slice(&s.avg_blocks_per_object.to_le_bytes());
        tail.extend_from_slice(&self.avg_words.to_le_bytes());
        tail.extend_from_slice(&(s.build_time.as_micros() as u64).to_le_bytes());
        for (root, height, count) in [
            self.rtree.meta_state(),
            self.ir2.meta_state(),
            self.mir2.meta_state(),
        ] {
            tail.extend_from_slice(&root.unwrap_or(u64::MAX).to_le_bytes());
            tail.extend_from_slice(&(height as u64).to_le_bytes());
            tail.extend_from_slice(&count.to_le_bytes());
        }

        let chunks = [
            self.config.encode(),
            self.vocab.encode(),
            self.inverted.encode_dictionary(),
            tail,
        ];
        let mut payload = Vec::new();
        for c in &chunks {
            payload.extend_from_slice(&(c.len() as u32).to_le_bytes());
            payload.extend_from_slice(c);
        }
        self.catalog.save(&payload)?;

        // The flip is durable: extents freed before it are now safe to
        // recycle.
        self.rtree.commit_frees();
        self.ir2.commit_frees();
        self.mir2.commit_frees();
        Ok(())
    }

    /// Splits a catalog payload back into its chunks (config, vocab,
    /// dictionary, stats).
    fn parse_catalog(payload: &[u8]) -> Result<Vec<Vec<u8>>> {
        let corrupt = |m: &str| StorageError::Corrupt(format!("catalog: {m}"));
        let mut chunks = Vec::with_capacity(4);
        let mut pos = 0;
        while pos < payload.len() {
            let len = u32::from_le_bytes(
                payload
                    .get(pos..pos + 4)
                    .ok_or_else(|| corrupt("chunk header"))?
                    .try_into()
                    .expect("4 bytes"),
            ) as usize;
            let chunk = payload
                .get(pos + 4..pos + 4 + len)
                .ok_or_else(|| corrupt("chunk body"))?;
            chunks.push(chunk.to_vec());
            pos += 4 + len;
        }
        Ok(chunks)
    }

    /// Reopens a database persisted by [`build`](SpatialKeywordDb::build) /
    /// [`save_catalog`](SpatialKeywordDb::save_catalog).
    pub fn open(devices: DeviceSet<D>) -> Result<Self> {
        // The shadow pair yields the newest intact catalog version; its
        // chunks come back in layout order.
        let (catalog, payload) = ShadowPair::open(devices.catalog)?;
        let records = Self::parse_catalog(&payload)?;
        if records.len() != 4 {
            return Err(StorageError::Corrupt(format!(
                "catalog has {} records, expected 4",
                records.len()
            )));
        }
        let config = DbConfig::decode(&records[0])?;
        let vocab = Vocabulary::decode(&records[1])
            .map_err(|e| StorageError::Corrupt(format!("catalog vocabulary: {e}")))?;
        let tail = &records[3];
        if tail.len() < 144 {
            return Err(StorageError::Corrupt(
                "catalog stats record too short".into(),
            ));
        }
        let u = |i: usize| u64::from_le_bytes(tail[i * 8..i * 8 + 8].try_into().expect("8 bytes"));
        let f = |i: usize| f64::from_le_bytes(tail[i * 8..i * 8 + 8].try_into().expect("8 bytes"));
        let (store_len, store_records) = (u(0), u(1));
        // Tree metadata: the catalog, not the superblocks, is authoritative.
        let tree_meta = |base: usize| -> TreeMeta {
            let root = u(base);
            (
                (root != u64::MAX).then_some(root),
                u(base + 1) as u16,
                u(base + 2),
            )
        };
        let build_stats = BuildStats {
            objects: u(2),
            unique_words: u(3),
            object_file_bytes: u(4),
            avg_unique_words: f(5),
            avg_blocks_per_object: f(6),
            build_time: Duration::from_micros(u(8)),
        };
        let avg_words = f(7);

        let io = IoHandles {
            objects: Arc::new(IoStats::new()),
            rtree: Arc::new(IoStats::new()),
            ir2: Arc::new(IoStats::new()),
            mir2: Arc::new(IoStats::new()),
            inverted: Arc::new(IoStats::new()),
        };
        let store = Arc::new(ObjectStore::<2, _>::open(
            TrackedDevice::with_stats(devices.objects, Arc::clone(&io.objects)),
            store_len,
            store_records,
        )?);

        let (tree_cfg, (rtree, ir2, mir2)) = Self::trees(
            &config,
            avg_words,
            vocab.len(),
            &store,
            &io,
            [devices.rtree, devices.ir2, devices.mir2],
            Some([tree_meta(9), tree_meta(12), tree_meta(15)]),
        )?;
        let inverted = InvertedIndex::open(
            TrackedDevice::with_stats(devices.inverted, Arc::clone(&io.inverted)),
            &vocab,
            &records[2],
        )?;

        Ok(Self {
            config,
            tree_cfg,
            vocab,
            avg_words,
            objects: store,
            rtree,
            ir2,
            mir2,
            inverted,
            catalog,
            io,
            metrics: Arc::new(MetricsRegistry::new()),
            build_stats,
        })
    }

    /// [`open`](SpatialKeywordDb::open) publishing into the caller's
    /// metrics registry; see
    /// [`build_with_registry`](SpatialKeywordDb::build_with_registry).
    pub fn open_with_registry(
        devices: DeviceSet<D>,
        registry: Arc<MetricsRegistry>,
    ) -> Result<Self> {
        let mut db = Self::open(devices)?;
        db.metrics = registry;
        Ok(db)
    }

    // ------------------------------------------------------------------
    // Queries.
    // ------------------------------------------------------------------

    pub(crate) fn stats_of(&self, alg: Algorithm) -> &Arc<IoStats> {
        match alg {
            Algorithm::RTree => &self.io.rtree,
            Algorithm::Iio => &self.io.inverted,
            Algorithm::Ir2 => &self.io.ir2,
            Algorithm::Mir2 => &self.io.mir2,
        }
    }

    /// The object file's I/O statistics handle (for scoped attribution of
    /// cross-shard merges running outside this facade).
    pub(crate) fn objects_io_stats(&self) -> &Arc<IoStats> {
        &self.io.objects
    }

    /// Folds one finished query's report into the metrics registry. Called
    /// once per query, outside any concurrent phase.
    fn publish_query_metrics(&self, alg: Algorithm, r: &QueryReport) {
        let key = alg.key();
        let m = &self.metrics;
        m.add_counter(&format!("queries_total{{alg=\"{key}\"}}"), 1);
        m.observe_io(&format!("{{alg=\"{key}\"}}"), r.io);
        m.histogram(&format!("query_io_blocks{{alg=\"{key}\"}}"))
            .observe(r.io.total());
        m.histogram(&format!("query_object_loads{{alg=\"{key}\"}}"))
            .observe(r.object_loads);
        m.histogram(&format!("query_nodes_read{{alg=\"{key}\"}}"))
            .observe(r.counters.nodes_read);
        m.add_counter(
            &format!("signature_tests_total{{alg=\"{key}\"}}"),
            r.counters.sig_tests(),
        );
        m.add_counter(
            &format!("signature_prunes_total{{alg=\"{key}\"}}"),
            r.counters.pruned_by_signature(),
        );
        m.add_counter(
            &format!("object_false_positives_total{{alg=\"{key}\"}}"),
            r.counters.false_positives,
        );
        if r.counters.cache_hits > 0 {
            m.add_counter(
                &format!("node_cache_hits_total{{alg=\"{key}\"}}"),
                r.counters.cache_hits,
            );
        }
        if let Some(reason) = r.outcome {
            m.add_counter(
                &format!(
                    "queries_truncated_total{{alg=\"{key}\",reason=\"{}\"}}",
                    reason.key()
                ),
                1,
            );
        }
        if r.retries > 0 {
            m.add_counter(&format!("query_retries_total{{alg=\"{key}\"}}"), r.retries);
            m.histogram(&format!("query_backoff_us{{alg=\"{key}\"}}"))
                .observe(r.backoff.as_micros() as u64);
        }
    }

    /// Answers one top-k request, reporting results plus the I/O metrics
    /// the paper plots. Every field of `req` is honoured
    /// (`Parallel` gathers like `Sequential`: there is one frontier); the
    /// combinations [`TopkRequest`] lists are refused before anything is
    /// read.
    ///
    /// The report's I/O is this thread's accesses inside an [`IoScope`],
    /// classified against a disk arm of the query's own, so `run` reports
    /// what the same request reports inside
    /// [`run_batch`](SpatialKeywordDb::run_batch), whatever else queries
    /// the database meanwhile. Scopes do not nest: `run` must not be called
    /// inside another scope. The query is published to the
    /// [`metrics`](SpatialKeywordDb::metrics) registry.
    pub fn run(&self, req: &TopkRequest) -> Result<QueryReport> {
        let report = self.run_topk(req, NopSink)?;
        self.publish_query_metrics(req.alg, &report);
        Ok(report)
    }

    /// [`run`](SpatialKeywordDb::run) with every execution step streamed
    /// to `sink` — the engine behind `ir2 trace`. The report is the one
    /// `run` returns; the query is *not* published to the metrics
    /// registry.
    pub fn run_traced<S: TraceSink>(&self, req: &TopkRequest, sink: S) -> Result<QueryReport> {
        self.run_topk(req, sink)
    }

    /// Answers `reqs` concurrently on `threads` worker threads (the index
    /// structures support any number of concurrent readers; the buffer
    /// pool, when present, is sharded so readers of different blocks do
    /// not serialize) and returns one entry per request, in input order.
    ///
    /// Each report's I/O is *correctly attributed to that request* even
    /// though requests interleave on the shared devices: every request
    /// runs entirely on one worker inside an [`IoScope`], as in
    /// [`run`](SpatialKeywordDb::run). A request's report here is
    /// therefore the same whatever `threads` is, and the same as `run`'s
    /// (results byte-identical; I/O identical up to the buffer pool's
    /// interleaving-dependent cache hits, i.e. exactly identical in the
    /// paper's uncached configuration).
    ///
    /// A request that errors or panics yields an `Err(`[`QueryError`]`)`
    /// in its own slot and **nothing else**: siblings run to completion,
    /// the shared buffer pool and index structures remain usable (their
    /// locks do not poison), and later queries are unaffected. A request
    /// that trips a limit is *not* a failure — its report carries the
    /// truncation outcome and the exact top-m prefix it reached. Give
    /// every request the same [`QueryLimits::with_deadline`] value for a
    /// **batch-wide** deadline: the instant is resolved when the limits
    /// are built, so the whole batch races one wall-clock point.
    pub fn run_batch(
        &self,
        reqs: &[TopkRequest],
        threads: usize,
    ) -> Vec<std::result::Result<QueryReport, QueryError>> {
        let outcomes = fan_out_isolated(reqs, threads, |req| {
            self.run_topk(req, NopSink).map_err(Into::into)
        });
        // Metrics are folded in *after* the concurrent phase: workers touch
        // only their own reports, so the shared registry sees no query-path
        // contention.
        for (req, out) in reqs.iter().zip(&outcomes) {
            match out {
                Ok(r) => self.publish_query_metrics(req.alg, r),
                Err(e) => self.metrics.add_counter(
                    &format!(
                        "batch_query_failures_total{{alg=\"{}\",kind=\"{}\"}}",
                        req.alg.key(),
                        e.kind()
                    ),
                    1,
                ),
            }
        }
        outcomes
    }

    /// [`run`](SpatialKeywordDb::run) of the plain request `query` stands
    /// for: unlimited, anchored at its point.
    pub fn distance_first(
        &self,
        alg: Algorithm,
        query: &DistanceFirstQuery<2>,
    ) -> Result<QueryReport> {
        self.run(&TopkRequest::from_query(alg, query))
    }

    /// [`run_traced`](SpatialKeywordDb::run_traced) of the plain request
    /// `query` stands for.
    pub fn distance_first_traced<S: TraceSink>(
        &self,
        alg: Algorithm,
        query: &DistanceFirstQuery<2>,
        sink: S,
    ) -> Result<QueryReport> {
        self.run_traced(&TopkRequest::from_query(alg, query), sink)
    }

    /// Runs `run` and measures it on behalf of a report: I/O and
    /// transient-fault recoveries through one [`IoScope`] (only this
    /// thread's accesses and retries, classified against a per-query arm
    /// position; entered here and nowhere else in the facade, since scopes
    /// do not nest), object loads through a query-local [`CountingSource`]
    /// (the store's own counter is shared by every concurrent query), and
    /// wall time.
    fn measure<R>(
        &self,
        alg: Algorithm,
        run: impl FnOnce(&CountingSource<'_, 2>) -> Result<R>,
    ) -> Result<(R, Measured)> {
        let src = self.counting_source();
        let scope = IoScope::enter();
        let t0 = Instant::now();
        let out = run(&src);
        let wall = t0.elapsed();
        let seen = scope.finish();
        let index_io = seen.for_stats(self.stats_of(alg));
        let object_io = seen.for_stats(&self.io.objects);
        let io = index_io + object_io;
        let measured = Measured {
            index_io,
            object_io,
            io,
            object_loads: src.loads(),
            simulated: self.config.cost_model.time(io),
            wall,
            retries: seen.retries,
            backoff: seen.backoff,
        };
        Ok((out?, measured))
    }

    /// The one query plan: check the request, measure its search, assemble
    /// the report. IIO is not incremental and answers directly; every
    /// other algorithm is the [`open_search`](Self::open_search) iterator
    /// drained by [`collect_topk`], whose counters are the report's; `sink`
    /// sees its steps. A ranked search's keys are negated scores, turned
    /// back into scores here.
    fn run_topk<S: TraceSink>(&self, req: &TopkRequest, sink: S) -> Result<QueryReport> {
        req.check(false)?;
        let ((exec, counters), m) = self.measure(req.alg, |src| {
            if req.alg == Algorithm::Iio {
                return self
                    .iio_topk(src, req, req.limits)
                    .map(|r| (r, SearchCounters::default()));
            }
            let mut search = self.open_search(src, req, req.limits, sink)?;
            collect_topk(&mut *search, req.k)
        })?;
        let outcome = exec.truncation();
        let mut results = exec.into_results();
        if let Ranking::Scored { .. } = req.ranking {
            for (_, key) in &mut results {
                *key = -*key;
            }
        }
        Ok(QueryReport {
            outcome,
            results,
            index_io: m.index_io,
            object_io: m.object_io,
            io: m.io,
            object_loads: m.object_loads,
            counters,
            simulated: m.simulated,
            wall: m.wall,
            retries: m.retries,
            backoff: m.backoff,
        })
    }

    /// A load counter over this database's object file, for one query (or
    /// one shard's share of one).
    pub(crate) fn counting_source(&self) -> CountingSource<'_, 2> {
        CountingSource::new(self.objects.as_ref() as &dyn ObjectSource<2>)
    }

    /// The one place an incremental search is opened: `req.alg`'s iterator
    /// over `req.region` and `req.keywords` in `req.ranking`'s order,
    /// loading objects through `src`, under `limits` (a shard's slice of
    /// `req.limits`, or all of them), reporting to `sink`. The monolithic
    /// plan and every shard cursor of the scatter-gather merge are this
    /// call.
    pub(crate) fn open_search<'a, S: TraceSink + 'a>(
        &'a self,
        src: &'a CountingSource<'a, 2>,
        req: &'a TopkRequest,
        limits: QueryLimits,
        sink: S,
    ) -> Result<Box<dyn BoundedSearch<2> + 'a>> {
        let (region, keywords) = (req.region, req.keywords.clone());
        let scored = |scorer: &'a Arc<dyn IrScorer>, rank: &'a Arc<dyn RankingFn>| {
            ScoreOrder::new(region, keywords.as_slice(), &self.vocab, &**scorer, &**rank)
        };
        Ok(match (req.alg, &req.ranking, region) {
            (Algorithm::Ir2, Ranking::Distance, _) => Box::new(
                DistanceFirstIter::with_region_sink(&self.ir2, src, region, keywords, sink)
                    .limited(limits),
            ),
            (Algorithm::Mir2, Ranking::Distance, _) => Box::new(
                DistanceFirstIter::with_region_sink(&self.mir2, src, region, keywords, sink)
                    .limited(limits),
            ),
            (Algorithm::RTree, Ranking::Distance, QueryRegion::Point(_)) => Box::new(
                DistanceFirstIter::with_region_sink(&self.rtree, src, region, keywords, sink)
                    .limited(limits),
            ),
            (Algorithm::Ir2, Ranking::Scored { scorer, rank }, _) => Box::new(
                DistanceFirstIter::with_order_sink(&self.ir2, src, scored(scorer, rank), sink)
                    .limited(limits),
            ),
            (Algorithm::Mir2, Ranking::Scored { scorer, rank }, _) => Box::new(
                DistanceFirstIter::with_order_sink(&self.mir2, src, scored(scorer, rank), sink)
                    .limited(limits),
            ),
            (Algorithm::Iio, ..) => {
                unreachable!("IIO is not incremental: both engines answer it with iio_topk")
            }
            (other, ..) => return Err(needs_signature_tree("region and ranked queries", other)),
        })
    }

    /// IIO's answer to `req` under `limits`: all of it or, truncated,
    /// nothing. [`TopkRequest::check`] has refused area regions.
    pub(crate) fn iio_topk(
        &self,
        src: &CountingSource<'_, 2>,
        req: &TopkRequest,
        limits: QueryLimits,
    ) -> Result<ExecOutcome<Vec<(SpatialObject<2>, f64)>>> {
        let QueryRegion::Point(point) = req.region else {
            return Err(needs_signature_tree("region queries", req.alg));
        };
        let query = DistanceFirstQuery {
            point,
            keywords: req.keywords.clone(),
            k: req.k,
        };
        iio_topk_limited(&self.inverted, &self.vocab, src, &query, limits)
    }

    /// Boolean keyword query within a window (Section 2's `Ans(Q_w)`
    /// restricted to a map area) on the IR²- or MIR²-Tree: every object in
    /// `window` containing all `keywords`, unranked. A window is the area
    /// search stepped to distance 0: the iterator [`run`](Self::run) drains
    /// for a request on `QueryRegion::Area(window)`, stepped with
    /// `next_within(0.0)`, so it reads through the node cache like every
    /// other query. The request rules [`run`](Self::run) applies refuse a
    /// window with a NaN or infinite coordinate, and one on an algorithm
    /// without signatures.
    pub fn keyword_window(
        &self,
        alg: Algorithm,
        window: &Rect<2>,
        keywords: &[String],
    ) -> Result<Vec<SpatialObject<2>>> {
        let req = TopkRequest::new(alg, *window, keywords, usize::MAX);
        req.check(false)?;
        let src = self.counting_source();
        let mut search = self.open_search(&src, &req, req.limits, NopSink)?;
        let mut hits = Vec::new();
        while let BoundedStep::Hit(obj, _) = search.next_within(0.0)? {
            hits.push(obj);
        }
        Ok(hits)
    }

    // ------------------------------------------------------------------
    // Maintenance.
    // ------------------------------------------------------------------

    /// Inserts a new object into the object file and all three tree
    /// structures.
    ///
    /// The inverted index and the vocabulary's document frequencies are
    /// *not* updated (the paper treats IIO as a static baseline); rebuild
    /// to refresh them. New terms still work in tree queries — signatures
    /// hash raw words, not vocabulary ids.
    pub fn insert(&mut self, obj: &SpatialObject<2>) -> Result<ObjPtr> {
        let ptr = self.objects.append(obj)?;
        self.objects.flush()?;
        self.rtree.insert(ptr.0, Rect::from_point(obj.point), &[])?;
        insert_object(&self.ir2, ptr, obj)?;
        insert_object(&self.mir2, ptr, obj)?;
        self.build_stats.objects += 1;
        Ok(ptr)
    }

    /// Deletes an object (by pointer) from all three tree structures. The
    /// object record remains in the append-only object file; the inverted
    /// index is not updated (see [`insert`](SpatialKeywordDb::insert)).
    pub fn delete(&mut self, ptr: ObjPtr) -> Result<bool> {
        let obj = self.objects.load(ptr)?;
        let rect = Rect::from_point(obj.point);
        let a = self.rtree.delete(ptr.0, &rect)?;
        let b = ir2_irtree::delete_object(&self.ir2, ptr, &obj)?;
        let c = ir2_irtree::delete_object(&self.mir2, ptr, &obj)?;
        debug_assert_eq!(a, b);
        debug_assert_eq!(b, c);
        if a {
            self.build_stats.objects -= 1;
        }
        Ok(a)
    }

    // ------------------------------------------------------------------
    // Introspection.
    // ------------------------------------------------------------------

    /// Epoch of the catalog version currently durable (increments on every
    /// [`save_catalog`](SpatialKeywordDb::save_catalog)).
    pub fn catalog_epoch(&self) -> u64 {
        self.catalog.epoch()
    }

    /// Walks every structure end to end, validating integrity — the engine
    /// behind `ir2 check`:
    ///
    /// * **objects**: every record is re-read, which verifies its per-record
    ///   CRC, and the record count is cross-checked against the catalog;
    /// * **rtree / ir2 / mir2**: every node page is re-read (verifying its
    ///   block checksums), leaf depth is uniform, parent MBRs equal child
    ///   MBRs, entry counts match the catalog, and — on the signature
    ///   trees — every parent signature contains all of its child's bits.
    ///
    /// Minimum-fill factors are *not* enforced (bulk-loaded trees
    /// legitimately leave underfull tail nodes). A flipped byte anywhere in
    /// a node page, catalog extent, or object record surfaces here as a
    /// failed [`StructureCheck`], never a panic.
    pub fn check_integrity(&self) -> IntegrityReport {
        let mut structures = Vec::new();

        let (_, expect_records) = self.objects.state();
        let mut seen = 0u64;
        let objects = match self.objects.scan(|_, _| {
            seen += 1;
            Ok(())
        }) {
            Ok(()) if seen == expect_records => StructureCheck {
                name: "objects",
                detail: format!("{seen} records, all CRCs valid"),
                ok: true,
            },
            Ok(()) => StructureCheck {
                name: "objects",
                detail: format!("scanned {seen} records, catalog says {expect_records}"),
                ok: false,
            },
            Err(e) => StructureCheck {
                name: "objects",
                detail: format!("scan failed after {seen} records: {e}"),
                ok: false,
            },
        };
        structures.push(objects);

        let sig_contains = |_l: u16, parent: &[u8], summary: &[u8]| {
            parent.iter().zip(summary).all(|(p, s)| p & s == *s)
        };
        let tree_check = |name: &'static str, r: Result<u64>| match r {
            Ok(n) => StructureCheck {
                name,
                detail: format!("{n} entries, checksums and invariants valid"),
                ok: true,
            },
            Err(e) => StructureCheck {
                name,
                detail: e.to_string(),
                ok: false,
            },
        };
        structures.push(tree_check(
            "rtree",
            self.rtree.check_invariants_with(false, |_, _, _| true),
        ));
        structures.push(tree_check(
            "ir2",
            self.ir2.check_invariants_with(false, sig_contains),
        ));
        structures.push(tree_check(
            "mir2",
            self.mir2.check_invariants_with(false, sig_contains),
        ));

        IntegrityReport {
            catalog_epoch: self.catalog.epoch(),
            structures,
        }
    }

    /// Table 2: per-structure sizes in bytes.
    pub fn index_sizes(&self) -> IndexSizes {
        IndexSizes {
            iio: self.inverted.size_bytes(),
            rtree: self.rtree.size_bytes(),
            ir2: self.ir2.size_bytes(),
            mir2: self.mir2.size_bytes(),
            objects: self.objects.size_bytes(),
        }
    }

    /// Table 1: dataset statistics recorded at build time.
    pub fn build_stats(&self) -> &BuildStats {
        &self.build_stats
    }

    /// The configuration the database was built with.
    pub fn config(&self) -> &DbConfig {
        &self.config
    }

    /// The R-Tree shape shared by all three trees.
    pub fn tree_config(&self) -> &RTreeConfig {
        &self.tree_cfg
    }

    /// The corpus vocabulary.
    pub fn vocab(&self) -> &Vocabulary {
        &self.vocab
    }

    /// The object store.
    pub fn object_store(&self) -> &ObjectStore<2, TrackedDevice<D>> {
        &self.objects
    }

    /// The plain R-Tree (baseline 1).
    pub fn rtree(&self) -> &RTree<2, TrackedDevice<D>, UnitPayload> {
        &self.rtree
    }

    /// The IR²-Tree.
    pub fn ir2_tree(&self) -> &RTree<2, TrackedDevice<D>, Ir2Payload> {
        &self.ir2
    }

    /// The MIR²-Tree.
    pub fn mir2_tree(&self) -> &RTree<2, TrackedDevice<D>, MirPayload<2>> {
        &self.mir2
    }

    /// The inverted index (baseline 2).
    pub fn inverted_index(&self) -> &InvertedIndex<TrackedDevice<D>> {
        &self.inverted
    }

    /// The live metrics registry: cumulative query counters and per-query
    /// histograms, fed by every [`run`](SpatialKeywordDb::run) and
    /// [`run_batch`](SpatialKeywordDb::run_batch) request.
    /// Snapshot/delta and Prometheus export live on the registry.
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.metrics
    }

    /// Prometheus text exposition of the registry, with point-in-time
    /// gauges (per-device I/O totals, dataset size) refreshed first.
    /// Every emitted value is finite — non-finite gauges clamp to zero.
    pub fn metrics_prometheus(&self) -> String {
        let (objects, rtree, ir2, mir2, inverted) = self.io_totals();
        for (dev, io) in [
            ("objects", objects),
            ("rtree", rtree),
            ("ir2", ir2),
            ("mir2", mir2),
            ("inverted", inverted),
        ] {
            self.metrics.set_gauge(
                &format!("device_read_blocks{{device=\"{dev}\"}}"),
                (io.random_reads + io.seq_reads) as f64,
            );
            self.metrics.set_gauge(
                &format!("device_write_blocks{{device=\"{dev}\"}}"),
                (io.random_writes + io.seq_writes) as f64,
            );
        }
        self.metrics
            .set_gauge("db_objects", self.build_stats.objects as f64);
        self.metrics
            .set_gauge("db_vocabulary_terms", self.build_stats.unique_words as f64);
        for (tree, hits, misses, invalidated) in self.node_cache_stats() {
            for (name, value) in [
                ("hits", hits),
                ("misses", misses),
                ("invalidated", invalidated),
            ] {
                self.metrics.set_gauge(
                    &format!("node_cache_{name}{{tree=\"{tree}\"}}"),
                    value as f64,
                );
            }
        }
        self.metrics.export_prometheus()
    }

    /// Re-sizes (or with `nodes == 0`, disables) the decoded-node caches at
    /// runtime — the hook behind the CLI's `--node-cache` override. Fresh
    /// caches start cold; the persisted configuration is not rewritten
    /// until the next [`save_catalog`](SpatialKeywordDb::save_catalog).
    pub fn configure_node_cache(&mut self, nodes: usize) {
        self.config.node_cache = nodes;
        if nodes > 0 {
            self.rtree.set_node_cache(Arc::new(NodeCache::new(nodes)));
            self.ir2.set_node_cache(Arc::new(NodeCache::new(nodes)));
            self.mir2.set_node_cache(Arc::new(NodeCache::new(nodes)));
        } else {
            self.rtree.clear_node_cache();
            self.ir2.clear_node_cache();
            self.mir2.clear_node_cache();
        }
    }

    /// Cumulative decoded-node cache `(tree, hits, misses, invalidated)`
    /// per tree, in `("rtree", "ir2", "mir2")` order. The cache counts a
    /// miss as it happens, and as `invalidated` the images commits dropped
    /// — per commit, as many of the nodes it wrote or freed as were cached.
    /// Hits are tallied by each search and added to the cache once, when
    /// the search's node reader is dropped: once per query, never once per
    /// visit, so a search still open has not yet reported its hits. Empty
    /// when the cache is disabled (`DbConfig::node_cache == 0`).
    pub fn node_cache_stats(&self) -> Vec<(&'static str, u64, u64, u64)> {
        [
            ("rtree", self.rtree.node_cache()),
            ("ir2", self.ir2.node_cache()),
            ("mir2", self.mir2.node_cache()),
        ]
        .into_iter()
        .filter_map(|(tree, cache)| {
            let cache = cache?;
            let (hits, misses) = cache.hit_stats();
            Some((tree, hits, misses, cache.invalidated()))
        })
        .collect()
    }

    /// Total I/O since the counters were last reset, per structure:
    /// `(objects, rtree, ir2, mir2, inverted)`.
    pub fn io_totals(&self) -> (IoSnapshot, IoSnapshot, IoSnapshot, IoSnapshot, IoSnapshot) {
        (
            self.io.objects.snapshot(),
            self.io.rtree.snapshot(),
            self.io.ir2.snapshot(),
            self.io.mir2.snapshot(),
            self.io.inverted.snapshot(),
        )
    }

    /// Resets every I/O counter (e.g. after the build phase).
    pub fn reset_io(&self) {
        for s in [
            &self.io.objects,
            &self.io.rtree,
            &self.io.ir2,
            &self.io.mir2,
            &self.io.inverted,
        ] {
            s.reset();
        }
        self.objects.reset_loads();
    }
}

// ----------------------------------------------------------------------
// Concurrency contract.
// ----------------------------------------------------------------------

// The batch engine hands `&SpatialKeywordDb` to scoped worker threads, so
// the facade — and therefore every structure inside it — must be `Sync`
// (and `Send`, for callers that move a database into a thread). Assert the
// whole stack at compile time for both device families rather than letting
// the auto traits silently regress: a future `Cell`/`Rc`/raw-pointer field
// anywhere in the stack turns these lines into build errors instead of
// into a runtime data race.
const _: () = {
    const fn shareable<T: Send + Sync + ?Sized>() {}
    shareable::<SpatialKeywordDb<MemDevice>>();
    shareable::<SpatialKeywordDb<FileDevice>>();
    shareable::<RTree<2, TrackedDevice<MemDevice>, UnitPayload>>();
    shareable::<RTree<2, TrackedDevice<MemDevice>, Ir2Payload>>();
    shareable::<RTree<2, TrackedDevice<MemDevice>, MirPayload<2>>>();
    shareable::<ObjectStore<2, TrackedDevice<MemDevice>>>();
    shareable::<InvertedIndex<TrackedDevice<MemDevice>>>();
    shareable::<dyn ObjectSource<2>>();
    shareable::<ir2_storage::BufferPool<MemDevice>>();
};
