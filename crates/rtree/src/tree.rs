//! The disk-resident augmented R-Tree: Insert, Delete, node I/O.

use std::collections::HashMap;
use std::sync::Arc;

use ir2_geo::Rect;
use ir2_storage::{extent, page, BlockDevice, Result, StorageError, PAGE_PAYLOAD};
use parking_lot::Mutex;

use crate::cached::{CachedNode, NodeCache, NodeReader};
use crate::node::{Item, NodeBuf, NodeId};
use crate::{PayloadOps, RTreeConfig, SplitStrategy};

const META_MAGIC: &[u8; 4] = b"IR2T";
const NO_ROOT: u64 = u64::MAX;

/// In-memory tree metadata, persisted in the superblock (block 0).
#[derive(Debug, Clone, Copy)]
struct Meta {
    root: Option<NodeId>,
    /// Number of levels: 0 = empty, 1 = root is a leaf.
    height: u16,
    count: u64,
}

/// Free extents in two stages. Extents freed by a mutation may still be
/// referenced by the last *durable* tree image (the superblock or an
/// external catalog), so they sit in `pending` until that image is replaced
/// — only then is overwriting them safe.
#[derive(Default)]
struct FreeLists {
    /// Safe to overwrite: not referenced by any durable or in-memory state.
    reusable: HashMap<u16, Vec<NodeId>>,
    /// Freed since the last checkpoint; recycled by
    /// [`RTree::commit_frees`].
    pending: HashMap<u16, Vec<NodeId>>,
}

/// Staging area for one mutation: the metadata copy it edits and the
/// extents it frees/allocates. Nothing reaches shared state until the
/// whole operation succeeds, so a failed insert or delete leaves the
/// in-memory tree exactly as it was — and, because every node write is
/// copy-on-write, the on-disk tree too.
struct MutCtx {
    meta: Meta,
    /// `(first_block, extent_blocks)` of extents this op released.
    freed: Vec<(NodeId, u16)>,
    /// Extents this op allocated — returned to the reusable pool if the op
    /// fails (the op's writes only ever touch these, never live nodes).
    allocated: Vec<(NodeId, u16)>,
}

impl MutCtx {
    fn new(meta: Meta) -> Self {
        Self {
            meta,
            freed: Vec::new(),
            allocated: Vec::new(),
        }
    }

    /// Where in `allocated` the extent at `id` is, if this op allocated it.
    /// Such an extent is referenced by no committed tree image: the op may
    /// overwrite it, or hand it back to the allocator, without waiting for
    /// its commit.
    fn own_extent(&self, id: NodeId) -> Option<usize> {
        self.allocated.iter().position(|(a, _)| *a == id)
    }
}

/// A height-balanced, disk-resident R-Tree over `N`-dimensional rectangles,
/// augmented with per-entry payloads described by a [`PayloadOps`].
///
/// * `P = UnitPayload` — Guttman's R-Tree, the paper's first baseline.
/// * `P = ` a signature payload — the IR²-Tree / MIR²-Tree (see the
///   `ir2-irtree` crate).
///
/// The tree owns its block device: block 0 is the superblock, every node
/// occupies a fixed extent of consecutive blocks whose size depends on the
/// node's level (signatures may lengthen toward the root). Leaf entries
/// reference objects by an opaque `u64` (an `ObjPtr` in the full system).
///
/// Concurrency: any number of concurrent readers ([`RTree::nearest`],
/// [`RTree::read_node_buf`]) xor one writer ([`RTree::insert`],
/// [`RTree::delete`]) — the usual index discipline; metadata is internally
/// locked so mixing merely risks non-repeatable reads, not corruption.
///
/// ```
/// use ir2_geo::{Point, Rect};
/// use ir2_rtree::{RTree, RTreeConfig, UnitPayload};
/// use ir2_storage::MemDevice;
///
/// let tree = RTree::<2, _, _>::create(MemDevice::new(), RTreeConfig::with_max(4), UnitPayload)?;
/// for i in 0..20u64 {
///     tree.insert(i, Rect::from_point(Point::new([i as f64, 0.0])), &[])?;
/// }
/// // Incremental nearest neighbor from x = 7.2: object 7 comes first.
/// let first = tree.nearest(Point::new([7.2, 0.0])).next().unwrap()?;
/// assert_eq!(first.child, 7);
/// # Ok::<(), ir2_storage::StorageError>(())
/// ```
pub struct RTree<const N: usize, D, P> {
    dev: D,
    ops: P,
    cfg: RTreeConfig,
    meta: Mutex<Meta>,
    /// Freed node extents by extent size, reused before growing the device.
    free: Mutex<FreeLists>,
    /// Optional decoded-node cache; every commit publishes its image table
    /// without the images of the extents the mutation wrote or freed, so no
    /// image outlives the bytes it was decoded from.
    node_cache: Option<Arc<NodeCache<N>>>,
}

impl<const N: usize, D: BlockDevice, P: PayloadOps> RTree<N, D, P> {
    /// Creates an empty tree on a fresh device (allocates the superblock).
    pub fn create(dev: D, cfg: RTreeConfig, ops: P) -> Result<Self> {
        let first = dev.allocate(1)?;
        debug_assert_eq!(first, 0, "tree must own its device from block 0");
        let tree = Self {
            dev,
            ops,
            cfg,
            meta: Mutex::new(Meta {
                root: None,
                height: 0,
                count: 0,
            }),
            free: Mutex::new(FreeLists::default()),
            node_cache: None,
        };
        tree.write_meta()?;
        Ok(tree)
    }

    /// Reads and checksum-verifies the superblock:
    /// `(root_raw, height, count, max_entries, dims)`.
    fn load_superblock(dev: &D) -> Result<(u64, u16, u64, usize, usize)> {
        let mut block = ir2_storage::zeroed_block();
        dev.read_block(0, &mut block)?;
        page::verify(&block).map_err(|e| StorageError::Corrupt(format!("tree superblock: {e}")))?;
        if &block[..4] != META_MAGIC {
            return Err(StorageError::Corrupt("bad tree superblock magic".into()));
        }
        let root = u64::from_le_bytes(block[4..12].try_into().expect("8 bytes"));
        let height = u16::from_le_bytes(block[12..14].try_into().expect("2 bytes"));
        let count = u64::from_le_bytes(block[14..22].try_into().expect("8 bytes"));
        let max = u32::from_le_bytes(block[22..26].try_into().expect("4 bytes")) as usize;
        let dims = u16::from_le_bytes(block[26..28].try_into().expect("2 bytes")) as usize;
        Ok((root, height, count, max, dims))
    }

    fn check_shape(cfg: &RTreeConfig, max: usize, dims: usize) -> Result<()> {
        if max != cfg.max_entries || dims != N {
            return Err(StorageError::Corrupt(format!(
                "superblock mismatch: stored M={max}, dims={dims}; expected M={}, dims={N}",
                cfg.max_entries
            )));
        }
        Ok(())
    }

    /// Opens a tree persisted on `dev` (the caller supplies the same `cfg`
    /// and `ops` the tree was created with; `cfg` is validated against the
    /// superblock).
    pub fn open(dev: D, cfg: RTreeConfig, ops: P) -> Result<Self> {
        let (root, height, count, max, dims) = Self::load_superblock(&dev)?;
        Self::check_shape(&cfg, max, dims)?;
        Ok(Self {
            dev,
            ops,
            cfg,
            meta: Mutex::new(Meta {
                root: (root != NO_ROOT).then_some(root),
                height,
                count,
            }),
            free: Mutex::new(FreeLists::default()),
            node_cache: None,
        })
    }

    /// Opens a tree whose metadata is supplied by an external catalog (the
    /// database's atomic catalog is the source of truth for `root`,
    /// `height` and `count`; the superblock only cross-checks the shape).
    ///
    /// A torn superblock — e.g. a crash during
    /// [`checkpoint`](RTree::checkpoint) after the catalog's last flip — is
    /// repaired in place from the caller's metadata instead of failing the
    /// open.
    pub fn open_with_meta(
        dev: D,
        cfg: RTreeConfig,
        ops: P,
        root: Option<NodeId>,
        height: u16,
        count: u64,
    ) -> Result<Self> {
        let repair = match Self::load_superblock(&dev) {
            Ok((_, _, _, max, dims)) => {
                Self::check_shape(&cfg, max, dims)?;
                false
            }
            Err(StorageError::Corrupt(_)) => true,
            Err(e) => return Err(e),
        };
        let tree = Self {
            dev,
            ops,
            cfg,
            meta: Mutex::new(Meta {
                root,
                height,
                count,
            }),
            free: Mutex::new(FreeLists::default()),
            node_cache: None,
        };
        if repair {
            tree.write_meta()?;
        }
        Ok(tree)
    }

    /// Persists the superblock and recycles extents freed by committed
    /// mutations — the standalone commit point for trees used without an
    /// external catalog. (Free-list extents are not persisted; a reopened
    /// tree simply allocates fresh ones.)
    pub fn flush(&self) -> Result<()> {
        self.checkpoint()?;
        self.commit_frees();
        Ok(())
    }

    /// Persists the superblock and syncs, *without* recycling freed
    /// extents. Callers whose commit point lives elsewhere (the database
    /// catalog) checkpoint every tree first, flip the catalog, and only
    /// then call [`commit_frees`](RTree::commit_frees) — so a crash
    /// between the two leaves every extent the old catalog references
    /// untouched.
    pub fn checkpoint(&self) -> Result<()> {
        self.write_meta()?;
        self.dev.sync()
    }

    /// Moves extents freed by committed mutations into the reusable pool.
    /// Call only once the current metadata is durable (after
    /// [`checkpoint`](RTree::checkpoint), or after an external catalog
    /// referencing the current root has committed).
    pub fn commit_frees(&self) {
        let mut free = self.free.lock();
        let pending = std::mem::take(&mut free.pending);
        for (nblocks, mut ids) in pending {
            free.reusable.entry(nblocks).or_default().append(&mut ids);
        }
    }

    /// Current metadata as persisted by an external catalog:
    /// `(root, height, count)` for [`open_with_meta`](RTree::open_with_meta).
    pub fn meta_state(&self) -> (Option<NodeId>, u16, u64) {
        let meta = self.meta.lock();
        (meta.root, meta.height, meta.count)
    }

    fn write_meta(&self) -> Result<()> {
        let meta = *self.meta.lock();
        let mut block = ir2_storage::zeroed_block();
        block[..4].copy_from_slice(META_MAGIC);
        block[4..12].copy_from_slice(&meta.root.unwrap_or(NO_ROOT).to_le_bytes());
        block[12..14].copy_from_slice(&meta.height.to_le_bytes());
        block[14..22].copy_from_slice(&meta.count.to_le_bytes());
        block[22..26].copy_from_slice(&(self.cfg.max_entries as u32).to_le_bytes());
        block[26..28].copy_from_slice(&(N as u16).to_le_bytes());
        page::seal(&mut block);
        self.dev.write_block(0, &block)
    }

    /// Number of objects indexed.
    pub fn len(&self) -> u64 {
        self.meta.lock().count
    }

    /// True if no objects are indexed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Tree height in levels (0 = empty, 1 = root is a leaf).
    pub fn height(&self) -> u16 {
        self.meta.lock().height
    }

    /// The root node id, if any.
    pub fn root(&self) -> Option<NodeId> {
        self.meta.lock().root
    }

    /// Total size of the tree's device in bytes (Table 2's structure size).
    pub fn size_bytes(&self) -> u64 {
        self.dev.size_bytes()
    }

    /// The tree's block device (for I/O statistics).
    pub fn device(&self) -> &D {
        &self.dev
    }

    /// The payload strategy.
    pub fn ops(&self) -> &P {
        &self.ops
    }

    /// The shape configuration.
    pub fn config(&self) -> &RTreeConfig {
        &self.cfg
    }

    /// Extent size (blocks) of a node at `level`. A plain R-Tree node is
    /// one block; payload-carrying nodes keep the fanout and spill onto
    /// additional blocks — the paper's "two or more disk blocks per node".
    /// Blocks are sealed, so each carries `PAGE_PAYLOAD` node bytes.
    ///
    /// # Panics
    /// Panics if a full node at `level` spans more blocks than the node
    /// header's `u16` can name.
    pub fn node_blocks(&self, level: u16) -> u16 {
        let full = NodeBuf::<N>::encoded_len(self.cfg.max_entries, self.ops.entry_size(level));
        u16::try_from(extent::sealed_blocks_for(full))
            .expect("a node extent's block count fits the node header's u16")
    }

    pub(crate) fn alloc_node(&self, level: u16) -> Result<NodeId> {
        let nblocks = self.node_blocks(level);
        if let Some(id) = self
            .free
            .lock()
            .reusable
            .get_mut(&nblocks)
            .and_then(Vec::pop)
        {
            return Ok(id);
        }
        self.dev.allocate(nblocks as u64)
    }

    /// Allocates a node extent within a mutation, recording it for rollback.
    fn alloc_node_ctx(&self, ctx: &mut MutCtx, level: u16) -> Result<NodeId> {
        let id = self.alloc_node(level)?;
        ctx.allocated.push((id, self.node_blocks(level)));
        Ok(id)
    }

    /// Stages a node extent as freed; it reaches the pending list only if
    /// the mutation commits. An extent this same mutation allocated goes
    /// straight back to the allocator, where rollback would have put it.
    fn stage_free(&self, ctx: &mut MutCtx, id: NodeId, level: u16) {
        match ctx.own_extent(id) {
            Some(i) => {
                let (id, nblocks) = ctx.allocated.swap_remove(i);
                let mut free = self.free.lock();
                free.reusable.entry(nblocks).or_default().push(id);
            }
            None => ctx.freed.push((id, self.node_blocks(level))),
        }
    }

    /// Publishes a successful mutation: its metadata becomes the tree's,
    /// its freed extents become pending, and the node cache publishes the
    /// commit's image table — the current one without the images of the
    /// extents the mutation **wrote** (`ctx.allocated`, every one of which
    /// may be a recycled id) or **freed** (no longer part of the tree).
    /// Copy-on-write leaves the bytes of every other committed extent
    /// alone, so every image that stays is exact. Called with the metadata
    /// lock held, so a search opening a reader takes the new root with the
    /// new table or the old root with the old one. (Rollback and
    /// [`commit_frees`](Self::commit_frees) therefore publish nothing.)
    fn commit_ctx(&self, ctx: MutCtx, meta: &mut Meta) {
        *meta = ctx.meta;
        if let Some(cache) = &self.node_cache {
            let written = ctx.allocated.iter().chain(&ctx.freed);
            cache.publish(self.dev.num_blocks(), written.map(|&(id, _)| id));
        }
        let mut free = self.free.lock();
        for (id, nblocks) in ctx.freed {
            free.pending.entry(nblocks).or_default().push(id);
        }
    }

    /// Discards a failed mutation: extents it allocated (which are the only
    /// ones it wrote to) return to the reusable pool; metadata and staged
    /// frees are dropped.
    fn rollback_ctx(&self, ctx: MutCtx) {
        let mut free = self.free.lock();
        for (id, nblocks) in ctx.allocated {
            free.reusable.entry(nblocks).or_default().push(id);
        }
    }

    /// Reads and checksum-verifies the extent of the node at `id` (one
    /// random block access plus sequential ones for multi-block nodes) into
    /// `buf` — exactly the node's header and entries, whatever `buf` held
    /// before — and returns the payload size of its level.
    ///
    /// One pass, in ascending block order. Each block is verified where the
    /// device holds it, and the node bytes of a block the entries fill are
    /// appended in the same lend ([`extent::with_sealed_payload`]), out of
    /// a block the checksum has just brought into the CPU's cache. The
    /// first block's header says how many blocks follow and how many of
    /// them the entries fill; both are checked against the tree's shape
    /// before anything past block 0 is read, and `buf` is then reserved
    /// once, exactly, and never zero-filled. The padding after the filled
    /// blocks is verified in place and not copied. Every block of the
    /// extent is read and verified either way.
    fn read_node_bytes(&self, id: NodeId, buf: &mut Vec<u8>) -> Result<usize> {
        // A block's node bytes: its whole payload, or, in the last filled
        // block, the part before the end of the last entry.
        fn append(buf: &mut Vec<u8>, payload: &[u8; PAGE_PAYLOAD], need: usize) {
            buf.extend_from_slice(&payload[..(need - buf.len()).min(PAGE_PAYLOAD)]);
        }
        buf.clear();
        let (payload_size, need, nblocks) = extent::with_sealed_payload(&self.dev, id, |block| {
            let (level, count, nblocks) =
                NodeBuf::<N>::decode_header(block).and_then(|header| self.check_header(header))?;
            let payload_size = self.ops.entry_size(level);
            let need = NodeBuf::<N>::encoded_len(count, payload_size);
            buf.reserve_exact(need);
            append(buf, block, need);
            Ok((payload_size, need, nblocks))
        })?
        .map_err(|e| match e {
            StorageError::Corrupt(msg) => StorageError::Corrupt(format!("node {id}: {msg}")),
            other => other,
        })?;
        let filled = extent::sealed_blocks_for(need);
        for next in id + 1..id + filled as u64 {
            extent::with_sealed_payload(&self.dev, next, |block| append(buf, block, need))?;
        }
        extent::verify_extent_sealed(&self.dev, id + filled as u64, nblocks - filled)?;
        Ok(payload_size)
    }

    /// A node header's `(level, count, nblocks)` if it fits this tree: the
    /// extent is the size the level's nodes take, and the entries are no
    /// more than a node holds.
    fn check_header(&self, (level, count, nblocks): (u16, u16, u16)) -> Result<(u16, usize, u32)> {
        let expected = self.node_blocks(level);
        if nblocks != expected {
            return Err(StorageError::Corrupt(format!(
                "header says {nblocks} blocks, a level-{level} node takes {expected}"
            )));
        }
        if count as usize > self.cfg.max_entries {
            return Err(StorageError::Corrupt(format!(
                "header says {count} entries, a node holds at most {}",
                self.cfg.max_entries
            )));
        }
        Ok((level, count as usize, nblocks as u32))
    }

    /// Reads the node at `id` (one random block access plus sequential ones
    /// for multi-block nodes) into an arena-backed [`NodeBuf`], verifying
    /// every block's checksum. No per-entry allocation: the node's one
    /// buffer is the only heap traffic. Every path reads nodes this way:
    /// queries (nearest neighbor, area search, cached traversals) and
    /// mutations alike, which edit the page they read and write it back.
    ///
    /// The page is built in `buf`'s allocation, which it takes, leaving
    /// `buf` empty; a caller reading node after node hands the bytes back
    /// with [`NodeBuf::into_bytes`], and the next read allocates nothing.
    /// On an error `buf` keeps its allocation and holds no node.
    pub fn read_node_into(&self, id: NodeId, buf: &mut Vec<u8>) -> Result<NodeBuf<N>> {
        let payload_size = self.read_node_bytes(id, buf)?;
        NodeBuf::decode(id, std::mem::take(buf), payload_size)
    }

    /// [`read_node_into`](RTree::read_node_into) a fresh buffer, reserved
    /// to the node's exact size.
    pub fn read_node_buf(&self, id: NodeId) -> Result<NodeBuf<N>> {
        self.read_node_into(id, &mut Vec::new())
    }

    /// Attaches a decoded-node cache, publishing an empty image table
    /// sized to the device. Call at construction time, before the tree is
    /// shared; each commit afterward publishes a table without the nodes it
    /// wrote or freed.
    pub fn set_node_cache(&mut self, cache: Arc<NodeCache<N>>) {
        cache.restart(self.dev.num_blocks());
        self.node_cache = Some(cache);
    }

    /// Detaches the decoded-node cache; reads fall back to the device.
    pub fn clear_node_cache(&mut self) {
        self.node_cache = None;
    }

    /// The attached decoded-node cache, if any.
    pub fn node_cache(&self) -> Option<&Arc<NodeCache<N>>> {
        self.node_cache.as_ref()
    }

    /// Opens a reader on the tree as it stands: its root and, with a node
    /// cache, the cache's current image table, taken under the metadata
    /// lock so the two belong to one commit. Every search reads its nodes
    /// through one reader ([`NodeReader::read`]).
    pub fn reader(&self) -> NodeReader<'_, N, D, P> {
        let meta = self.meta.lock();
        NodeReader::open(self, meta.root, self.node_cache.as_deref())
    }

    /// Reads the node at `id` through a reader of its own, returning the
    /// image as a shared value and whether the node cache served it. A miss
    /// installs the node's image while the cache has room; the hit or miss
    /// is counted as one query's.
    pub fn read_node_cached(&self, id: NodeId) -> Result<(Arc<CachedNode<N>>, bool)> {
        let mut reader = self.reader();
        let (_, hit) = reader.read(id)?;
        Ok((reader.into_shared(id), hit))
    }

    /// An empty node at `level`, to be written at the extent `id`.
    pub(crate) fn empty_node(&self, id: NodeId, level: u16) -> NodeBuf<N> {
        NodeBuf::empty(id, level, self.ops.entry_size(level))
    }

    /// Seals `node`'s bytes over its extent, padding the blocks its entries
    /// do not fill with the sealed zero page.
    pub(crate) fn write_node(&self, node: &mut NodeBuf<N>) -> Result<()> {
        debug_assert!(
            node.len() <= self.cfg.max_entries,
            "node {} overflows: {} entries",
            node.id(),
            node.len()
        );
        let nblocks = self.node_blocks(node.level());
        let id = node.id();
        extent::write_extent_sealed(&self.dev, id, node.encode(nblocks), nblocks as u32)
    }

    /// Copy-on-write: writes `node` at a freshly allocated extent, staging
    /// its previous extent as freed and updating `node.id`. Live on-disk
    /// nodes are therefore never overwritten mid-operation — a crash or
    /// I/O error leaves the last committed tree image fully intact.
    ///
    /// A node this same mutation already relocated is overwritten in place.
    /// CondenseTree's orphan reinsertion walks the same root path once per
    /// orphan; copying the root each time would allocate one root extent
    /// per orphan while freeing none before commit.
    fn write_node_cow(&self, ctx: &mut MutCtx, node: &mut NodeBuf<N>) -> Result<()> {
        if ctx.own_extent(node.id()).is_none() {
            let old = node.id();
            node.set_id(self.alloc_node_ctx(ctx, node.level())?);
            self.stage_free(ctx, old, node.level());
        }
        self.write_node(node)
    }

    /// The parent-entry payload summarizing `node`, via entry folding when
    /// the payload scheme allows it and a subtree-object recomputation
    /// otherwise (the MIR²-Tree's expensive path).
    pub(crate) fn summary_of_node(&self, node: &NodeBuf<N>) -> Result<Vec<u8>> {
        if let Some(summary) = self.fold_summary(node) {
            return Ok(summary);
        }
        let mut objects = Vec::new();
        self.collect_objects(node, &mut objects)?;
        Ok(self
            .ops
            .summarize_objects(node.level() + 1, &mut objects.into_iter()))
    }

    /// The summary of `node` folded from its entries' payloads, where the
    /// payload scheme allows that.
    pub(crate) fn fold_summary(&self, node: &NodeBuf<N>) -> Option<Vec<u8>> {
        self.ops
            .summarize_entries(node.level(), &mut node.payloads())
    }

    /// Appends the object references in the subtree rooted at `node`,
    /// depth-first in entry order, reading the subtree's nodes (a real,
    /// tracked I/O cost) as pages: nothing is copied out of an entry but
    /// its child reference.
    fn collect_objects(&self, node: &NodeBuf<N>, out: &mut Vec<u64>) -> Result<()> {
        if node.is_leaf() {
            out.extend(node.children());
            return Ok(());
        }
        for child in node.children() {
            self.collect_objects(&self.read_node_buf(child)?, out)?;
        }
        Ok(())
    }

    /// Installs bulk-load results into the metadata (crate-internal).
    pub(crate) fn set_meta_after_bulk(&self, root: NodeId, height: u16, count: u64) {
        let mut meta = self.meta.lock();
        meta.root = Some(root);
        meta.height = height;
        meta.count = count;
        // Every extent the load wrote may be a recycled id; the tree was
        // empty, so no reader is inside it and an empty table is enough.
        if let Some(cache) = &self.node_cache {
            cache.restart(self.dev.num_blocks());
        }
    }

    // ------------------------------------------------------------------
    // Insert (paper Figure 5, on top of Guttman's ChooseLeaf/AdjustTree).
    // ------------------------------------------------------------------

    /// Inserts an object reference with its MBR and leaf payload
    /// (`Insert(ObjPtr, MBR, S)` in the paper's Figure 5).
    ///
    /// Atomic in memory and on disk: an I/O error mid-insert leaves both
    /// the metadata and the last committed tree image unchanged (all node
    /// writes are copy-on-write into fresh extents).
    pub fn insert(&self, child: u64, rect: Rect<N>, leaf_payload: &[u8]) -> Result<()> {
        let mut meta = self.meta.lock();
        let mut ctx = MutCtx::new(*meta);
        match self.insert_inner(&mut ctx, child, rect, leaf_payload, true) {
            Ok(()) => {
                self.commit_ctx(ctx, &mut meta);
                Ok(())
            }
            Err(e) => {
                self.rollback_ctx(ctx);
                Err(e)
            }
        }
    }

    fn insert_inner(
        &self,
        ctx: &mut MutCtx,
        child: u64,
        rect: Rect<N>,
        leaf_payload: &[u8],
        bump_count: bool,
    ) -> Result<()> {
        debug_assert_eq!(
            leaf_payload.len(),
            self.ops.entry_size(0),
            "leaf payload size"
        );
        if bump_count {
            ctx.meta.count += 1;
        }
        let Some(root_id) = ctx.meta.root else {
            let mut node = self.empty_node(self.alloc_node_ctx(ctx, 0)?, 0);
            node.push(child, &rect, leaf_payload);
            self.write_node(&mut node)?;
            ctx.meta.root = Some(node.id());
            ctx.meta.height = 1;
            return Ok(());
        };

        // ChooseLeaf: descend by least enlargement, recording the path.
        let mut path: Vec<(NodeBuf<N>, usize)> = Vec::new();
        let mut node = self.read_node_buf(root_id)?;
        while !node.is_leaf() {
            let idx = choose_subtree(&node, &rect);
            let next = node.child(idx);
            path.push((node, idx));
            node = self.read_node_buf(next)?;
        }
        node.push(child, &rect, leaf_payload);

        // Resolve overflow at the leaf, then walk the path upward adjusting
        // MBRs and payloads (the paper's AdjustTree "modified to also
        // maintain the signatures of the modified nodes"). Copy-on-write
        // relocates every modified node, so each ancestor must be rewritten
        // with its child's new id — the old "stop when nothing changed"
        // shortcut no longer applies.
        let mut pending_split = None;
        if node.len() > self.cfg.max_entries {
            pending_split = Some(self.split_node(ctx, &node)?);
        } else {
            self.write_node_cow(ctx, &mut node)?;
        }
        let mut below = node;

        while let Some((mut parent, idx)) = path.pop() {
            if let Some(((child_a, rect_a, summary_a), (child_b, rect_b, summary_b))) =
                pending_split.take()
            {
                parent.set_child(idx, child_a);
                parent.set_rect(idx, &rect_a);
                parent.set_payload(idx, &summary_a);
                parent.push(child_b, &rect_b, &summary_b);
                if parent.len() > self.cfg.max_entries {
                    pending_split = Some(self.split_node(ctx, &parent)?);
                } else {
                    self.write_node_cow(ctx, &mut parent)?;
                }
                below = parent;
                continue;
            }

            // Plain adjustment: refresh the parent entry describing `below`,
            // OR-ing the object's lifted signature into it in place.
            parent.set_child(idx, below.id());
            parent.set_rect(idx, &below.mbr());
            if self.ops.strict_maintenance() {
                parent.set_payload(idx, &self.summary_of_node(&below)?);
            } else {
                let level = parent.level();
                let lifted = self.ops.lift_object(child, leaf_payload, level);
                self.ops.merge(level, parent.payload_mut(idx), &lifted);
            }
            self.write_node_cow(ctx, &mut parent)?;
            below = parent;
        }

        if let Some(((child_a, rect_a, summary_a), (child_b, rect_b, summary_b))) = pending_split {
            // A split propagated past the old root: grow the tree.
            let level = ctx.meta.height; // old root level + 1
            let mut new_root = self.empty_node(self.alloc_node_ctx(ctx, level)?, level);
            new_root.push(child_a, &rect_a, &summary_a);
            new_root.push(child_b, &rect_b, &summary_b);
            self.write_node(&mut new_root)?;
            ctx.meta.root = Some(new_root.id());
            ctx.meta.height += 1;
        } else {
            // The root was rewritten (copy-on-write) at a new extent.
            ctx.meta.root = Some(below.id());
        }
        Ok(())
    }

    /// Quadratic split \[Gut84\]: distributes an overflowing node's entries
    /// into two *fresh* nodes (the overflowing extent is staged as freed),
    /// writes both, and returns the parent entries that describe them
    /// (with freshly computed summaries).
    fn split_node(&self, ctx: &mut MutCtx, node: &NodeBuf<N>) -> Result<(Item<N>, Item<N>)> {
        let level = node.level();
        self.stage_free(ctx, node.id(), level);
        let rects: Vec<Rect<N>> = (0..node.len()).map(|i| node.rect(i)).collect();
        let (group_a, group_b) = match self.cfg.split {
            SplitStrategy::Quadratic => quadratic_split(&rects, self.cfg.min_entries),
            SplitStrategy::Linear => linear_split(&rects, self.cfg.min_entries),
        };
        let mut half = |group: Vec<usize>| -> Result<NodeBuf<N>> {
            let mut out = self.empty_node(self.alloc_node_ctx(ctx, level)?, level);
            for i in group {
                out.push(node.child(i), &rects[i], node.payload(i));
            }
            Ok(out)
        };
        let (mut a, mut b) = (half(group_a)?, half(group_b)?);
        self.write_node(&mut a)?;
        self.write_node(&mut b)?;
        Ok((
            (a.id(), a.mbr(), self.summary_of_node(&a)?),
            (b.id(), b.mbr(), self.summary_of_node(&b)?),
        ))
    }

    // ------------------------------------------------------------------
    // Delete (paper Figure 6: FindLeaf + CondenseTree).
    // ------------------------------------------------------------------

    /// Deletes the entry for object `child` with MBR `rect`. Returns
    /// whether the entry existed.
    ///
    /// Atomic like [`insert`](RTree::insert): metadata changes and block
    /// frees are staged and only published if every I/O step (including
    /// CondenseTree's orphan reinsertion) succeeds; a failure mid-way
    /// leaves the in-memory meta and the committed on-disk image intact.
    pub fn delete(&self, child: u64, rect: &Rect<N>) -> Result<bool> {
        let mut meta = self.meta.lock();
        let mut ctx = MutCtx::new(*meta);
        match self.delete_inner(&mut ctx, child, rect) {
            Ok(found) => {
                if found {
                    self.commit_ctx(ctx, &mut meta);
                } else {
                    self.rollback_ctx(ctx);
                }
                Ok(found)
            }
            Err(e) => {
                self.rollback_ctx(ctx);
                Err(e)
            }
        }
    }

    fn delete_inner(&self, ctx: &mut MutCtx, child: u64, rect: &Rect<N>) -> Result<bool> {
        let Some(root_id) = ctx.meta.root else {
            return Ok(false);
        };

        // FindLeaf: DFS along entries whose MBR contains the object's.
        let root = self.read_node_buf(root_id)?;
        let Some(path) = self.find_leaf(root, child, rect)? else {
            return Ok(false);
        };
        let mut path = path.into_iter();
        let (mut leaf, entry_idx) = path.next().expect("find_leaf returns the leaf first");
        leaf.remove(entry_idx);
        ctx.meta.count -= 1;

        // CondenseTree, "modified to maintain the signatures of updated
        // nodes": under-full nodes dissolve (their leaves' entries are
        // reinserted), surviving ancestors get recomputed MBRs and payloads
        // (bits cannot be un-OR-ed incrementally).
        let mut orphaned: Vec<NodeBuf<N>> = Vec::new();
        let mut cur = leaf;
        for (mut parent, idx) in path {
            if cur.len() < self.cfg.min_entries {
                parent.remove(idx);
                self.gather_and_free(ctx, cur, &mut orphaned)?;
            } else {
                self.write_node_cow(ctx, &mut cur)?;
                parent.set_child(idx, cur.id());
                parent.set_rect(idx, &cur.mbr());
                parent.set_payload(idx, &self.summary_of_node(&cur)?);
            }
            cur = parent;
        }

        // `cur` is the root. Shrink it as needed.
        if cur.is_empty() {
            // Empty leaf root, or every child dissolved (the orphans below
            // will rebuild).
            self.stage_free(ctx, cur.id(), cur.level());
            ctx.meta.root = None;
            ctx.meta.height = 0;
        } else if !cur.is_leaf() && cur.len() == 1 {
            // The root chains down through single children: each such level
            // dissolves and the first real node becomes the root. The
            // surviving child already carries this op's updates (its entry
            // in `cur` was refreshed above), so only metadata changes.
            let mut node = cur;
            while !node.is_leaf() && node.len() == 1 {
                let child_id = node.child(0);
                self.stage_free(ctx, node.id(), node.level());
                node = self.read_node_buf(child_id)?;
                ctx.meta.height -= 1;
            }
            ctx.meta.root = Some(node.id());
        } else {
            self.write_node_cow(ctx, &mut cur)?;
            ctx.meta.root = Some(cur.id());
        }

        // Reinsert the dissolved leaves' entries (without recounting them).
        for leaf in &orphaned {
            for i in 0..leaf.len() {
                self.insert_inner(ctx, leaf.child(i), leaf.rect(i), leaf.payload(i), false)?;
            }
        }
        Ok(true)
    }

    /// DFS for the leaf holding (`child`, `rect`) under `node`; returns the
    /// descent path as `(node, entry_index)` pairs, leaf first — `(leaf,
    /// index_of_entry)` — and `node` last. Each node on the path is the page
    /// that was read, moved into the path, not copied.
    #[allow(clippy::type_complexity)]
    fn find_leaf(
        &self,
        node: NodeBuf<N>,
        child: u64,
        rect: &Rect<N>,
    ) -> Result<Option<Vec<(NodeBuf<N>, usize)>>> {
        if node.is_leaf() {
            let found = (0..node.len()).find(|&i| node.child(i) == child && node.rect(i) == *rect);
            return Ok(found.map(|i| vec![(node, i)]));
        }
        for i in 0..node.len() {
            if node.rect(i).contains(rect) {
                let sub = self.read_node_buf(node.child(i))?;
                if let Some(mut path) = self.find_leaf(sub, child, rect)? {
                    path.push((node, i));
                    return Ok(Some(path));
                }
            }
        }
        Ok(None)
    }

    /// Moves every leaf of the subtree rooted at `node` into `out`, staging
    /// all subtree nodes for freeing.
    fn gather_and_free(
        &self,
        ctx: &mut MutCtx,
        node: NodeBuf<N>,
        out: &mut Vec<NodeBuf<N>>,
    ) -> Result<()> {
        let (id, level) = (node.id(), node.level());
        if node.is_leaf() {
            out.push(node);
        } else {
            for child in node.children() {
                self.gather_and_free(ctx, self.read_node_buf(child)?, out)?;
            }
        }
        self.stage_free(ctx, id, level);
        Ok(())
    }

    // ------------------------------------------------------------------
    // Structural validation (used heavily by the test suites).
    // ------------------------------------------------------------------

    /// Walks the whole tree checking the R-Tree invariants; returns the
    /// number of leaf entries found.
    ///
    /// Checked: uniform leaf depth; parent entry MBRs equal to child node
    /// MBRs; node fills within `[min, max]` (root exempt); recorded count
    /// matches leaf entries. Payload invariants are checked by the caller
    /// via `check_payload(parent_entry_payload, child_node_summary)`.
    pub fn check_invariants(
        &self,
        check_payload: impl FnMut(u16, &[u8], &[u8]) -> bool,
    ) -> Result<u64> {
        self.check_invariants_with(true, check_payload)
    }

    /// [`check_invariants`](RTree::check_invariants) with the minimum-fill
    /// check optional: bulk-loaded trees legitimately leave a tail of
    /// underfull nodes, so integrity checking (`ir2 check`) validates
    /// structure and checksums without enforcing fill factors.
    pub fn check_invariants_with(
        &self,
        enforce_fill: bool,
        mut check_payload: impl FnMut(u16, &[u8], &[u8]) -> bool,
    ) -> Result<u64> {
        let meta = *self.meta.lock();
        let Some(root_id) = meta.root else {
            if meta.count != 0 || meta.height != 0 {
                return Err(StorageError::Corrupt("empty tree with nonzero meta".into()));
            }
            return Ok(0);
        };
        let root = self.read_node_buf(root_id)?;
        if root.level() + 1 != meta.height {
            return Err(StorageError::Corrupt(format!(
                "root level {} vs height {}",
                root.level(),
                meta.height
            )));
        }
        let count = self.check_node(&root, true, enforce_fill, &mut check_payload)?;
        if count != meta.count {
            return Err(StorageError::Corrupt(format!(
                "counted {count} leaf entries, meta says {}",
                meta.count
            )));
        }
        Ok(count)
    }

    fn check_node(
        &self,
        node: &NodeBuf<N>,
        is_root: bool,
        enforce_fill: bool,
        check_payload: &mut impl FnMut(u16, &[u8], &[u8]) -> bool,
    ) -> Result<u64> {
        let len = node.len();
        let fill_ok = if is_root {
            len > 0 || node.is_leaf()
        } else if enforce_fill {
            len >= self.cfg.min_entries && len <= self.cfg.max_entries
        } else {
            len > 0 && len <= self.cfg.max_entries
        };
        if !fill_ok {
            return Err(StorageError::Corrupt(format!(
                "node {} fill {len} outside [{}, {}]",
                node.id(),
                self.cfg.min_entries,
                self.cfg.max_entries
            )));
        }
        if node.is_leaf() {
            return Ok(len as u64);
        }
        let mut total = 0;
        for i in 0..len {
            let child = self.read_node_buf(node.child(i))?;
            if child.level() + 1 != node.level() {
                return Err(StorageError::Corrupt(format!(
                    "node {}: child {} at level {} under level {}",
                    node.id(),
                    child.id(),
                    child.level(),
                    node.level()
                )));
            }
            if node.rect(i) != child.mbr() {
                return Err(StorageError::Corrupt(format!(
                    "node {}: stale MBR for child {}",
                    node.id(),
                    child.id()
                )));
            }
            let summary = self.summary_of_node(&child)?;
            if !check_payload(node.level(), node.payload(i), &summary) {
                return Err(StorageError::Corrupt(format!(
                    "node {}: payload invariant violated for child {}",
                    node.id(),
                    child.id()
                )));
            }
            total += self.check_node(&child, false, enforce_fill, check_payload)?;
        }
        Ok(total)
    }
}

/// Guttman's ChooseLeaf criterion: the entry needing least area enlargement
/// (ties: smallest area, then lowest index for determinism).
fn choose_subtree<const N: usize>(node: &NodeBuf<N>, rect: &Rect<N>) -> usize {
    let mut best = 0;
    let mut best_enlargement = f64::INFINITY;
    let mut best_area = f64::INFINITY;
    for i in 0..node.len() {
        let r = node.rect(i);
        let enlargement = r.enlargement(rect);
        let area = r.area();
        if enlargement < best_enlargement || (enlargement == best_enlargement && area < best_area) {
            best = i;
            best_enlargement = enlargement;
            best_area = area;
        }
    }
    best
}

/// Guttman's quadratic split of the entries whose MBRs are `rects`:
/// PickSeeds (the pair wasting the most area together) then PickNext (the
/// entry with the greatest preference for one group), honoring the minimum
/// fill by force-assignment. Returns the two groups as entry indexes, each
/// in the order its entries joined it.
fn quadratic_split<const N: usize>(
    rects: &[Rect<N>],
    min_entries: usize,
) -> (Vec<usize>, Vec<usize>) {
    debug_assert!(rects.len() >= 2);
    // PickSeeds.
    let (mut seed_a, mut seed_b, mut worst) = (0, 1, f64::NEG_INFINITY);
    for i in 0..rects.len() {
        for j in i + 1..rects.len() {
            let waste = rects[i].union(&rects[j]).area() - rects[i].area() - rects[j].area();
            if waste > worst {
                worst = waste;
                seed_a = i;
                seed_b = j;
            }
        }
    }

    let mut taken = vec![false; rects.len()];
    taken[seed_a] = true;
    taken[seed_b] = true;
    let mut group_a = vec![seed_a];
    let mut group_b = vec![seed_b];
    let mut mbr_a = rects[seed_a];
    let mut mbr_b = rects[seed_b];
    let mut left = rects.len() - 2;

    while left > 0 {
        // Force-assign when a group must take everything left to reach the
        // minimum fill.
        if group_a.len() + left == min_entries {
            group_a.extend((0..rects.len()).filter(|&i| !taken[i]));
            break;
        }
        if group_b.len() + left == min_entries {
            group_b.extend((0..rects.len()).filter(|&i| !taken[i]));
            break;
        }
        // PickNext: maximal |d_a − d_b|.
        let (mut pick, mut best_diff) = (usize::MAX, f64::NEG_INFINITY);
        for i in (0..rects.len()).filter(|&i| !taken[i]) {
            let da = mbr_a.enlargement(&rects[i]);
            let db = mbr_b.enlargement(&rects[i]);
            let diff = (da - db).abs();
            if diff > best_diff {
                best_diff = diff;
                pick = i;
            }
        }
        taken[pick] = true;
        left -= 1;
        let r = &rects[pick];
        let da = mbr_a.enlargement(r);
        let db = mbr_b.enlargement(r);
        // Resolve ties by smaller area, then smaller group.
        let to_a = match da.partial_cmp(&db).expect("finite enlargements") {
            std::cmp::Ordering::Less => true,
            std::cmp::Ordering::Greater => false,
            std::cmp::Ordering::Equal => {
                if mbr_a.area() != mbr_b.area() {
                    mbr_a.area() < mbr_b.area()
                } else {
                    group_a.len() <= group_b.len()
                }
            }
        };
        if to_a {
            mbr_a.union_in_place(r);
            group_a.push(pick);
        } else {
            mbr_b.union_in_place(r);
            group_b.push(pick);
        }
    }
    (group_a, group_b)
}

/// Guttman's linear split of the entries whose MBRs are `rects`: per
/// dimension, find the entry with the highest low side and the one with the
/// lowest high side; the dimension with the greatest separation (normalized
/// by its extent) supplies the two seeds. Remaining entries join the group
/// needing least enlargement, with force-assignment to honor the minimum
/// fill. Returns the two groups as entry indexes, each in joining order.
fn linear_split<const N: usize>(rects: &[Rect<N>], min_entries: usize) -> (Vec<usize>, Vec<usize>) {
    debug_assert!(rects.len() >= 2);
    let mut best_dim_sep = f64::NEG_INFINITY;
    let (mut seed_a, mut seed_b) = (0usize, 1usize);
    for d in 0..N {
        let mut lo_of_all = f64::INFINITY;
        let mut hi_of_all = f64::NEG_INFINITY;
        // Entry with max low side, entry with min high side.
        let (mut max_lo_i, mut max_lo) = (0usize, f64::NEG_INFINITY);
        let (mut min_hi_i, mut min_hi) = (0usize, f64::INFINITY);
        for (i, r) in rects.iter().enumerate() {
            let lo = r.lo().coord(d);
            let hi = r.hi().coord(d);
            lo_of_all = lo_of_all.min(lo);
            hi_of_all = hi_of_all.max(hi);
            if lo > max_lo {
                max_lo = lo;
                max_lo_i = i;
            }
            if hi < min_hi {
                min_hi = hi;
                min_hi_i = i;
            }
        }
        let width = (hi_of_all - lo_of_all).max(f64::MIN_POSITIVE);
        let sep = (max_lo - min_hi) / width;
        if sep > best_dim_sep && max_lo_i != min_hi_i {
            best_dim_sep = sep;
            seed_a = min_hi_i;
            seed_b = max_lo_i;
        }
    }
    if seed_a == seed_b {
        // Degenerate (all rects identical): arbitrary distinct seeds.
        seed_b = (seed_a + 1) % rects.len();
    }

    let mut group_a = vec![seed_a];
    let mut group_b = vec![seed_b];
    let mut mbr_a = rects[seed_a];
    let mut mbr_b = rects[seed_b];
    let mut left = rects.len() - 2;

    for (i, r) in rects.iter().enumerate() {
        if i == seed_a || i == seed_b {
            continue;
        }
        let to_a = if group_a.len() + left == min_entries {
            true
        } else if group_b.len() + left == min_entries {
            false
        } else {
            let da = mbr_a.enlargement(r);
            let db = mbr_b.enlargement(r);
            da < db || (da == db && group_a.len() <= group_b.len())
        };
        left -= 1;
        if to_a {
            mbr_a.union_in_place(r);
            group_a.push(i);
        } else {
            mbr_b.union_in_place(r);
            group_b.push(i);
        }
    }
    (group_a, group_b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::UnitPayload;
    use ir2_geo::Point;
    use ir2_storage::MemDevice;

    fn pt_rect(x: f64, y: f64) -> Rect<2> {
        Rect::from_point(Point::new([x, y]))
    }

    fn small_tree() -> RTree<2, MemDevice, UnitPayload> {
        RTree::create(MemDevice::new(), RTreeConfig::with_max(4), UnitPayload).unwrap()
    }

    #[test]
    fn insert_and_validate_small() {
        let tree = small_tree();
        for i in 0..50u64 {
            let (x, y) = ((i % 10) as f64, (i / 10) as f64);
            tree.insert(i, pt_rect(x, y), &[]).unwrap();
        }
        assert_eq!(tree.len(), 50);
        assert!(tree.height() >= 3, "capacity 4 must have split by 50");
        assert_eq!(tree.check_invariants(|_, _, _| true).unwrap(), 50);
    }

    #[test]
    fn delete_everything() {
        let tree = small_tree();
        for i in 0..30u64 {
            tree.insert(i, pt_rect(i as f64, -(i as f64)), &[]).unwrap();
        }
        for i in 0..30u64 {
            assert!(tree.delete(i, &pt_rect(i as f64, -(i as f64))).unwrap());
            tree.check_invariants(|_, _, _| true).unwrap();
        }
        assert!(tree.is_empty());
        assert_eq!(tree.height(), 0);
        // Deleting again reports absence.
        assert!(!tree.delete(0, &pt_rect(0.0, 0.0)).unwrap());
    }

    #[test]
    fn delete_missing_returns_false() {
        let tree = small_tree();
        tree.insert(1, pt_rect(1.0, 1.0), &[]).unwrap();
        assert!(!tree.delete(2, &pt_rect(1.0, 1.0)).unwrap());
        assert!(!tree.delete(1, &pt_rect(9.0, 9.0)).unwrap());
        assert_eq!(tree.len(), 1);
    }

    #[test]
    fn reinsertion_keeps_all_objects_findable() {
        // Drive enough deletes to trigger CondenseTree orphan reinsertion.
        let tree = small_tree();
        for i in 0..60u64 {
            tree.insert(i, pt_rect((i % 8) as f64, (i / 8) as f64), &[])
                .unwrap();
        }
        for i in (0..60u64).step_by(2) {
            assert!(tree
                .delete(i, &pt_rect((i % 8) as f64, (i / 8) as f64))
                .unwrap());
        }
        assert_eq!(tree.len(), 30);
        assert_eq!(tree.check_invariants(|_, _, _| true).unwrap(), 30);
        // The surviving objects are all reachable via NN search.
        let found: Vec<u64> = tree
            .nearest(Point::new([0.0, 0.0]))
            .map(|r| r.unwrap().child)
            .collect();
        let mut found_sorted = found.clone();
        found_sorted.sort_unstable();
        assert_eq!(
            found_sorted,
            (0..60).filter(|i| i % 2 == 1).collect::<Vec<_>>()
        );
    }

    #[test]
    fn persistence_roundtrip() {
        let dev = std::sync::Arc::new(MemDevice::new());
        {
            let tree = RTree::<2, _, _>::create(
                std::sync::Arc::clone(&dev),
                RTreeConfig::with_max(4),
                UnitPayload,
            )
            .unwrap();
            for i in 0..20u64 {
                tree.insert(i, pt_rect(i as f64, 0.0), &[]).unwrap();
            }
            tree.flush().unwrap();
        }
        let tree = RTree::<2, _, _>::open(dev, RTreeConfig::with_max(4), UnitPayload).unwrap();
        assert_eq!(tree.len(), 20);
        assert_eq!(tree.check_invariants(|_, _, _| true).unwrap(), 20);
    }

    #[test]
    fn open_rejects_mismatched_config() {
        let dev = std::sync::Arc::new(MemDevice::new());
        {
            let tree = RTree::<2, _, _>::create(
                std::sync::Arc::clone(&dev),
                RTreeConfig::with_max(4),
                UnitPayload,
            )
            .unwrap();
            tree.flush().unwrap();
        }
        assert!(RTree::<2, _, _>::open(dev, RTreeConfig::with_max(8), UnitPayload).is_err());
    }

    #[test]
    fn duplicate_points_are_fine() {
        let tree = small_tree();
        for i in 0..20u64 {
            tree.insert(i, pt_rect(1.0, 1.0), &[]).unwrap();
        }
        assert_eq!(tree.check_invariants(|_, _, _| true).unwrap(), 20);
        // Delete them one by one (same rect, distinct ids).
        for i in 0..20u64 {
            assert!(tree.delete(i, &pt_rect(1.0, 1.0)).unwrap());
        }
        assert!(tree.is_empty());
    }

    /// Both groups together are every entry index exactly once.
    fn assert_partition(a: &[usize], b: &[usize], n: usize) {
        let mut ids: Vec<usize> = a.iter().chain(b).copied().collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..n).collect::<Vec<_>>());
    }

    #[test]
    fn linear_split_respects_min_fill_and_partitions() {
        let rects: Vec<Rect<2>> = (0..9).map(|i| pt_rect(i as f64, (i % 3) as f64)).collect();
        let (a, b) = linear_split(&rects, 4);
        assert!(a.len() >= 2 && b.len() >= 2);
        assert_partition(&a, &b, 9);
    }

    #[test]
    fn linear_split_handles_identical_rects() {
        let rects = vec![pt_rect(1.0, 1.0); 6];
        let (a, b) = linear_split(&rects, 2);
        assert!(!a.is_empty() && !b.is_empty());
        assert_partition(&a, &b, 6);
    }

    #[test]
    fn linear_split_tree_stays_correct() {
        let tree = RTree::create(
            MemDevice::new(),
            RTreeConfig::with_max(4).with_linear_split(),
            UnitPayload,
        )
        .unwrap();
        for i in 0..80u64 {
            tree.insert(i, pt_rect((i % 9) as f64, (i / 9) as f64), &[])
                .unwrap();
        }
        assert_eq!(tree.check_invariants(|_, _, _| true).unwrap(), 80);
        let order: Vec<u64> = tree
            .nearest(ir2_geo::Point::new([0.0, 0.0]))
            .map(|r| r.unwrap().child)
            .collect();
        assert_eq!(order.len(), 80);
    }

    #[test]
    fn quadratic_split_respects_min_fill() {
        let rects: Vec<Rect<2>> = (0..9).map(|i| pt_rect(i as f64, 0.0)).collect();
        let (a, b) = quadratic_split(&rects, 4);
        assert!(a.len() >= 4 || b.len() >= 4);
        assert!(a.len() >= 2 && b.len() >= 2);
        assert_partition(&a, &b, 9);
    }

    #[test]
    fn cached_reads_hit_warm_and_mutations_invalidate() {
        let mut tree = small_tree();
        tree.set_node_cache(Arc::new(NodeCache::new(64)));
        for i in 0..40u64 {
            tree.insert(i, pt_rect((i % 7) as f64, (i / 7) as f64), &[])
                .unwrap();
        }
        let q = Point::new([0.0, 0.0]);
        let cold: Vec<u64> = tree.nearest(q).map(|r| r.unwrap().child).collect();

        let mut warm_it = tree.nearest(q);
        let warm: Vec<u64> = warm_it.by_ref().map(|r| r.unwrap().child).collect();
        assert_eq!(warm, cold, "cache must not change the result");
        assert_eq!(
            warm_it.cache_hits(),
            warm_it.nodes_read(),
            "second identical traversal should be fully warm"
        );

        // A committed mutation costs the cache the nodes it wrote — the
        // ones the old tree did not have — and no others: the next
        // traversal misses exactly those, is served every other node, and
        // sees the new object.
        let before = tree.node_ids().unwrap();
        let cache = Arc::clone(tree.node_cache().unwrap());
        assert_eq!(cache.invalidated(), 0, "fresh extents were never cached");
        tree.insert(1000, pt_rect(0.1, 0.1), &[]).unwrap();
        let written = tree
            .node_ids()
            .unwrap()
            .into_iter()
            .filter(|id| !before.contains(id))
            .count() as u64;
        assert!(written >= u64::from(tree.height()), "the root path moved");

        let mut after_it = tree.nearest(q);
        let after: Vec<u64> = after_it.by_ref().map(|r| r.unwrap().child).collect();
        assert!(after.contains(&1000));
        assert_eq!(after.len(), cold.len() + 1);
        assert_eq!(after_it.cache_misses(), written);
        assert_eq!(after_it.cache_hits(), after_it.nodes_read() - written);
        assert!(after_it.cache_hits() > 0, "the commit kept the cache");
    }

    /// The reuse hazard: an extent freed by one commit becomes reusable at
    /// the next flush and is written over by a later commit — from which
    /// moment a cached read of that id must return the new node. The commit
    /// that frees an extent already publishes a table without its image.
    #[test]
    fn a_reused_extent_is_not_served_from_its_previous_life() {
        let mut tree = small_tree();
        tree.set_node_cache(Arc::new(NodeCache::new(256)));
        for i in 0..40u64 {
            tree.insert(i, pt_rect((i % 7) as f64, (i / 7) as f64), &[])
                .unwrap();
        }
        tree.flush().unwrap();
        let cache = Arc::clone(tree.node_cache().unwrap());
        let q = Point::new([3.0, 3.0]);
        let mut reused = 0;
        for round in 0..12u64 {
            // Every node of the current tree is cached...
            assert!(tree.nearest(q).all(|r| r.is_ok()));
            let before = tree.node_ids().unwrap();
            assert!(before.iter().all(|&id| cache.get(id).is_some()));
            // ...a delete frees its root path, whose images go with it...
            assert!(tree
                .delete(round, &pt_rect((round % 7) as f64, (round / 7) as f64))
                .unwrap());
            let freed: Vec<NodeId> = {
                let now = tree.node_ids().unwrap();
                before.into_iter().filter(|id| !now.contains(id)).collect()
            };
            assert!(!freed.is_empty());
            assert!(freed.iter().all(|&id| cache.get(id).is_none()));
            // ...the flush hands the extents back, and the insert takes
            // them again.
            tree.flush().unwrap();
            tree.insert(100 + round, pt_rect(round as f64 * 0.5, 6.5), &[])
                .unwrap();
            for id in tree.node_ids().unwrap() {
                reused += u64::from(freed.contains(&id));
                let (image, _) = tree.read_node_cached(id).unwrap();
                let on_disk = tree.read_node_buf(id).unwrap();
                assert_eq!(image.level(), on_disk.level(), "node {id}, round {round}");
                assert!(
                    image.children().eq(on_disk.children()),
                    "node {id}, round {round}: stale image"
                );
                assert_eq!(image.mbr(), on_disk.mbr(), "node {id}, round {round}");
            }
        }
        assert!(reused > 0, "no freed extent was ever reused");
        assert!(cache.invalidated() > 0);
    }

    /// A page read into a search's roomy buffer keeps its capacity, but the
    /// image a node cache installs of it is a copy of exactly the node's
    /// bytes: a cache holds thousands of images for the tree's lifetime.
    #[test]
    fn an_image_a_node_cache_installs_keeps_no_spare_capacity() {
        let mut tree = small_tree();
        for i in 0..3u64 {
            tree.insert(i, pt_rect(i as f64, 0.0), &[]).unwrap();
        }
        let root = tree.root().unwrap();
        let want = tree.read_node_buf(root).unwrap().into_bytes();
        assert_eq!(
            want.capacity(),
            want.len(),
            "a fresh read is reserved exactly"
        );

        let mut roomy = Vec::with_capacity(64 * 1024);
        let page = tree.read_node_into(root, &mut roomy).unwrap();
        assert_eq!(
            page.into_bytes().capacity(),
            64 * 1024,
            "a search's buffer is kept"
        );

        tree.set_node_cache(Arc::new(NodeCache::new(8)));
        let (image, hit) = tree.read_node_cached(root).unwrap();
        assert!(!hit);
        tree.clear_node_cache(); // drops the cache and its reference
        let bytes = Arc::into_inner(image)
            .and_then(CachedNode::into_page)
            .expect("a plain R-Tree's image is its page")
            .into_bytes();
        assert_eq!(bytes, want);
        assert_eq!(
            bytes.capacity(),
            bytes.len(),
            "an installed image keeps no spare capacity"
        );
    }

    #[test]
    fn uncached_tree_reports_zero_hits() {
        let tree = small_tree();
        for i in 0..10u64 {
            tree.insert(i, pt_rect(i as f64, 0.0), &[]).unwrap();
        }
        let mut it = tree.nearest(Point::new([0.0, 0.0]));
        it.by_ref().for_each(|r| {
            r.unwrap();
        });
        assert!(it.nodes_read() > 0);
        assert_eq!(it.cache_hits(), 0);
    }

    #[test]
    fn rect_objects_supported() {
        // The paper notes the method applies to arbitrarily-shaped objects:
        // index non-degenerate rectangles.
        let tree = small_tree();
        for i in 0..12u64 {
            let r = Rect::from_corners(
                Point::new([i as f64, 0.0]),
                Point::new([i as f64 + 2.5, 4.0]),
            );
            tree.insert(i, r, &[]).unwrap();
        }
        assert_eq!(tree.check_invariants(|_, _, _| true).unwrap(), 12);
    }

    #[test]
    fn three_dimensional_tree() {
        let tree: RTree<3, _, _> =
            RTree::create(MemDevice::new(), RTreeConfig::with_max(4), UnitPayload).unwrap();
        for i in 0..25u64 {
            let p = Point::new([i as f64, (i * 2 % 7) as f64, (i % 3) as f64]);
            tree.insert(i, Rect::from_point(p), &[]).unwrap();
        }
        assert_eq!(tree.check_invariants(|_, _, _| true).unwrap(), 25);
    }
}
