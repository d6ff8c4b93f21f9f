//! The decoded-node cache: the [`CachedNode`] image, the per-tree
//! [`NodeCache`] of images, and the [`NodeReader`] every search reads its
//! nodes through.
//!
//! A warm traversal would otherwise pay, for every visited node, the block
//! reads, the per-block CRC verification and the entry decode. A cached
//! image pays none of the three.
//!
//! An image has one of two forms, and in either holds its entries'
//! payloads **once**:
//!
//! * the **page** — an arena-backed [`NodeBuf`], entries served by offset,
//!   payloads tested where they lie. What a search reads a node no image
//!   serves into (its own reusable buffer; nothing is built for it), and
//!   what a cache keeps when the payload scheme has no sliced form (a plain
//!   R-Tree);
//! * **sliced** — child references and rectangles decoded into one array,
//!   and the payloads only in the form [`PayloadOps::slice_payloads`] gave
//!   them (the IR²-Tree's bit-sliced `SignatureBlock`). No page bytes are
//!   kept: an image lives across commits, so nearly every one is read again
//!   and again, and one that kept the page beside the block would carry
//!   every signature twice.
//!
//! A sliced image has no payload bytes to hand out, so the image type has
//! no payload accessor at all: a caller asks for [`CachedNode::sliced`] and
//! falls back to [`CachedNode::page`], and one of the two is always there.
//!
//! # One image table per commit
//!
//! A [`NodeCache`] holds one **image table**: a slot per block id of the
//! tree's device, each filled at most once, with the image of the node
//! whose extent starts there. The tree publishes a new table when the cache
//! is attached, after a bulk load, and at every commit; between two
//! publications slots are only filled, never emptied, and nothing is
//! evicted. A commit's table is the previous one minus the images of every
//! extent the commit wrote or freed. Copy-on-write leaves the bytes of
//! every other extent alone, so each image that stays describes its node
//! in the committed tree exactly.
//!
//! A search opens a [`NodeReader`] ([`RTree::reader`]), which takes the
//! tree's root and the current table together, under the tree's metadata
//! lock, so the two belong to one commit. Every node of the search is read
//! from that table. A hit is a plain load of the slot: no lock, no hash, no
//! reference count and no shared counter is written. A miss reads the node
//! into the reader's own page and, while fewer than the cache's capacity
//! of images are resident in the table, installs its image there;
//! otherwise the page is tested in place and nothing is built.
//!
//! So the node path needs no epoch and no stale-install rule. A search
//! installs only into the table it took, and fills it only with nodes of
//! that table's commit. The bytes of such a node change only when a later
//! commit frees its extent and a still later one writes it again. By then
//! the table has been replaced, and the replacement never copies what a
//! reader installs into its predecessor afterwards. A search still running
//! on a replaced table finishes on it, and the table is freed with the last
//! reader that holds it.
//!
//! The table counts misses and the images commits dropped (`invalidated`);
//! a reader tallies its hits and adds them to the cache once, when it is
//! dropped — once per query, never once per visit.
//!
//! [`RTree::reader`]: crate::RTree::reader

use std::any::Any;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use ir2_geo::Rect;
use ir2_storage::{BlockDevice, Result};
use parking_lot::Mutex;

use crate::node::{NodeBuf, NodeId};
use crate::{PayloadOps, RTree};

/// A decoded node image: what a [`NodeReader`] serves and a [`NodeCache`]
/// holds. See the module docs for its two forms.
pub struct CachedNode<const N: usize>(Form<N>);

enum Form<const N: usize> {
    Page(NodeBuf<N>),
    Sliced {
        id: NodeId,
        level: u16,
        /// `(child, rect)` per entry, in entry order.
        entries: Box<[(u64, Rect<N>)]>,
        payloads: Box<dyn Any + Send + Sync>,
    },
}

impl<const N: usize> CachedNode<N> {
    /// The page itself as the image; nothing is built.
    pub fn new(page: NodeBuf<N>) -> Self {
        Self(Form::Page(page))
    }

    /// The image a node cache keeps of `page`: sliced by `ops` when its
    /// payloads have a sliced form, a copy of the page otherwise — exactly
    /// its bytes, whatever the capacity of the search's buffer it was read
    /// into, which stays the search's.
    pub fn sliced_by<P: PayloadOps + ?Sized>(page: &NodeBuf<N>, ops: &P) -> Self {
        match ops.slice_payloads(page.level(), &mut page.payloads()) {
            Some(payloads) => Self(Form::Sliced {
                id: page.id(),
                level: page.level(),
                entries: (0..page.len())
                    .map(|i| (page.child(i), page.rect(i)))
                    .collect(),
                payloads,
            }),
            None => Self::new(page.clone()),
        }
    }

    /// The page, for an image that kept it: payloads are tested in place.
    pub fn page(&self) -> Option<&NodeBuf<N>> {
        match &self.0 {
            Form::Page(page) => Some(page),
            Form::Sliced { .. } => None,
        }
    }

    /// The page back out of an image that kept it.
    pub fn into_page(self) -> Option<NodeBuf<N>> {
        match self.0 {
            Form::Page(page) => Some(page),
            Form::Sliced { .. } => None,
        }
    }

    /// The sliced payloads, for an image that dropped its page. `T` is the
    /// type the tree's [`PayloadOps::slice_payloads`] boxes; asking for
    /// another gives `None`.
    pub fn sliced<T: 'static>(&self) -> Option<&T> {
        match &self.0 {
            Form::Page(_) => None,
            Form::Sliced { payloads, .. } => payloads.downcast_ref(),
        }
    }

    /// First block of the node's extent.
    #[inline]
    pub fn id(&self) -> NodeId {
        match &self.0 {
            Form::Page(page) => page.id(),
            Form::Sliced { id, .. } => *id,
        }
    }

    /// 0 for leaves; parents of level-`ℓ` nodes are level `ℓ + 1`.
    #[inline]
    pub fn level(&self) -> u16 {
        match &self.0 {
            Form::Page(page) => page.level(),
            Form::Sliced { level, .. } => *level,
        }
    }

    /// True for leaf nodes.
    #[inline]
    pub fn is_leaf(&self) -> bool {
        self.level() == 0
    }

    /// Number of entries.
    #[inline]
    pub fn len(&self) -> usize {
        match &self.0 {
            Form::Page(page) => page.len(),
            Form::Sliced { entries, .. } => entries.len(),
        }
    }

    /// True if the node has no entries (only a never-written root).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Object pointer (leaf) or child node id (internal) of entry `i`.
    ///
    /// # Panics
    /// Panics if `i >= len()`.
    #[inline]
    pub fn child(&self, i: usize) -> u64 {
        match &self.0 {
            Form::Page(page) => page.child(i),
            Form::Sliced { entries, .. } => entries[i].0,
        }
    }

    /// MBR of entry `i`.
    ///
    /// # Panics
    /// Panics if `i >= len()`.
    #[inline]
    pub fn rect(&self, i: usize) -> Rect<N> {
        match &self.0 {
            Form::Page(page) => page.rect(i),
            Form::Sliced { entries, .. } => entries[i].1,
        }
    }

    /// Iterates all child references in entry order.
    pub fn children(&self) -> impl Iterator<Item = u64> + '_ {
        (0..self.len()).map(|i| self.child(i))
    }

    /// The bounding rectangle of all entries.
    ///
    /// # Panics
    /// Panics if the node has no entries.
    pub fn mbr(&self) -> Rect<N> {
        assert!(!self.is_empty(), "mbr of empty node");
        (1..self.len()).fold(self.rect(0), |acc, i| acc.union(&self.rect(i)))
    }
}

impl<const N: usize> std::fmt::Debug for CachedNode<N> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CachedNode")
            .field("id", &self.id())
            .field("level", &self.level())
            .field("len", &self.len())
            .field("sliced", &self.page().is_none())
            .finish()
    }
}

/// One commit's images: a slot per block id of the tree's device, each
/// filled at most once (module docs).
struct ImageTable<const N: usize> {
    slots: Box<[OnceLock<Arc<CachedNode<N>>>]>,
    /// Filled slots, never more than the cache's capacity.
    resident: AtomicUsize,
}

impl<const N: usize> ImageTable<N> {
    fn empty(slots: usize) -> Self {
        Self {
            slots: (0..slots).map(|_| OnceLock::new()).collect(),
            resident: AtomicUsize::new(0),
        }
    }

    /// The image in `id`'s slot, if one is installed.
    #[inline]
    fn get(&self, id: NodeId) -> Option<&Arc<CachedNode<N>>> {
        self.slots.get(usize::try_from(id).ok()?)?.get()
    }

    /// Reserves room for `id`'s image: false when `id` has no slot or
    /// `capacity` images are resident already.
    fn admit(&self, id: NodeId, capacity: usize) -> bool {
        usize::try_from(id).is_ok_and(|i| i < self.slots.len())
            && self
                .resident
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| {
                    (n < capacity).then_some(n + 1)
                })
                .is_ok()
    }

    /// Fills `id`'s slot, reserved by [`admit`](Self::admit), and returns
    /// the image it holds: `image`, or the one a reader that read the same
    /// node installed first (which returns the reservation).
    fn install(&self, id: NodeId, image: Arc<CachedNode<N>>) -> &Arc<CachedNode<N>> {
        let slot = &self.slots[id as usize];
        if slot.set(image).is_err() {
            self.resident.fetch_sub(1, Ordering::Relaxed);
        }
        slot.get().expect("the slot was filled above")
    }
}

/// A decoded-node cache for one tree over `N`-dimensional rectangles: the
/// image table of the tree's last commit, keyed by node id (the first
/// block of the node's extent). See the module docs.
pub struct NodeCache<const N: usize> {
    capacity: usize,
    current: Mutex<Arc<ImageTable<N>>>,
    /// Tables published so far.
    published: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    invalidated: AtomicU64,
}

impl<const N: usize> NodeCache<N> {
    /// A cache that holds at most `capacity` images (0: none). It has no
    /// slots until a tree attaches it ([`RTree::set_node_cache`]).
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity,
            current: Mutex::new(Arc::new(ImageTable::empty(0))),
            published: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            invalidated: AtomicU64::new(0),
        }
    }

    /// Images resident in the current table.
    pub fn len(&self) -> usize {
        self.current.lock().resident.load(Ordering::Relaxed)
    }

    /// Whether the current table holds no image.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The current table's image of node `id`, if it has one. A probe:
    /// nothing is counted and nothing installed.
    pub fn get(&self, id: NodeId) -> Option<Arc<CachedNode<N>>> {
        self.snapshot().get(id).cloned()
    }

    /// How many tables have been published: one when the cache was
    /// attached, then one per commit, bulk load and [`clear`](Self::clear).
    pub fn epoch(&self) -> u64 {
        self.published.load(Ordering::Relaxed)
    }

    /// Images commits dropped so far: per commit, those of the extents it
    /// wrote or freed that were resident.
    pub fn invalidated(&self) -> u64 {
        self.invalidated.load(Ordering::Relaxed)
    }

    /// `(hits, misses)` so far. Misses are counted as they happen; a
    /// search adds its hits when its reader is dropped.
    pub fn hit_stats(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }

    /// Publishes an empty table with as many slots as the current one. A
    /// search already open keeps reading the table it took.
    pub fn clear(&self) {
        let slots = self.current.lock().slots.len();
        self.restart(slots as u64);
    }

    fn snapshot(&self) -> Arc<ImageTable<N>> {
        Arc::clone(&self.current.lock())
    }

    /// Publishes an empty table of `blocks` slots.
    pub(crate) fn restart(&self, blocks: u64) {
        *self.current.lock() = Arc::new(ImageTable::empty(blocks as usize));
        self.published.fetch_add(1, Ordering::Relaxed);
    }

    /// Publishes a commit's table: `blocks` slots (the device's size after
    /// the commit), holding the current table's images minus those of
    /// `dropped`, the extents the commit wrote or freed.
    pub(crate) fn publish(&self, blocks: u64, dropped: impl IntoIterator<Item = NodeId>) {
        let mut current = self.current.lock();
        let mut next = ImageTable::empty(blocks as usize);
        let mut kept = 0;
        for (slot, image) in next.slots.iter().zip(current.slots.iter()) {
            if let Some(image) = image.get() {
                let _ = slot.set(Arc::clone(image));
                kept += 1;
            }
        }
        let mut removed = 0;
        for id in dropped {
            if let Some(slot) = next.slots.get_mut(id as usize) {
                removed += usize::from(slot.take().is_some());
            }
        }
        *next.resident.get_mut() = kept - removed;
        *current = Arc::new(next);
        drop(current);
        self.published.fetch_add(1, Ordering::Relaxed);
        self.invalidated
            .fetch_add(removed as u64, Ordering::Relaxed);
    }
}

/// A search's way to its tree's nodes: the tree's root and image table as
/// of one commit, taken together when the reader opens
/// ([`RTree::reader`]), and the page a node no image serves is read into.
///
/// [`read`](Self::read) serves a node from the table when it can and from
/// the page otherwise. The page's buffer is reused by every read past the
/// table, so a search allocates no node buffer after its first — with no
/// cache, and with a cache too full to take the node. The hits the reader
/// served are added to the cache's count when it is dropped.
pub struct NodeReader<'a, const N: usize, D, P> {
    tree: &'a RTree<N, D, P>,
    root: Option<NodeId>,
    images: Option<(&'a NodeCache<N>, Arc<ImageTable<N>>)>,
    /// The last node read past the table, tested where it lies.
    page: Option<CachedNode<N>>,
    /// The page's buffer while no page holds it.
    buf: Vec<u8>,
    hits: u64,
}

impl<'a, const N: usize, D: BlockDevice, P: PayloadOps> NodeReader<'a, N, D, P> {
    pub(crate) fn open(
        tree: &'a RTree<N, D, P>,
        root: Option<NodeId>,
        cache: Option<&'a NodeCache<N>>,
    ) -> Self {
        Self {
            tree,
            root,
            images: cache.map(|cache| (cache, cache.snapshot())),
            page: None,
            buf: Vec::new(),
            hits: 0,
        }
    }

    /// The tree's root as of the reader's commit.
    pub fn root(&self) -> Option<NodeId> {
        self.root
    }

    /// The node at `id` and whether the table served it. A miss reads the
    /// node into the reader's page ([`RTree::read_node_into`]) and installs
    /// its image ([`CachedNode::sliced_by`] the tree's payload scheme) if
    /// the table still has room, serving that image; otherwise it serves
    /// the page, which the next miss reads over.
    #[inline]
    pub fn read(&mut self, id: NodeId) -> Result<(&CachedNode<N>, bool)> {
        if let Some(image) = self.images.as_ref().and_then(|(_, table)| table.get(id)) {
            self.hits += 1;
            return Ok((image, true));
        }
        let image = read_past(
            self.tree,
            self.images.as_ref(),
            &mut self.page,
            &mut self.buf,
            id,
        )?;
        Ok((image, false))
    }

    /// The image [`read`](Self::read) served last, for node `id`, as a
    /// shared value: the table's, or the page itself.
    pub(crate) fn into_shared(mut self, id: NodeId) -> Arc<CachedNode<N>> {
        match self.images.as_ref().and_then(|(_, table)| table.get(id)) {
            Some(image) => Arc::clone(image),
            None => Arc::new(self.page.take().expect("a node read past the table")),
        }
    }
}

/// A miss of [`NodeReader::read`]: the node read into the page, then
/// installed in the table while it has room. Kept out of line, so the
/// visit loop every hit runs does not grow by it.
#[inline(never)]
fn read_past<'r, const N: usize, D: BlockDevice, P: PayloadOps>(
    tree: &RTree<N, D, P>,
    images: Option<&'r (&NodeCache<N>, Arc<ImageTable<N>>)>,
    page: &'r mut Option<CachedNode<N>>,
    buf: &mut Vec<u8>,
    id: NodeId,
) -> Result<&'r CachedNode<N>> {
    if let Some(page) = page.take().and_then(CachedNode::into_page) {
        *buf = page.into_bytes();
    }
    let read = tree.read_node_into(id, buf)?;
    if let Some((cache, table)) = images {
        cache.misses.fetch_add(1, Ordering::Relaxed);
        if table.admit(id, cache.capacity) {
            let image = Arc::new(CachedNode::sliced_by(&read, tree.ops()));
            *buf = read.into_bytes();
            return Ok(table.install(id, image));
        }
    }
    Ok(page.insert(CachedNode::new(read)))
}

impl<const N: usize, D, P> Drop for NodeReader<'_, N, D, P> {
    fn drop(&mut self) {
        if let Some((cache, _)) = &self.images {
            if self.hits > 0 {
                cache.hits.fetch_add(self.hits, Ordering::Relaxed);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::UnitPayload;
    use ir2_geo::Point;

    fn node(level: u16, count: u64) -> NodeBuf<2> {
        let mut n = NodeBuf::empty(7, level, 2);
        for i in 0..count {
            let rect = Rect::from_point(Point::new([i as f64, 2.0]));
            n.push(100 + i, &rect, &[0xAB, i as u8]);
        }
        NodeBuf::decode(n.id(), n.encode(1).to_vec(), 2).unwrap()
    }

    /// Slices a node's payloads into an owned copy of each.
    struct Copying;

    impl PayloadOps for Copying {
        fn entry_size(&self, _node_level: u16) -> usize {
            2
        }

        fn merge(&self, _node_level: u16, _acc: &mut [u8], _other: &[u8]) {
            unreachable!("not a maintenance test")
        }

        fn summarize_entries(
            &self,
            _node_level: u16,
            _entry_payloads: &mut dyn Iterator<Item = &[u8]>,
        ) -> Option<Vec<u8>> {
            unreachable!("not a maintenance test")
        }

        fn summarize_objects(
            &self,
            _parent_level: u16,
            _objects: &mut dyn Iterator<Item = u64>,
        ) -> Vec<u8> {
            unreachable!("not a maintenance test")
        }

        fn lift_object(&self, _child: u64, _leaf_payload: &[u8], _node_level: u16) -> Vec<u8> {
            unreachable!("not a maintenance test")
        }

        fn slice_payloads(
            &self,
            node_level: u16,
            entry_payloads: &mut dyn Iterator<Item = &[u8]>,
        ) -> Option<Box<dyn Any + Send + Sync>> {
            let copies: Vec<Vec<u8>> = entry_payloads.map(<[u8]>::to_vec).collect();
            Some(Box::new((node_level, copies)))
        }
    }

    #[test]
    fn page_and_sliced_images_read_alike() {
        for (level, count) in [(0, 1), (0, 5), (3, 4), (1, 0)] {
            let page = node(level, count);
            let plain = CachedNode::new(page.clone());
            let kept = CachedNode::sliced_by(&page, &UnitPayload);
            let sliced = CachedNode::sliced_by(&page, &Copying);
            for image in [&plain, &kept, &sliced] {
                assert_eq!(image.id(), 7);
                assert_eq!(image.level(), level);
                assert_eq!(image.is_leaf(), level == 0);
                assert_eq!(image.len(), count as usize);
                assert_eq!(image.is_empty(), count == 0);
                for i in 0..page.len() {
                    assert_eq!(image.child(i), page.child(i));
                    assert_eq!(image.rect(i), page.rect(i));
                }
                assert!(image.children().eq(page.children()));
                if count > 0 {
                    assert_eq!(image.mbr(), page.mbr());
                }
            }
            // A scheme with no sliced form keeps the page; the other drops
            // it and holds the payloads in the sliced form alone.
            for image in [&plain, &kept] {
                assert_eq!(image.page().unwrap().payloads().count(), count as usize);
                assert!(image.sliced::<(u16, Vec<Vec<u8>>)>().is_none());
            }
            assert!(sliced.page().is_none());
            let (at, copies) = sliced.sliced::<(u16, Vec<Vec<u8>>)>().unwrap();
            assert_eq!(*at, level, "sliced under the node's own level");
            assert!(copies.iter().map(Vec::as_slice).eq(page.payloads()));
            assert!(sliced.sliced::<u32>().is_none(), "not what was boxed");
        }
    }
}
