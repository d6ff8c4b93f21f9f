//! Decoded-node caching: the [`CachedNode`] image shared out of a
//! [`DecodedCache`], plus the node-cache type alias used by the tree.
//!
//! A warm traversal repeatedly pays three costs per visited node: the
//! block reads, the per-block CRC verification, and the entry
//! deserialization. Caching the *decoded* node behind an `Arc` eliminates
//! all three on a hit.
//!
//! An image has one of two forms, and in either holds its entries'
//! payloads **once**:
//!
//! * the **page** — an arena-backed [`NodeBuf`], entries served by offset,
//!   payloads tested where they lie. What a tree without a cache hands
//!   each visit (nothing is built for a node read once), and what a cache
//!   keeps when the payload scheme has no sliced form (a plain R-Tree);
//! * **sliced** — child references and rectangles decoded into one array,
//!   and the payloads only in the form
//!   [`PayloadOps::slice_payloads`] gave them (the IR²-Tree's bit-sliced
//!   `SignatureBlock`). The page bytes are dropped: an image lives across
//!   commits now, so nearly every one is read again and again, and one that
//!   kept the page beside the block would carry every signature twice.
//!
//! A sliced image has no payload bytes to hand out, so the image type has
//! no payload accessor at all: a caller asks for [`CachedNode::sliced`] and
//! falls back to [`CachedNode::page`], and one of the two is always there.

use std::any::Any;

use ir2_geo::Rect;
use ir2_storage::DecodedCache;

use crate::node::{NodeBuf, NodeId};
use crate::PayloadOps;

/// A decoded node image: what [`RTree::read_node_cached`] returns and a
/// [`NodeCache`] holds. See the module docs for its two forms.
///
/// [`RTree::read_node_cached`]: crate::RTree::read_node_cached
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
    /// payloads have a sliced form, the page itself otherwise — shrunk to
    /// its bytes, since a page read into a search's buffer may carry the
    /// capacity of a larger node.
    pub fn sliced_by<P: PayloadOps + ?Sized>(mut page: NodeBuf<N>, ops: &P) -> Self {
        let payloads = ops.slice_payloads(page.level(), &mut page.payloads());
        match payloads {
            Some(payloads) => Self(Form::Sliced {
                id: page.id(),
                level: page.level(),
                entries: (0..page.len())
                    .map(|i| (page.child(i), page.rect(i)))
                    .collect(),
                payloads,
            }),
            None => {
                page.shrink_to_fit();
                Self::new(page)
            }
        }
    }

    /// The page, for an image that kept it: payloads are tested in place.
    pub fn page(&self) -> Option<&NodeBuf<N>> {
        match &self.0 {
            Form::Page(page) => Some(page),
            Form::Sliced { .. } => None,
        }
    }

    /// The page back out of an image that kept it — for a search without a
    /// node cache, whose buffer it is.
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

/// A decoded-node cache for trees over `N`-dimensional rectangles, keyed
/// by node id (the first block of the node's extent).
pub type NodeCache<const N: usize> = DecodedCache<CachedNode<N>>;

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
            let kept = CachedNode::sliced_by(page.clone(), &UnitPayload);
            let sliced = CachedNode::sliced_by(page.clone(), &Copying);
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
