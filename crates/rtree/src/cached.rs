//! Decoded-node caching: the [`CachedNode`] wrapper shared out of a
//! [`DecodedCache`], plus the node-cache type alias used by the tree.
//!
//! A warm traversal repeatedly pays three costs per visited node: the
//! block reads, the per-block CRC verification, and the entry
//! deserialization. Caching the *decoded* node behind an `Arc` eliminates
//! all three on a hit. The wrapped image is an arena-backed [`NodeBuf`] —
//! one allocation for the whole extent, entries served by offset — so even
//! the cold decode allocates nothing per entry. The wrapper additionally
//! carries a lazily-built, type-erased decoration slot so higher layers
//! (the IR²-Tree) can attach derived per-node data — e.g. entry payloads
//! transposed into a bit-sliced `SignatureBlock` — and have it cached with
//! the same lifetime and invalidation as the node itself.

use std::any::Any;
use std::ops::Deref;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::OnceLock;

use ir2_storage::DecodedCache;

use crate::node::NodeBuf;

/// A decoded node plus one lazily-initialized decoration and a count of
/// the cache hits the image has served.
///
/// Dereferences to the wrapped [`NodeBuf`], so cached and uncached code
/// paths read entries identically. The decoration slot is written at most
/// once (first caller wins); all users of a given tree must therefore agree
/// on a single decoration type — the slot is keyed by the node, not the
/// type.
pub struct CachedNode<const N: usize> {
    node: NodeBuf<N>,
    deco: OnceLock<Box<dyn Any + Send + Sync>>,
    hits: AtomicU32,
}

impl<const N: usize> CachedNode<N> {
    /// Wraps a freshly decoded node.
    pub fn new(node: NodeBuf<N>) -> Self {
        Self {
            node,
            deco: OnceLock::new(),
            hits: AtomicU32::new(0),
        }
    }

    /// The wrapped node image.
    pub fn node(&self) -> &NodeBuf<N> {
        &self.node
    }

    /// Returns the decoration, building it on first access.
    ///
    /// # Panics
    /// Panics if a decoration of a *different* type was installed earlier —
    /// a programming error, since the slot holds one value per node.
    pub fn decorations<T, F>(&self, build: F) -> &T
    where
        T: Send + Sync + 'static,
        F: FnOnce(&NodeBuf<N>) -> T,
    {
        self.deco
            .get_or_init(|| Box::new(build(&self.node)))
            .downcast_ref::<T>()
            .expect("conflicting decoration types on one cached node")
    }

    /// How many times this image has been served from the node cache (0
    /// for an image that never went through one). A decoration that costs
    /// more to build than one visit saves can wait for this to show reuse.
    pub fn hits(&self) -> u32 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Records one more cache hit on this image. A statistic: it orders
    /// nothing, so `Relaxed`.
    pub(crate) fn count_hit(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
    }

    /// True once a decoration has been built for this node image.
    pub fn is_decorated(&self) -> bool {
        self.deco.get().is_some()
    }
}

impl<const N: usize> Deref for CachedNode<N> {
    type Target = NodeBuf<N>;

    fn deref(&self) -> &NodeBuf<N> {
        &self.node
    }
}

impl<const N: usize> std::fmt::Debug for CachedNode<N> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CachedNode")
            .field("node", &self.node)
            .field("decorated", &self.is_decorated())
            .finish()
    }
}

/// A decoded-node cache for trees over `N`-dimensional rectangles, keyed
/// by node id (the first block of the node's extent).
pub type NodeCache<const N: usize> = DecodedCache<CachedNode<N>>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::Node;
    use ir2_geo::{Point, Rect};

    fn leaf() -> NodeBuf<2> {
        let mut n = Node::new(7, 0);
        n.entries.push(crate::node::Entry::new(
            1,
            Rect::from_point(Point::new([1.0, 2.0])),
            vec![0xAB, 0xCD],
        ));
        NodeBuf::decode(n.id, n.encode(2, 1), 2).unwrap()
    }

    #[test]
    fn derefs_to_the_node() {
        let c = CachedNode::new(leaf());
        assert!(c.is_leaf());
        assert_eq!(c.id(), 7);
        assert_eq!(c.node().len(), 1);
        assert_eq!(c.payload(0), &[0xAB, 0xCD]);
    }

    #[test]
    fn decoration_builds_once_and_is_shared() {
        let c = CachedNode::new(leaf());
        let mut builds = 0;
        let first: &Vec<u8> = c.decorations(|n| {
            builds += 1;
            n.payload(0).to_vec()
        });
        assert_eq!(first, &vec![0xAB, 0xCD]);
        let again: &Vec<u8> = c.decorations(|_| {
            builds += 1;
            vec![]
        });
        assert_eq!(again, &vec![0xAB, 0xCD], "second build must not run");
        assert_eq!(builds, 1);
        assert!(c.is_decorated());
        let fresh = CachedNode::new(leaf());
        assert!(!fresh.is_decorated());
        assert_eq!(fresh.hits(), 0);
        fresh.count_hit();
        assert_eq!(fresh.hits(), 1);
    }

    #[test]
    #[should_panic(expected = "conflicting decoration types")]
    fn conflicting_decoration_types_panic() {
        let c = CachedNode::new(leaf());
        let _: &u32 = c.decorations(|_| 5u32);
        let _: &String = c.decorations(|_| String::new());
    }
}
