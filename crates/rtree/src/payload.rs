//! Per-entry payload strategies.

use std::any::Any;

/// Strategy describing the extra bytes every tree entry carries and how
/// they are maintained.
///
/// The R-Tree calls these hooks at exactly the points where the paper's
/// Insert/Delete "also maintain the signatures of the modified nodes":
///
/// * a **merge** when an object's contribution is OR-ed into an ancestor
///   entry on the insert path (AdjustTree);
/// * a **summary** when an entry must describe a whole node afresh — after
///   a split, after a deletion shrinks a node, or during bulk loading.
///
/// Implementations: [`UnitPayload`] (plain R-Tree, zero bytes), the
/// IR²-Tree's uniform signatures and the MIR²-Tree's per-level signatures
/// (both in the `ir2-irtree` crate).
///
/// `node_level` is the level of the node *containing* the entry: leaf nodes
/// are level 0 (their entries describe objects), a node at level `ℓ ≥ 1`
/// has entries describing child nodes at level `ℓ − 1`.
pub trait PayloadOps: Send + Sync {
    /// Byte length of entry payloads in a node at `node_level`.
    fn entry_size(&self, node_level: u16) -> usize;

    /// Merges `other` into `acc`; both are payloads of entries at
    /// `node_level` (signature superimposition; no-op for unit payloads).
    fn merge(&self, node_level: u16, acc: &mut [u8], other: &[u8]);

    /// Computes the payload of a parent entry (stored at `node_level + 1`)
    /// summarizing a node at `node_level`, from that node's entry payloads.
    ///
    /// Returns `None` when the summary cannot be derived from entry
    /// payloads — the MIR²-Tree across level boundaries, where each level
    /// uses a different signature scheme — in which case the tree falls
    /// back to [`summarize_objects`](PayloadOps::summarize_objects),
    /// re-accessing the subtree's objects (the maintenance cost Section 4
    /// attributes to the MIR²-Tree).
    fn summarize_entries(
        &self,
        node_level: u16,
        entry_payloads: &mut dyn Iterator<Item = &[u8]>,
    ) -> Option<Vec<u8>>;

    /// Computes a parent-entry payload (stored at `parent_level`) for a
    /// subtree from the subtree's object references (leaf-entry `child`
    /// values). Only called when `summarize_entries` returned `None`.
    fn summarize_objects(
        &self,
        parent_level: u16,
        objects: &mut dyn Iterator<Item = u64>,
    ) -> Vec<u8>;

    /// Payload at `node_level` for a single object whose leaf payload is
    /// `leaf_payload` (used to fold an insert up the tree, and to reinsert
    /// entries during CondenseTree). Implementations whose levels share one
    /// scheme return the leaf payload unchanged; multi-level schemes
    /// re-derive it (possibly loading the object).
    fn lift_object(&self, child: u64, leaf_payload: &[u8], node_level: u16) -> Vec<u8>;

    /// When true, the tree recomputes ancestor summaries on *every* insert
    /// instead of merging the object's lifted payload — the paper's literal
    /// description of MIR²-Tree maintenance ("for each object inserted or
    /// deleted, we have to recompute the signatures of all ancestor nodes by
    /// accessing all underlying objects"). Costly; used by the maintenance
    /// ablation.
    fn strict_maintenance(&self) -> bool {
        false
    }

    /// The one form in which a node image held by the decoded-node cache
    /// keeps the entry payloads of a node at `node_level` — for signature
    /// payloads the bit-sliced block every visit is tested through. The
    /// tree calls this once per cache miss, on the checksum-verified page,
    /// and the image then drops the page's payload bytes: it holds its
    /// signatures once. `None` (the default, and all a payload-free tree
    /// needs) keeps the page itself as the image. Never called on a tree
    /// without a cache, whose visits test payloads where they lie.
    ///
    /// Type-erased because this crate knows payloads only as bytes; the
    /// layer that implements this is the one that reads it back
    /// ([`CachedNode::sliced`](crate::CachedNode::sliced)).
    fn slice_payloads(
        &self,
        _node_level: u16,
        _entry_payloads: &mut dyn Iterator<Item = &[u8]>,
    ) -> Option<Box<dyn Any + Send + Sync>> {
        None
    }
}

/// The zero-byte payload: turns the augmented tree into a plain R-Tree.
#[derive(Debug, Clone, Copy, Default)]
pub struct UnitPayload;

impl PayloadOps for UnitPayload {
    fn entry_size(&self, _node_level: u16) -> usize {
        0
    }

    fn merge(&self, _node_level: u16, _acc: &mut [u8], _other: &[u8]) {}

    fn summarize_entries(
        &self,
        _node_level: u16,
        _entry_payloads: &mut dyn Iterator<Item = &[u8]>,
    ) -> Option<Vec<u8>> {
        Some(Vec::new())
    }

    fn summarize_objects(
        &self,
        _parent_level: u16,
        _objects: &mut dyn Iterator<Item = u64>,
    ) -> Vec<u8> {
        Vec::new()
    }

    fn lift_object(&self, _child: u64, _leaf_payload: &[u8], _node_level: u16) -> Vec<u8> {
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_payload_is_empty_everywhere() {
        let p = UnitPayload;
        assert_eq!(p.entry_size(0), 0);
        assert_eq!(p.entry_size(7), 0);
        assert_eq!(
            p.summarize_entries(0, &mut std::iter::empty()),
            Some(vec![])
        );
        assert_eq!(p.summarize_objects(1, &mut std::iter::empty()), vec![]);
        assert_eq!(p.lift_object(1, &[], 3), vec![]);
        assert!(!p.strict_maintenance());
        assert!(p.slice_payloads(0, &mut std::iter::empty()).is_none());
    }
}
