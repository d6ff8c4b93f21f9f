//! Signature payload strategies for the augmented R-Tree.

use std::any::Any;
use std::sync::Arc;

use ir2_model::{ObjPtr, ObjectSource};
use ir2_rtree::PayloadOps;
use ir2_sigfile::{MultiLevelScheme, SignatureBlock, SignatureScheme};
use ir2_text::tokenize;

/// A [`PayloadOps`] whose payloads are signatures, exposing the per-level
/// scheme so the query algorithms can build matching query signatures.
pub trait SigPayload: PayloadOps {
    /// The signature scheme of entries in a node at `level`.
    fn scheme_at(&self, level: u16) -> &SignatureScheme;

    /// The scheme applied to objects (leaf entries).
    fn leaf_scheme(&self) -> &SignatureScheme {
        self.scheme_at(0)
    }
}

/// The sliced form of signature payloads: the node's signatures under
/// `scheme`, bit-sliced. What both trees' [`PayloadOps::slice_payloads`]
/// box and `signature_mask_into` reads back.
fn signature_block(
    scheme: &SignatureScheme,
    entry_payloads: &mut dyn Iterator<Item = &[u8]>,
) -> Option<Box<dyn Any + Send + Sync>> {
    Some(Box::new(SignatureBlock::from_payloads(
        scheme.bits(),
        entry_payloads,
    )))
}

/// `acc |= other`, eight bytes at a time.
fn or_bytes(acc: &mut [u8], other: &[u8]) {
    assert_eq!(acc.len(), other.len(), "signature payload length mismatch");
    let mut acc_words = acc.chunks_exact_mut(8);
    let mut other_words = other.chunks_exact(8);
    for (a, b) in acc_words.by_ref().zip(other_words.by_ref()) {
        let word = u64::from_ne_bytes((&*a).try_into().expect("8 bytes"))
            | u64::from_ne_bytes(b.try_into().expect("8 bytes"));
        a.copy_from_slice(&word.to_ne_bytes());
    }
    for (a, b) in acc_words
        .into_remainder()
        .iter_mut()
        .zip(other_words.remainder())
    {
        *a |= b;
    }
}

// ---------------------------------------------------------------------
// IR²-Tree: one scheme everywhere.
// ---------------------------------------------------------------------

/// Payloads of the plain IR²-Tree: every level shares one signature scheme,
/// so "the signature of a node is the superimposition (OR-ing) of all the
/// signatures of its entries" — maintenance costs no object accesses beyond
/// the R-Tree's own work.
#[derive(Debug, Clone)]
pub struct Ir2Payload {
    scheme: SignatureScheme,
}

impl Ir2Payload {
    /// Creates the payload strategy from the tree's signature scheme.
    pub fn new(scheme: SignatureScheme) -> Self {
        Self { scheme }
    }
}

impl SigPayload for Ir2Payload {
    fn scheme_at(&self, _level: u16) -> &SignatureScheme {
        &self.scheme
    }
}

impl PayloadOps for Ir2Payload {
    fn entry_size(&self, _node_level: u16) -> usize {
        self.scheme.byte_len()
    }

    fn merge(&self, _node_level: u16, acc: &mut [u8], other: &[u8]) {
        or_bytes(acc, other);
    }

    fn summarize_entries(
        &self,
        _node_level: u16,
        entry_payloads: &mut dyn Iterator<Item = &[u8]>,
    ) -> Option<Vec<u8>> {
        let mut acc = vec![0u8; self.scheme.byte_len()];
        for p in entry_payloads {
            or_bytes(&mut acc, p);
        }
        Some(acc)
    }

    fn summarize_objects(
        &self,
        _parent_level: u16,
        _objects: &mut dyn Iterator<Item = u64>,
    ) -> Vec<u8> {
        unreachable!("Ir2Payload summaries always fold from entries")
    }

    fn lift_object(&self, _child: u64, leaf_payload: &[u8], _node_level: u16) -> Vec<u8> {
        leaf_payload.to_vec()
    }

    fn slice_payloads(
        &self,
        _node_level: u16,
        entry_payloads: &mut dyn Iterator<Item = &[u8]>,
    ) -> Option<Box<dyn Any + Send + Sync>> {
        signature_block(&self.scheme, entry_payloads)
    }
}

// ---------------------------------------------------------------------
// MIR²-Tree: a scheme per level.
// ---------------------------------------------------------------------

/// Payloads of the MIR²-Tree: per-level signature schemes (multi-level
/// superimposed coding). A node's signature superimposes the signatures of
/// **all objects in its subtree** under its own level's scheme, so
/// summaries across level boundaries cannot fold from children — they
/// re-access the underlying objects through the [`ObjectSource`], which is
/// "expensive to maintain" exactly as Section 4 warns.
///
/// Deviation noted in `DESIGN.md`: on the pure-insert path the new
/// object's lifted signature is OR-ed into each ancestor (mathematically
/// identical to recomputation, since superimposition is monotone); full
/// recomputation happens on splits, deletions, and whenever
/// `strict_paper_maintenance` is set (the paper's literal rule, measured by
/// the maintenance ablation).
pub struct MirPayload<const N: usize> {
    schemes: MultiLevelScheme,
    objects: Arc<dyn ObjectSource<N>>,
    strict: bool,
}

impl<const N: usize> MirPayload<N> {
    /// Creates the strategy from the per-level schemes and the object file
    /// that signature recomputation reads.
    pub fn new(schemes: MultiLevelScheme, objects: Arc<dyn ObjectSource<N>>) -> Self {
        Self {
            schemes,
            objects,
            strict: false,
        }
    }

    /// Enables the paper's literal maintenance rule: every insert
    /// recomputes all ancestor signatures from the underlying objects.
    pub fn strict(mut self) -> Self {
        self.strict = true;
        self
    }

    /// The per-level scheme ladder.
    pub fn schemes(&self) -> &MultiLevelScheme {
        &self.schemes
    }

    /// Re-accesses object `child` and superimposes its signature under
    /// `level`'s scheme onto `acc`, in place. Returns whether the object
    /// loaded.
    ///
    /// Object loads may fail only on a corrupt store; signatures must stay
    /// conservative rather than lose bits, so a failed load leaves `acc`
    /// all-ones — a summary that can never cause a false negative, and
    /// that no further object can add to.
    fn sign_object_into(&self, child: u64, level: u16, acc: &mut [u8]) -> bool {
        match self.objects.load(ObjPtr(child)) {
            Ok(obj) => {
                self.schemes
                    .scheme(level)
                    .sign_into(acc, tokenize(&obj.text));
                true
            }
            Err(_) => {
                acc.fill(0xFF);
                false
            }
        }
    }
}

impl<const N: usize> SigPayload for MirPayload<N> {
    fn scheme_at(&self, level: u16) -> &SignatureScheme {
        self.schemes.scheme(level)
    }
}

impl<const N: usize> PayloadOps for MirPayload<N> {
    fn entry_size(&self, node_level: u16) -> usize {
        self.schemes.scheme(node_level).byte_len()
    }

    fn merge(&self, _node_level: u16, acc: &mut [u8], other: &[u8]) {
        or_bytes(acc, other);
    }

    fn summarize_entries(
        &self,
        node_level: u16,
        entry_payloads: &mut dyn Iterator<Item = &[u8]>,
    ) -> Option<Vec<u8>> {
        // Folding child payloads is only valid when both levels use the
        // same scheme (the saturated top of the ladder).
        if self.schemes.scheme(node_level) != self.schemes.scheme(node_level + 1) {
            return None;
        }
        let mut acc = vec![0u8; self.schemes.scheme(node_level + 1).byte_len()];
        for p in entry_payloads {
            or_bytes(&mut acc, p);
        }
        Some(acc)
    }

    fn summarize_objects(
        &self,
        parent_level: u16,
        objects: &mut dyn Iterator<Item = u64>,
    ) -> Vec<u8> {
        let mut acc = vec![0u8; self.entry_size(parent_level)];
        for child in objects {
            if !self.sign_object_into(child, parent_level, &mut acc) {
                break;
            }
        }
        acc
    }

    fn lift_object(&self, child: u64, leaf_payload: &[u8], node_level: u16) -> Vec<u8> {
        if self.schemes.scheme(node_level) == self.schemes.scheme(0) {
            return leaf_payload.to_vec();
        }
        let mut out = vec![0u8; self.entry_size(node_level)];
        self.sign_object_into(child, node_level, &mut out);
        out
    }

    fn strict_maintenance(&self) -> bool {
        self.strict
    }

    fn slice_payloads(
        &self,
        node_level: u16,
        entry_payloads: &mut dyn Iterator<Item = &[u8]>,
    ) -> Option<Box<dyn Any + Send + Sync>> {
        signature_block(self.schemes.scheme(node_level), entry_payloads)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ir2_model::{ObjectStore, SpatialObject};
    use ir2_sigfile::Signature;
    use ir2_storage::MemDevice;

    #[test]
    fn ir2_summary_is_superimposition() {
        let scheme = SignatureScheme::new(64, 3, 1);
        let ops = Ir2Payload::new(scheme);
        let a = scheme.sign_term("alpha");
        let b = scheme.sign_term("beta");
        let mut ab = vec![0u8; 8];
        a.write_bytes(&mut ab);
        let mut bb = vec![0u8; 8];
        b.write_bytes(&mut bb);
        let sum = ops
            .summarize_entries(0, &mut [ab.as_slice(), bb.as_slice()].into_iter())
            .unwrap();
        let sig = Signature::from_bytes(64, &sum);
        assert!(sig.contains(&a));
        assert!(sig.contains(&b));
    }

    fn mir_fixture() -> (MirPayload<2>, Vec<u64>) {
        let store = Arc::new(ObjectStore::<2, _>::create(MemDevice::new()));
        let texts = ["internet pool", "spa sauna", "golf pets"];
        let mut ptrs = Vec::new();
        for (i, t) in texts.iter().enumerate() {
            let ptr = store
                .append(&SpatialObject::new(i as u64, [0.0, 0.0], *t))
                .unwrap();
            ptrs.push(ptr.0);
        }
        let schemes = MultiLevelScheme::new(4, 3, 7, 4, 2.0, 100);
        (MirPayload::new(schemes, store), ptrs)
    }

    #[test]
    fn mir_entry_sizes_grow_with_level() {
        let (ops, _) = mir_fixture();
        assert_eq!(ops.entry_size(0), 4);
        assert!(ops.entry_size(3) >= ops.entry_size(1));
        assert!(ops.entry_size(1) > ops.entry_size(0));
    }

    #[test]
    fn mir_cannot_fold_across_growing_levels() {
        let (ops, _) = mir_fixture();
        assert!(ops.summarize_entries(0, &mut std::iter::empty()).is_none());
    }

    #[test]
    fn mir_summarize_objects_contains_every_objects_terms() {
        let (ops, ptrs) = mir_fixture();
        for level in 1..4u16 {
            let scheme = *ops.scheme_at(level);
            let sum = ops.summarize_objects(level, &mut ptrs.clone().into_iter());
            let sig = Signature::from_bytes(scheme.bits(), &sum);
            for term in ["internet", "pool", "spa", "sauna", "golf", "pets"] {
                assert!(
                    sig.contains(&scheme.sign_term(term)),
                    "level {level} term {term}"
                );
            }
        }
    }

    #[test]
    fn mir_lift_matches_summarize_for_single_object() {
        let (ops, ptrs) = mir_fixture();
        let leaf = ops.summarize_objects(0, &mut std::iter::once(ptrs[0]));
        for level in 0..4u16 {
            let lifted = ops.lift_object(ptrs[0], &leaf, level);
            let summed = ops.summarize_objects(level, &mut std::iter::once(ptrs[0]));
            assert_eq!(lifted, summed, "level {level}");
        }
    }

    #[test]
    fn mir_missing_object_degrades_conservatively() {
        let (ops, _) = mir_fixture();
        // A dangling pointer must produce an all-ones signature, never a
        // false negative.
        let sig = ops.lift_object(999_999, &[0u8; 4], 1);
        assert!(sig.iter().all(|&b| b == 0xFF));
    }

    #[test]
    fn mir_summary_is_the_or_of_per_object_signatures_at_every_level() {
        let (ops, ptrs) = mir_fixture();
        let texts = ["internet pool", "spa sauna", "golf pets"];
        for level in 0..4u16 {
            let scheme = *ops.scheme_at(level);
            let mut union = scheme.empty();
            for text in texts {
                union.or_assign(&scheme.sign_terms(text.split(' ')));
            }
            let mut expected = vec![0u8; scheme.byte_len()];
            union.write_bytes(&mut expected);
            let sum = ops.summarize_objects(level, &mut ptrs.clone().into_iter());
            assert_eq!(sum, expected, "level {level}");
        }
    }

    #[test]
    fn mir_summary_stays_all_ones_after_one_failed_load() {
        let (ops, ptrs) = mir_fixture();
        for level in 0..4u16 {
            for at in 0..=ptrs.len() {
                let mut objects = ptrs.clone();
                objects.insert(at, 999_999);
                let sum = ops.summarize_objects(level, &mut objects.into_iter());
                assert!(sum.iter().all(|&b| b == 0xFF), "level {level}, bad at {at}");
            }
        }
    }

    #[test]
    fn or_bytes_matches_the_byte_loop_at_every_length() {
        for len in 0..40usize {
            let a: Vec<u8> = (0..len).map(|i| (i * 37 + 5) as u8).collect();
            let b: Vec<u8> = (0..len).map(|i| (i * 101 + 9) as u8).collect();
            let expected: Vec<u8> = a.iter().zip(&b).map(|(x, y)| x | y).collect();
            let mut acc = a.clone();
            or_bytes(&mut acc, &b);
            assert_eq!(acc, expected, "len {len}");
        }
    }

    #[test]
    fn strict_flag_round_trips() {
        let (ops, _) = mir_fixture();
        assert!(!ops.strict_maintenance());
        let strict = ops.strict();
        assert!(strict.strict_maintenance());
    }
}
