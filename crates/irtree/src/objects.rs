//! Object-level maintenance: tokenize a document, sign it, and keep the
//! tree's signatures consistent — the paper's `Insert(ObjPtr, MBR, S)` and
//! `Delete` at the level a user of the index thinks in.

use ir2_geo::Rect;
use ir2_model::{ObjPtr, SpatialObject};
use ir2_rtree::RTree;
use ir2_storage::{BlockDevice, Result};
use ir2_text::tokenize;

use crate::SigPayload;

/// The leaf signature bytes for an object under the tree's leaf scheme.
fn leaf_signature<const N: usize, D: BlockDevice, P: SigPayload>(
    tree: &RTree<N, D, P>,
    obj: &SpatialObject<N>,
) -> Vec<u8> {
    let scheme = tree.ops().leaf_scheme();
    let mut out = vec![0u8; scheme.byte_len()];
    scheme.sign_into(&mut out, tokenize(&obj.text));
    out
}

/// Inserts an object into an IR²-/MIR²-Tree: computes the leaf signature
/// from the object's text and runs the signature-maintaining R-Tree insert
/// (paper Figure 5).
pub fn insert_object<const N: usize, D: BlockDevice, P: SigPayload>(
    tree: &RTree<N, D, P>,
    ptr: ObjPtr,
    obj: &SpatialObject<N>,
) -> Result<()> {
    let payload = leaf_signature(tree, obj);
    tree.insert(ptr.0, Rect::from_point(obj.point), &payload)
}

/// Deletes an object from an IR²-/MIR²-Tree (paper Figure 6). Returns
/// whether the entry existed. Ancestor signatures are recomputed by the
/// tree's CondenseTree (signature bits cannot be unset incrementally).
pub fn delete_object<const N: usize, D: BlockDevice, P: SigPayload>(
    tree: &RTree<N, D, P>,
    ptr: ObjPtr,
    obj: &SpatialObject<N>,
) -> Result<bool> {
    tree.delete(ptr.0, &Rect::from_point(obj.point))
}

/// Bulk loads objects into an empty IR²-/MIR²-Tree with bottom-up signature
/// computation (construction-time accelerator; see `DESIGN.md`).
pub fn bulk_load_objects<const N: usize, D: BlockDevice, P: SigPayload>(
    tree: &RTree<N, D, P>,
    items: impl IntoIterator<Item = (ObjPtr, SpatialObject<N>)>,
) -> Result<()> {
    let prepared: Vec<(u64, Rect<N>, Vec<u8>)> = items
        .into_iter()
        .map(|(ptr, obj)| {
            let payload = leaf_signature(tree, &obj);
            (ptr.0, Rect::from_point(obj.point), payload)
        })
        .collect();
    tree.bulk_load(prepared)
}
