//! Index diagnostics: signature density profiles.
//!
//! Section 4 motivates the MIR²-Tree with one observation: using "the same
//! signature length … for all levels … leads to more false positives in
//! the higher levels, which have more 1's (since they are the
//! superimpositions of the lower levels)". [`density_profile`] measures
//! exactly that — the mean fraction of set bits per entry, per level —
//! so the claim (and the MIR²-Tree's fix) can be verified on any built
//! tree rather than taken on faith. The `signature-density` experiment in
//! the bench harness prints these profiles side by side.

use ir2_rtree::RTree;
use ir2_storage::{BlockDevice, Result};

use crate::SigPayload;

/// Mean signature statistics of one tree level.
#[derive(Debug, Clone, PartialEq)]
pub struct LevelDensity {
    /// Tree level (0 = leaf entries, i.e. object signatures).
    pub level: u16,
    /// Number of entries sampled at this level.
    pub entries: u64,
    /// Signature length (bits) used at this level.
    pub bits: usize,
    /// Mean fraction of set bits (the signature *weight*; the optimal
    /// operating point of superimposed coding is 0.5).
    pub mean_density: f64,
    /// Mean number of set bits per entry signature — the raw count behind
    /// `mean_density`, reported because the paper's false-positive model is
    /// driven directly by how many 1s superimposition has accumulated.
    pub mean_set_bits: f64,
    /// Expected single-probe false-positive rate at the mean density:
    /// `density^k`.
    pub expected_fp: f64,
}

/// Walks the whole tree and reports per-level signature densities, leaves
/// first, counting the set bits of each entry's payload where it lies on
/// the page (padding bits of the last byte excluded).
pub fn density_profile<const N: usize, D: BlockDevice, P: SigPayload>(
    tree: &RTree<N, D, P>,
) -> Result<Vec<LevelDensity>> {
    // Per level: (entries, total set bits).
    let mut sums: Vec<(u64, u64)> = Vec::new();
    let Some(root) = tree.root() else {
        return Ok(Vec::new());
    };
    let mut stack = vec![root];
    while let Some(id) = stack.pop() {
        let node = tree.read_node_buf(id)?;
        let lvl = node.level() as usize;
        if sums.len() <= lvl {
            sums.resize(lvl + 1, (0, 0));
        }
        let bits = tree.ops().scheme_at(node.level()).bits();
        let live_in_last_byte = match bits % 8 {
            0 => 0xFF,
            r => (1u8 << r) - 1,
        };
        sums[lvl].0 += node.len() as u64;
        for payload in node.payloads() {
            if let Some((last, body)) = payload.split_last() {
                sums[lvl].1 += u64::from((last & live_in_last_byte).count_ones());
                sums[lvl].1 += body.iter().map(|b| u64::from(b.count_ones())).sum::<u64>();
            }
        }
        if !node.is_leaf() {
            stack.extend(node.children());
        }
    }
    Ok(sums
        .into_iter()
        .enumerate()
        .map(|(lvl, (n, set_bits))| {
            let scheme = tree.ops().scheme_at(lvl as u16);
            let mean_set_bits = if n == 0 {
                0.0
            } else {
                set_bits as f64 / n as f64
            };
            let mean = if n == 0 || scheme.bits() == 0 {
                0.0
            } else {
                mean_set_bits / scheme.bits() as f64
            };
            LevelDensity {
                level: lvl as u16,
                entries: n,
                bits: scheme.bits(),
                mean_density: mean,
                mean_set_bits,
                expected_fp: mean.powi(scheme.k() as i32),
            }
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{insert_object, Ir2Payload, MirPayload};
    use ir2_model::{ObjectSource, ObjectStore, SpatialObject};
    use ir2_rtree::RTreeConfig;
    use ir2_sigfile::{MultiLevelScheme, SignatureScheme};
    use ir2_storage::MemDevice;
    use std::sync::Arc;

    fn corpus(
        n: u64,
    ) -> (
        Arc<ObjectStore<2, MemDevice>>,
        Vec<(ir2_model::ObjPtr, SpatialObject<2>)>,
    ) {
        let store = Arc::new(ObjectStore::<2, _>::create(MemDevice::new()));
        let items: Vec<_> = (0..n)
            .map(|i| {
                let text: String = (0..8)
                    .map(|j| format!("w{} ", (i * 13 + j * 7) % 500))
                    .collect();
                let obj = SpatialObject::new(i, [(i % 17) as f64, (i / 17) as f64], text);
                (store.append(&obj).unwrap(), obj)
            })
            .collect();
        store.flush().unwrap();
        (store, items)
    }

    #[test]
    fn ir2_density_grows_toward_the_root() {
        // The exact observation that motivates the MIR²-Tree.
        let (_, items) = corpus(400);
        let tree = RTree::create(
            MemDevice::new(),
            RTreeConfig::with_max(8),
            Ir2Payload::new(SignatureScheme::from_bytes_len(16, 4, 3)),
        )
        .unwrap();
        for (p, o) in &items {
            insert_object(&tree, *p, o).unwrap();
        }
        let profile = density_profile(&tree).unwrap();
        assert!(profile.len() >= 3, "need a multi-level tree");
        for w in profile.windows(2) {
            assert!(
                w[1].mean_density >= w[0].mean_density,
                "density must not shrink upward: {profile:?}"
            );
        }
        assert!(profile.last().unwrap().mean_density > 0.9, "root saturates");
        assert_eq!(profile[0].entries, 400);
    }

    #[test]
    fn mir2_keeps_upper_levels_sparser() {
        let (store, items) = corpus(400);
        let schemes = MultiLevelScheme::new(16, 4, 3, 8, 8.0, 500);
        let tree = RTree::create(
            MemDevice::new(),
            RTreeConfig::with_max(8),
            MirPayload::new(schemes, Arc::clone(&store) as Arc<dyn ObjectSource<2>>),
        )
        .unwrap();
        for (p, o) in &items {
            insert_object(&tree, *p, o).unwrap();
        }
        let profile = density_profile(&tree).unwrap();
        // Upper levels use longer signatures and stay near/below the 0.5
        // operating point instead of saturating.
        let top = profile.last().unwrap();
        assert!(top.bits > profile[0].bits, "upper schemes are longer");
        assert!(
            top.mean_density < 0.75,
            "MIR² top density must not saturate: {profile:?}"
        );
    }

    #[test]
    fn empty_tree_has_empty_profile() {
        let tree: RTree<2, _, _> = RTree::create(
            MemDevice::new(),
            RTreeConfig::with_max(8),
            Ir2Payload::new(SignatureScheme::from_bytes_len(8, 3, 1)),
        )
        .unwrap();
        assert!(density_profile(&tree).unwrap().is_empty());
    }
}
