//! Boolean keyword query within a window: Section 2's Boolean keyword
//! query (`Ans(Q_w) = {T | ∀w ∈ Q_w: w ∈ T.t}`) restricted to a spatial
//! window — the "all results in the visible map area" query every spatial
//! keyword application also needs. The IR²-Tree answers it with the same
//! double pruning as the top-k algorithm: subtrees are skipped when their
//! MBR misses the window *or* their signature lacks the query keywords.

use ir2_geo::Rect;
use ir2_model::{ObjPtr, ObjectSource, SpatialObject};
use ir2_rtree::RTree;
use ir2_sigfile::{payload_contains, Signature};
use ir2_storage::{BlockDevice, Result};
use ir2_text::tokenize;

use crate::search::level_entry;
use crate::{SearchCounters, SigPayload};

/// Returns every object inside `window` whose text contains all
/// `keywords`, with the traversal counters. Results are in tree order
/// (no ranking — this is a set query).
pub fn keyword_window_query<const N: usize, D: BlockDevice, P: SigPayload>(
    tree: &RTree<N, D, P>,
    objects: &dyn ObjectSource<N>,
    window: &Rect<N>,
    keywords: &[String],
) -> Result<(Vec<SpatialObject<N>>, SearchCounters)> {
    let kws: Vec<String> = {
        let mut v: Vec<String> = keywords
            .iter()
            .flat_map(|w| tokenize(w).collect::<Vec<_>>())
            .collect();
        v.sort_unstable();
        v.dedup();
        v
    };
    let mut counters = SearchCounters::default();
    let mut out = Vec::new();
    let Some(root) = tree.root() else {
        return Ok((out, counters));
    };
    let mut query_sigs: Vec<Option<Signature>> = Vec::new();
    let mut stack = vec![root];
    let mut scratch = Vec::new();
    while let Some(id) = stack.pop() {
        // Arena-backed decode plus zero-copy byte containment: this
        // uncached path allocates nothing per entry (and no longer clones
        // the query signature per node either).
        let node = tree.read_node_buf(id)?;
        // An uncached read: every visit decodes.
        counters.visit(node.len(), stack.len(), false);
        let level = node.level();
        let qsig = level_entry(&mut query_sigs, level, || {
            tree.ops()
                .scheme_at(level)
                .sign_terms(kws.iter().map(String::as_str))
        });
        // Entries inside the window are tested; the node's tests and
        // matches are counted in one tally after its scan.
        let (mut tested, mut matched) = (0, 0);
        for i in 0..node.len() {
            if !window.intersects(&node.rect(i)) {
                continue;
            }
            tested += 1;
            if !payload_contains(node.payload(i), qsig) {
                continue;
            }
            matched += 1;
            if node.is_leaf() {
                counters.candidates_checked += 1;
                match objects.load_if_contains_all(ObjPtr(node.child(i)), &kws, &mut scratch)? {
                    Some(obj) => out.push(obj),
                    None => counters.false_positives += 1,
                }
            } else {
                stack.push(node.child(i));
            }
        }
        counters.tally_tests(level, tested, matched);
    }
    Ok((out, counters))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{insert_object, Ir2Payload};
    use ir2_geo::Point;
    use ir2_model::ObjectStore;
    use ir2_rtree::RTreeConfig;
    use ir2_sigfile::SignatureScheme;
    use ir2_storage::MemDevice;
    use std::sync::Arc;

    fn fixture() -> (
        Arc<ObjectStore<2, MemDevice>>,
        RTree<2, MemDevice, Ir2Payload>,
        Vec<SpatialObject<2>>,
    ) {
        let store = Arc::new(ObjectStore::<2, _>::create(MemDevice::new()));
        let tree = RTree::create(
            MemDevice::new(),
            RTreeConfig::with_max(4),
            Ir2Payload::new(SignatureScheme::from_bytes_len(8, 3, 9)),
        )
        .unwrap();
        let themes = ["espresso bar", "book shop", "espresso roastery", "toy shop"];
        let mut objs = Vec::new();
        for i in 0..80u64 {
            let obj = SpatialObject::new(
                i,
                [(i % 10) as f64, (i / 10) as f64],
                themes[i as usize % themes.len()],
            );
            let ptr = store.append(&obj).unwrap();
            insert_object(&tree, ptr, &obj).unwrap();
            objs.push(obj);
        }
        store.flush().unwrap();
        (store, tree, objs)
    }

    #[test]
    fn window_keyword_query_matches_brute_force() {
        let (store, tree, objs) = fixture();
        let window = Rect::from_corners(Point::new([1.0, 1.0]), Point::new([6.0, 5.0]));
        let (got, counters) =
            keyword_window_query(&tree, store.as_ref(), &window, &["espresso".into()]).unwrap();
        let mut got_ids: Vec<u64> = got.iter().map(|o| o.id).collect();
        got_ids.sort_unstable();
        let mut want: Vec<u64> = objs
            .iter()
            .filter(|o| window.contains_point(&o.point) && o.token_set().contains("espresso"))
            .map(|o| o.id)
            .collect();
        want.sort_unstable();
        assert_eq!(got_ids, want);
        assert!(!want.is_empty());
        assert!(counters.nodes_read > 0);
    }

    #[test]
    fn empty_keywords_returns_window_contents() {
        let (store, tree, objs) = fixture();
        let window = Rect::from_corners(Point::new([0.0, 0.0]), Point::new([2.0, 2.0]));
        let (got, _) = keyword_window_query(&tree, store.as_ref(), &window, &[]).unwrap();
        let want = objs
            .iter()
            .filter(|o| window.contains_point(&o.point))
            .count();
        assert_eq!(got.len(), want);
    }

    #[test]
    fn absent_keyword_prunes_everything_real() {
        let (store, tree, _) = fixture();
        let window = Rect::from_corners(Point::new([0.0, 0.0]), Point::new([9.0, 9.0]));
        let (got, _) =
            keyword_window_query(&tree, store.as_ref(), &window, &["zeppelin".into()]).unwrap();
        assert!(got.is_empty());
    }
}
