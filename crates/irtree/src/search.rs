//! The stepping contract of the incremental best-first search, the one
//! top-k collector built on it, and the signature test of a visited node.
//!
//! A visited node's test reads only what the query asks about: a cached
//! image ANDs the bit-sliced columns of the query's set bits, and a page a
//! search read past its image table — into the search's own reusable
//! buffer — has its payloads tested where they lie, one non-zero query word at a
//! time across the entries still live ([`payloads_mask_into`] over
//! `NodeBuf::payload_region`).

use ir2_model::{ExecOutcome, SpatialObject, TruncateReason};
use ir2_rtree::CachedNode;
use ir2_sigfile::{payloads_mask_into, EntryMask, Signature, SignatureBlock};
use ir2_storage::Result;

use crate::trace::SearchCounters;

/// "if s matches w" for every entry of a visited node at once: bit `i` of
/// `out` says whether entry `i`'s signature contains `query` (the query
/// signature of the node's level).
///
/// An image out of the node cache holds its signatures as the bit-sliced
/// [`SignatureBlock`] the reader built when it installed the image — the
/// miss that installs it pays the transpose (8–13 µs for a Hotels-sized
/// node) once, and the image then outlives every commit that neither
/// rewrites nor frees its node — and a visit ANDs a handful of its columns.
/// A page (every visit of a tree without a cache, and every miss a full
/// cache does not take) has its entries tested where they lie, word by
/// query word at the page's entry stride, and nothing is built. Both give
/// the same mask.
pub(crate) fn signature_mask_into<const N: usize>(
    node: &CachedNode<N>,
    query: &Signature,
    out: &mut EntryMask,
) {
    match node.sliced::<SignatureBlock>() {
        Some(block) => block.matches_mask_into(query, out),
        None => {
            let page = node
                .page()
                .expect("an image without a signature block kept its page");
            let (region, stride) = page.payload_region();
            payloads_mask_into(region, stride, page.len(), query, out);
        }
    }
}

/// The slot of a per-level table for `level`, filled by `make` on first
/// use: the searches keep their query signatures this way, indexed by tree
/// level (a handful of levels, probed once per node visit).
pub(crate) fn level_entry<T>(
    table: &mut Vec<Option<T>>,
    level: u16,
    make: impl FnOnce() -> T,
) -> &mut T {
    let level = usize::from(level);
    if table.len() <= level {
        table.resize_with(level + 1, || None);
    }
    table[level].get_or_insert_with(make)
}

/// What [`collect_topk`] returns: the complete-or-truncated results plus
/// the search counters of the run.
pub type LimitedTopk<const N: usize> = (ExecOutcome<Vec<(SpatialObject<N>, f64)>>, SearchCounters);

/// Outcome of one bounded best-first step ([`BoundedSearch::next_within`]).
#[derive(Debug)]
pub enum BoundedStep<const N: usize> {
    /// A verified result at a key ≤ the step's limit: its distance, or its
    /// negated score under the general order.
    Hit(SpatialObject<N>, f64),
    /// The frontier minimum now exceeds the limit: every remaining result
    /// is farther than the limit, and no work beyond it was performed.
    /// `frontier_bound()` holds the new, tighter bound.
    Pending,
    /// The frontier is drained — or an execution limit truncated the
    /// search (`truncation()` tells which).
    Done,
}

impl<const N: usize> BoundedStep<N> {
    /// The verified result of a [`Hit`](BoundedStep::Hit), `None` otherwise.
    pub fn into_hit(self) -> Option<(SpatialObject<N>, f64)> {
        match self {
            Self::Hit(obj, d) => Some((obj, d)),
            Self::Pending | Self::Done => None,
        }
    }
}

/// An incremental best-first search that emits verified results in
/// non-decreasing key (distance, or negated score) and can be advanced
/// under a key bound —
/// what [`collect_topk`] and the scatter-gather shard merge are written
/// against. [`DistanceFirstIter`](crate::DistanceFirstIter) implements it
/// over every tree; region, sink and limits are chosen when the iterator
/// is built, so every combination of them runs through the same four
/// calls.
pub trait BoundedSearch<const N: usize> {
    /// Advances to the next verified result, performing no work beyond
    /// `limit`; the search resumes where it stopped when called again with
    /// a larger limit.
    fn next_within(&mut self, limit: f64) -> Result<BoundedStep<N>>;

    /// Lower bound on the key of every result still to come; `None`
    /// once the frontier is drained.
    fn frontier_bound(&self) -> Option<f64>;

    /// The search counters so far.
    fn counters(&self) -> SearchCounters;

    /// Which execution limit stopped the search, if one did.
    fn truncation(&self) -> Option<TruncateReason>;
}

/// Collects the top `k` results of `search` in the workspace-wide canonical
/// `(key, id)` order: `(distance, id)`, or score descending and then id
/// under the general order. A search stopped by its limits yields
/// [`ExecOutcome::Truncated`] whose results are the exact top-m prefix of
/// the full answer; an unlimited search never sets
/// [`truncation`](BoundedSearch::truncation), so it always comes back
/// [`ExecOutcome::Complete`].
///
/// Two distinct situations need the canonicalizing sort:
///
/// - the stream produced `k` results: every further result *at the k-th
///   distance* must first be drained (the bound is inclusive and the
///   stream is non-decreasing, so `next_within` touches only the tied
///   group) so the cut keeps the id-smallest tied members;
/// - the stream exhausted below `k`: no drain is needed, but *interior*
///   equal-distance groups still sit in traversal order — the
///   differential fuzzer caught exactly this against the brute-force
///   oracle (`ir2 fuzz`, seed 42 iter 1: k past the match count left
///   tied pairs swapped).
///
/// Both end with the same full `(distance, id)` sort, so it runs
/// unconditionally.
pub fn collect_topk<const N: usize>(
    search: &mut (impl BoundedSearch<N> + ?Sized),
    k: usize,
) -> Result<LimitedTopk<N>> {
    let mut out = Vec::with_capacity(k.min(1024));
    while out.len() < k {
        match search.next_within(f64::INFINITY)?.into_hit() {
            Some(hit) => out.push(hit),
            None => break,
        }
    }
    if out.len() == k && k > 0 && search.truncation().is_none() {
        // The tie drain runs under the same limits as the search proper; a
        // budget that trips mid-drain reports `Truncated` (the tied tail
        // could not be canonicalized, so the choice of tied members is not
        // guaranteed to be the `(distance, id)`-smallest).
        let kth = out[k - 1].1;
        while let BoundedStep::Hit(obj, d) = search.next_within(kth)? {
            out.push((obj, d));
        }
    }
    out.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.id.cmp(&b.0.id)));
    out.truncate(k);
    let counters = search.counters();
    let outcome = match search.truncation() {
        Some(reason) => ExecOutcome::Truncated {
            reason,
            results_so_far: out,
        },
        None => ExecOutcome::Complete(out),
    };
    Ok((outcome, counters))
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use ir2_geo::{Point, Rect};
    use ir2_model::ObjectStore;
    use ir2_rtree::NodeBuf;
    use ir2_sigfile::{MultiLevelScheme, SignatureScheme};
    use ir2_storage::{MemDevice, PAGE_PAYLOAD};

    use super::*;
    use crate::{Ir2Payload, MirPayload, SigPayload};

    const WORDS: [&str; 12] = [
        "internet", "pool", "spa", "pets", "golf", "sauna", "suite", "gym", "bar", "wifi", "view",
        "quiet",
    ];

    /// The page of a node at `level` holding `payloads`, in the on-disk
    /// layout (`rtree/src/node.rs`): an 8-byte header, then per entry a
    /// child reference, a rectangle and the payload.
    fn page(level: u16, payloads: &[Vec<u8>]) -> NodeBuf<2> {
        let size = payloads.first().map_or(0, Vec::len);
        let len = 8 + payloads.len() * (8 + Rect::<2>::ENCODED_LEN + size);
        let nblocks = len.div_ceil(PAGE_PAYLOAD);
        let mut buf = vec![0xB7, 1];
        buf.extend_from_slice(&level.to_le_bytes());
        buf.extend_from_slice(&(payloads.len() as u16).to_le_bytes());
        buf.extend_from_slice(&(nblocks as u16).to_le_bytes());
        for (i, p) in payloads.iter().enumerate() {
            buf.extend_from_slice(&(i as u64).to_le_bytes());
            let mut rect = [0u8; Rect::<2>::ENCODED_LEN];
            Rect::from_point(Point::new([i as f64, 1.0])).encode(&mut rect);
            buf.extend_from_slice(&rect);
            buf.extend_from_slice(p);
        }
        buf.resize(nblocks * PAGE_PAYLOAD, 0);
        NodeBuf::decode(9, buf, size).unwrap()
    }

    /// The mask of an image sliced when the cache installs it, the mask of
    /// the page tested in place and `Signature::contains` entry by entry
    /// agree — for the IR² scheme at odd bit lengths and for every level of
    /// a MIR² ladder, at entry counts on both sides of the 64-entry word
    /// boundary and at the full Hotels fanout.
    #[test]
    fn sliced_and_in_place_masks_agree_with_the_scalar_test() {
        fn check<P: SigPayload>(ops: &P, levels: std::ops::Range<u16>) {
            for level in levels {
                let scheme = *ops.scheme_at(level);
                assert_eq!(ops.entry_size(level), scheme.byte_len());
                for count in [0usize, 1, 63, 64, 65, 102] {
                    let payloads: Vec<Vec<u8>> = (0..count)
                        .map(|i| {
                            let mut bytes = vec![0u8; scheme.byte_len()];
                            let terms = (0..1 + i % 4).map(|j| WORDS[(i * 5 + j * 7) % 12]);
                            scheme.sign_into(&mut bytes, terms);
                            bytes
                        })
                        .collect();
                    let page = page(level, &payloads);
                    let in_place = CachedNode::new(page.clone());
                    let sliced = CachedNode::sliced_by(&page, ops);
                    let block = sliced
                        .sliced::<SignatureBlock>()
                        .expect("a signature payload slices into a block");
                    assert_eq!((block.len(), block.bits()), (count, scheme.bits()));
                    assert!(sliced.page().is_none(), "signatures are held once");

                    let queries = [
                        scheme.empty(),
                        scheme.sign_term(WORDS[3]),
                        scheme.sign_terms([WORDS[0], WORDS[7]]),
                        scheme.sign_terms(WORDS),
                    ];
                    for query in &queries {
                        let (mut a, mut b) = (EntryMask::new(), EntryMask::new());
                        signature_mask_into(&in_place, query, &mut a);
                        signature_mask_into(&sliced, query, &mut b);
                        assert_eq!((a.len(), b.len()), (count, count));
                        for (i, p) in payloads.iter().enumerate() {
                            let scalar = Signature::from_bytes(scheme.bits(), p).contains(query);
                            assert_eq!(a.get(i), scalar, "in place: level {level}, entry {i}");
                            assert_eq!(b.get(i), scalar, "sliced: level {level}, entry {i}");
                        }
                    }
                }
            }
        }

        for bits in [61, 64, 77, 1511] {
            check(&Ir2Payload::new(SignatureScheme::new(bits, 3, 5)), 0..2);
        }
        let schemes = MultiLevelScheme::new(4, 3, 7, 4, 2.0, 100);
        let levels = schemes.num_levels() as u16 + 1;
        let store = Arc::new(ObjectStore::<2, _>::create(MemDevice::new()));
        check(&MirPayload::new(schemes, store), 0..levels);
    }
}
