//! On-disk node format, and [`NodeBuf`], the one in-memory form of a node.
//!
//! A node occupies a fixed-size extent of consecutive blocks determined by
//! its level (payload sizes may differ per level in the MIR²-Tree). Layout:
//!
//! ```text
//! magic(1) ver(1) level(2) count(2) nblocks(2)          -- 8-byte header
//! count × [ child(8) | rect(2·8·N) | payload(entry_size(level)) ]
//! ```
//!
//! Leaf entries (`level == 0`) hold object pointers in `child`; internal
//! entries hold child-node extent ids.
//!
//! The extent is sized for a full node (`max_entries` entries), but only
//! the blocks the entries fill carry node bytes: every block after them is
//! padding, written as the sealed zero page
//! ([`SEALED_ZERO`](ir2_storage::page::SEALED_ZERO)) and, on a read,
//! verified where the device holds it instead of being copied into the
//! node. The header's `nblocks` is the whole extent, and a read checks it
//! against the level's extent size, and `count` against the capacity,
//! before it trusts either. `count` is a `u16`, so a tree's node capacity
//! is at most 65 535 ([`RTreeConfig::with_max`](crate::RTreeConfig::with_max)
//! refuses more).
//!
//! [`NodeBuf::decode`] is the one parser of these bytes and the tree's
//! `write_node` the one writer: a query reads a page's entries where they
//! lie, and a mutation edits that same page in place — push, remove, set a
//! child, a rectangle or a payload, OR a signature into a payload — and
//! hands it to the writer, which stamps the header and seals the bytes. No
//! entry is ever copied into an owned form and back.
//!
//! The buffer a page lives in can outlast it. The tree's read appends the
//! node's bytes into a `Vec` the caller owns
//! ([`RTree::read_node_into`](crate::RTree::read_node_into)), and a caller
//! that visits node after node — a search without a node cache — takes the
//! bytes back with [`NodeBuf::into_bytes`] once it is done with the page,
//! so the next read writes into memory that is already allocated and
//! already in the CPU's cache. Such a buffer keeps the capacity of the
//! largest node it held; a page a node cache installs is shrunk first.
//!
//! Entry `i`'s payload starts `i · stride` bytes into
//! [`NodeBuf::payload_region`], so a kernel can walk one signature word
//! across every entry without a per-entry slice.

use ir2_geo::Rect;
use ir2_storage::{Result, StorageError};

/// Identifier of a node: the first block of its extent.
pub type NodeId = u64;

/// An entry held outside a node — a bulk-load item, or the parent entry a
/// split hands up: child reference, MBR, payload.
pub(crate) type Item<const N: usize> = (u64, Rect<N>, Vec<u8>);

/// Byte length of the node header.
pub const NODE_HEADER_LEN: usize = 8;

/// Byte length of a child reference within an entry.
pub const REF_LEN: usize = 8;

const MAGIC: u8 = 0xB7;
const VERSION: u8 = 1;

/// A node page: its extent's bytes in one buffer — the header, then the
/// entries — served by offset, with no per-entry allocation.
///
/// This is the only in-memory form of a node. Query traversals (nearest
/// neighbor, area search, signature pruning) read `child`, `rect` and a
/// borrowed `payload` slice straight out of the buffer. The tree's
/// mutations (insert, split, delete, bulk load) edit the same buffer
/// through crate-private methods and hand it to the tree's writer, which
/// stamps the header and seals these bytes: the page that was read is the
/// page that is written.
///
/// The buffer always holds exactly the header and `len()` entries: a page
/// decoded from a read keeps no padding.
#[derive(Debug, Clone)]
pub struct NodeBuf<const N: usize> {
    id: NodeId,
    level: u16,
    count: usize,
    entry_len: usize,
    payload_size: usize,
    buf: Vec<u8>,
}

impl<const N: usize> NodeBuf<N> {
    /// Takes ownership of a node's extent bytes and validates the header
    /// and entry region. The bytes past the last entry (an extent's
    /// padding) are dropped; the buffer keeps its capacity.
    pub fn decode(id: NodeId, mut buf: Vec<u8>, payload_size: usize) -> Result<Self> {
        let (level, count, _nblocks) = Self::decode_header(&buf)?;
        let need = Self::encoded_len(count as usize, payload_size);
        if buf.len() < need {
            return Err(StorageError::Corrupt(format!(
                "node {id}: {} bytes but {count} entries need {need}",
                buf.len()
            )));
        }
        buf.truncate(need);
        Ok(Self {
            id,
            level,
            count: count as usize,
            entry_len: Self::entry_encoded_len(payload_size),
            payload_size,
            buf,
        })
    }

    /// Parses the header of a serialized node: `(level, count, nblocks)`.
    pub(crate) fn decode_header(buf: &[u8]) -> Result<(u16, u16, u16)> {
        if buf.len() < NODE_HEADER_LEN || buf[0] != MAGIC {
            return Err(StorageError::Corrupt("bad node magic".into()));
        }
        if buf[1] != VERSION {
            return Err(StorageError::Corrupt(format!(
                "bad node version {}",
                buf[1]
            )));
        }
        let field = |at: usize| u16::from_le_bytes([buf[at], buf[at + 1]]);
        Ok((field(2), field(4), field(6)))
    }

    /// Byte length of one serialized entry given the level's payload size.
    pub(crate) fn entry_encoded_len(payload_size: usize) -> usize {
        REF_LEN + Rect::<N>::ENCODED_LEN + payload_size
    }

    /// Byte length of a serialized node of `count` entries: the header,
    /// then the entries.
    pub(crate) fn encoded_len(count: usize, payload_size: usize) -> usize {
        NODE_HEADER_LEN + count * Self::entry_encoded_len(payload_size)
    }

    /// First block of the node's extent.
    #[inline]
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// 0 for leaves; parents of level-`ℓ` nodes are level `ℓ + 1`.
    #[inline]
    pub fn level(&self) -> u16 {
        self.level
    }

    /// True for leaf nodes.
    #[inline]
    pub fn is_leaf(&self) -> bool {
        self.level == 0
    }

    /// Number of entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.count
    }

    /// True if the node has no entries (only a never-written root).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Payload bytes per entry at this node's level.
    #[inline]
    pub fn payload_size(&self) -> usize {
        self.payload_size
    }

    #[inline]
    fn entry_range(&self, i: usize) -> std::ops::Range<usize> {
        debug_assert!(
            i < self.count,
            "entry index {i} out of range {}",
            self.count
        );
        let pos = NODE_HEADER_LEN + i * self.entry_len;
        pos..pos + self.entry_len
    }

    #[inline]
    fn entry_at(&self, i: usize) -> &[u8] {
        &self.buf[self.entry_range(i)]
    }

    #[inline]
    fn entry_mut(&mut self, i: usize) -> &mut [u8] {
        let range = self.entry_range(i);
        &mut self.buf[range]
    }

    /// Object pointer (leaf) or child node id (internal) of entry `i`.
    ///
    /// # Panics
    /// Panics if `i >= len()`.
    #[inline]
    pub fn child(&self, i: usize) -> u64 {
        u64::from_le_bytes(self.entry_at(i)[..REF_LEN].try_into().expect("8 bytes"))
    }

    /// MBR of entry `i`, decoded on demand (a fixed-size stack copy).
    ///
    /// # Panics
    /// Panics if `i >= len()`.
    #[inline]
    pub fn rect(&self, i: usize) -> Rect<N> {
        Rect::decode(&self.entry_at(i)[REF_LEN..REF_LEN + Rect::<N>::ENCODED_LEN])
    }

    /// Borrowed payload slice of entry `i` — zero-copy out of the arena.
    ///
    /// # Panics
    /// Panics if `i >= len()`.
    #[inline]
    pub fn payload(&self, i: usize) -> &[u8] {
        &self.entry_at(i)[REF_LEN + Rect::<N>::ENCODED_LEN..]
    }

    /// Iterates all payload slices in entry order.
    pub fn payloads(&self) -> impl Iterator<Item = &[u8]> + '_ {
        (0..self.count).map(|i| self.payload(i))
    }

    /// Every payload at once, for a kernel that walks them word by word:
    /// `(region, stride)`, where entry `i`'s payload is
    /// `region[i * stride..i * stride + payload_size()]`. The region starts
    /// at entry 0's payload and ends with the last entry's (it is empty for
    /// a node without entries).
    #[inline]
    pub fn payload_region(&self) -> (&[u8], usize) {
        let start = (NODE_HEADER_LEN + REF_LEN + Rect::<N>::ENCODED_LEN).min(self.buf.len());
        (&self.buf[start..], self.entry_len)
    }

    /// The page's buffer, to read the next node into: its bytes are
    /// overwritten by that read, its capacity is kept.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Iterates all child references in entry order.
    pub fn children(&self) -> impl Iterator<Item = u64> + '_ {
        (0..self.count).map(|i| self.child(i))
    }

    /// The bounding rectangle of all entries.
    ///
    /// # Panics
    /// Panics if the node has no entries.
    pub fn mbr(&self) -> Rect<N> {
        assert!(self.count > 0, "mbr of empty node");
        (1..self.count).fold(self.rect(0), |acc, i| acc.union(&self.rect(i)))
    }

    // ------------------------------------------------------------------
    // Edits: the write path's, in place on the page's bytes.
    // ------------------------------------------------------------------

    /// An empty node at `level` whose entries carry `payload_size` bytes.
    pub(crate) fn empty(id: NodeId, level: u16, payload_size: usize) -> Self {
        let mut buf = vec![0u8; NODE_HEADER_LEN];
        buf[0] = MAGIC;
        buf[1] = VERSION;
        buf[2..4].copy_from_slice(&level.to_le_bytes());
        Self {
            id,
            level,
            count: 0,
            entry_len: Self::entry_encoded_len(payload_size),
            payload_size,
            buf,
        }
    }

    /// Moves the node to the extent at `id` (its bytes do not name it).
    pub(crate) fn set_id(&mut self, id: NodeId) {
        self.id = id;
    }

    /// Appends an entry.
    pub(crate) fn push(&mut self, child: u64, rect: &Rect<N>, payload: &[u8]) {
        self.buf.resize(self.buf.len() + self.entry_len, 0);
        self.count += 1;
        let last = self.count - 1;
        self.set_child(last, child);
        self.set_rect(last, rect);
        self.set_payload(last, payload);
    }

    /// Removes entry `i`, shifting the entries after it down by one.
    pub(crate) fn remove(&mut self, i: usize) {
        let range = self.entry_range(i);
        self.buf.copy_within(range.end.., range.start);
        self.buf.truncate(self.buf.len() - self.entry_len);
        self.count -= 1;
    }

    /// Sets entry `i`'s child reference.
    pub(crate) fn set_child(&mut self, i: usize, child: u64) {
        self.entry_mut(i)[..REF_LEN].copy_from_slice(&child.to_le_bytes());
    }

    /// Sets entry `i`'s MBR.
    pub(crate) fn set_rect(&mut self, i: usize, rect: &Rect<N>) {
        rect.encode(&mut self.entry_mut(i)[REF_LEN..REF_LEN + Rect::<N>::ENCODED_LEN]);
    }

    /// Sets entry `i`'s payload; `payload` must be the level's size.
    pub(crate) fn set_payload(&mut self, i: usize, payload: &[u8]) {
        self.payload_mut(i).copy_from_slice(payload);
    }

    /// Entry `i`'s payload, to edit in place.
    pub(crate) fn payload_mut(&mut self, i: usize) -> &mut [u8] {
        &mut self.entry_mut(i)[REF_LEN + Rect::<N>::ENCODED_LEN..]
    }

    /// The node's bytes for its `nblocks`-block extent: the header, with
    /// its entry count and extent size stamped, then the entries, and
    /// nothing after — the writer seals these bytes and pads the rest of
    /// the extent with the sealed zero page, so the full extent is still
    /// written every time and stale entries cannot resurface.
    ///
    /// # Panics
    /// Panics if the entry count does not fit the header's `u16` (a tree
    /// whose capacity fits never holds more).
    pub(crate) fn encode(&mut self, nblocks: u16) -> &[u8] {
        let count = u16::try_from(self.count).expect("node entry count fits the header's u16");
        self.buf[4..6].copy_from_slice(&count.to_le_bytes());
        self.buf[6..8].copy_from_slice(&nblocks.to_le_bytes());
        &self.buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ir2_geo::Point;
    use proptest::prelude::*;

    type Model = Vec<(u64, Rect<2>, Vec<u8>)>;

    fn rect(a: f64, b: f64) -> Rect<2> {
        Rect::from_corners(Point::new([a, b]), Point::new([a + 1.0, b + 1.0]))
    }

    /// A node pushed fresh, in order, from `model`.
    fn pushed(id: NodeId, level: u16, payload_size: usize, model: &Model) -> NodeBuf<2> {
        let mut node = NodeBuf::empty(id, level, payload_size);
        for (child, rect, payload) in model {
            node.push(*child, rect, payload);
        }
        node
    }

    fn seven_entries() -> Model {
        (0..7u64)
            .map(|i| (100 + i, rect(i as f64, -(i as f64)), vec![i as u8; 9]))
            .collect()
    }

    fn assert_holds(node: &NodeBuf<2>, model: &Model) {
        assert_eq!(node.len(), model.len());
        assert_eq!(node.is_empty(), model.is_empty());
        for (i, (child, rect, payload)) in model.iter().enumerate() {
            assert_eq!(node.child(i), *child, "entry {i}");
            assert_eq!(node.rect(i), *rect, "entry {i}");
            assert_eq!(node.payload(i), payload.as_slice(), "entry {i}");
        }
    }

    #[test]
    fn encode_decode_roundtrip_with_payload() {
        let model = seven_entries();
        let mut node = pushed(5, 1, 9, &model);
        let back = NodeBuf::<2>::decode(5, node.encode(2).to_vec(), 9).unwrap();
        assert_holds(&back, &model);
        assert_eq!((back.id(), back.level()), (5, 1));
    }

    #[test]
    fn nodebuf_accessors_match_the_pushed_entries() {
        let model = seven_entries();
        let node = pushed(5, 1, 9, &model);
        assert_eq!(node.id(), 5);
        assert_eq!(node.level(), 1);
        assert!(!node.is_leaf());
        assert_eq!(node.payload_size(), 9);
        assert_holds(&node, &model);
        let mbr = model[1..].iter().fold(model[0].1, |acc, e| acc.union(&e.1));
        assert_eq!(node.mbr(), mbr);
        assert!(node.children().eq(model.iter().map(|e| e.0)));
        assert!(node.payloads().eq(model.iter().map(|e| e.2.as_slice())));
    }

    #[test]
    fn encode_decode_zero_payload() {
        let model = vec![(42, rect(1.0, 2.0), vec![])];
        let mut node = pushed(0, 0, 0, &model);
        let back = NodeBuf::<2>::decode(0, node.encode(1).to_vec(), 0).unwrap();
        assert_holds(&back, &model);
        assert!(back.is_leaf());
    }

    #[test]
    fn header_fields_survive() {
        let mut node = NodeBuf::<2>::empty(9, 3, 4);
        assert_eq!(
            NodeBuf::<2>::decode_header(node.encode(7)).unwrap(),
            (3, 0, 7)
        );
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(NodeBuf::<2>::decode(0, vec![0u8; 16], 0).is_err());
        let mut bytes = NodeBuf::<2>::empty(0, 0, 0).encode(1).to_vec();
        bytes[1] = 99; // bad version
        assert!(NodeBuf::<2>::decode(0, bytes, 0).is_err());
    }

    fn two_entries() -> Model {
        vec![(1, rect(0.0, 0.0), vec![]), (2, rect(1.0, 1.0), vec![])]
    }

    #[test]
    fn decode_rejects_truncated_entries() {
        let bytes = pushed(0, 0, 0, &two_entries()).encode(1).to_vec();
        let need = NodeBuf::<2>::encoded_len(2, 0);
        assert_eq!(bytes.len(), need);
        assert!(NodeBuf::<2>::decode(0, bytes[..need].to_vec(), 0).is_ok());
        assert!(NodeBuf::<2>::decode(0, bytes[..need - 10].to_vec(), 0).is_err());
    }

    #[test]
    fn decode_drops_the_padding_and_keeps_no_spare_capacity() {
        let model = two_entries();
        let bytes = pushed(0, 0, 0, &model).encode(1).to_vec();
        let mut padded = bytes.clone();
        padded.resize(ir2_storage::PAGE_PAYLOAD, 0);
        let back = NodeBuf::<2>::decode(0, padded, 0).unwrap();
        assert_holds(&back, &model);
        assert_eq!(back.buf, bytes, "the padding is not kept");
        // Spare capacity is kept: a search reads its next node into it. The
        // image a node cache installs drops it (see the tree's test
        // `an_image_a_node_cache_installs_keeps_no_spare_capacity`).
        assert_eq!(back.into_bytes(), bytes, "the buffer goes back whole");
    }

    #[test]
    fn the_payload_region_serves_every_payload_at_its_stride() {
        for size in [0usize, 5, 9, 189] {
            let model: Model = (0..5u64)
                .map(|i| (i, rect(i as f64, 0.0), payload(size, i as u8)))
                .collect();
            let node = pushed(3, 0, size, &model);
            let (region, stride) = node.payload_region();
            assert_eq!(stride, NodeBuf::<2>::entry_encoded_len(size));
            assert_eq!(region.len(), 4 * stride + size, "the last payload ends it");
            for (i, (_, _, p)) in model.iter().enumerate() {
                assert_eq!(&region[i * stride..i * stride + size], p.as_slice());
            }
            let empty = NodeBuf::<2>::empty(3, 0, size);
            assert!(empty.payload_region().0.is_empty());
        }
    }

    #[test]
    fn mbr_covers_all_entries() {
        let model = vec![(1, rect(0.0, 0.0), vec![]), (2, rect(5.0, -3.0), vec![])];
        let node = pushed(0, 0, 0, &model);
        let mbr = node.mbr();
        assert!(model.iter().all(|(_, r, _)| mbr.contains(r)));
    }

    #[derive(Debug, Clone)]
    enum Edit {
        Push(u64, Rect<2>, u8),
        Remove(usize),
        SetChild(usize, u64),
        SetRect(usize, Rect<2>),
        SetPayload(usize, u8),
        /// ORs a byte into every payload byte in place — the AdjustTree merge.
        OrPayload(usize, u8),
        SetId(NodeId),
    }

    fn arb_rect() -> impl Strategy<Value = Rect<2>> {
        (
            -100.0f64..100.0,
            -100.0f64..100.0,
            0.0f64..10.0,
            0.0f64..10.0,
        )
            .prop_map(|(x, y, w, h)| {
                Rect::from_corners(Point::new([x, y]), Point::new([x + w, y + h]))
            })
    }

    fn arb_edit() -> impl Strategy<Value = Edit> {
        let push =
            || (any::<u64>(), arb_rect(), any::<u8>()).prop_map(|(c, r, b)| Edit::Push(c, r, b));
        // Pushes listed thrice, so nodes grow while they are edited.
        prop_oneof![
            push(),
            push(),
            push(),
            any::<usize>().prop_map(Edit::Remove),
            (any::<usize>(), any::<u64>()).prop_map(|(i, c)| Edit::SetChild(i, c)),
            (any::<usize>(), arb_rect()).prop_map(|(i, r)| Edit::SetRect(i, r)),
            (any::<usize>(), any::<u8>()).prop_map(|(i, b)| Edit::SetPayload(i, b)),
            (any::<usize>(), any::<u8>()).prop_map(|(i, b)| Edit::OrPayload(i, b)),
            any::<u64>().prop_map(Edit::SetId),
        ]
    }

    /// A payload of `size` bytes that differs per byte and per seed.
    fn payload(size: usize, seed: u8) -> Vec<u8> {
        (0..size).map(|j| seed.wrapping_add(j as u8)).collect()
    }

    proptest! {
        /// Edits in place equal a node pushed fresh from the model, byte
        /// for byte, and the bytes decode back to the model.
        #[test]
        fn edits_in_place_match_a_fresh_node(
            size in prop::sample::select(vec![0usize, 9, 192]),
            level in 0u16..4,
            edits in prop::collection::vec(arb_edit(), 0..60),
        ) {
            let mut node = NodeBuf::<2>::empty(1, level, size);
            let mut model: Model = Vec::new();
            let mut id = 1;
            for edit in edits {
                let len = model.len();
                match edit {
                    Edit::Push(c, r, b) => {
                        node.push(c, &r, &payload(size, b));
                        model.push((c, r, payload(size, b)));
                    }
                    Edit::SetId(new) => {
                        node.set_id(new);
                        id = new;
                    }
                    _ if len == 0 => continue,
                    Edit::Remove(i) => {
                        node.remove(i % len);
                        model.remove(i % len);
                    }
                    Edit::SetChild(i, c) => {
                        node.set_child(i % len, c);
                        model[i % len].0 = c;
                    }
                    Edit::SetRect(i, r) => {
                        node.set_rect(i % len, &r);
                        model[i % len].1 = r;
                    }
                    Edit::SetPayload(i, b) => {
                        node.set_payload(i % len, &payload(size, b));
                        model[i % len].2 = payload(size, b);
                    }
                    Edit::OrPayload(i, b) => {
                        node.payload_mut(i % len).iter_mut().for_each(|x| *x |= b);
                        model[i % len].2.iter_mut().for_each(|x| *x |= b);
                    }
                }
            }
            let sealed = node.encode(7).to_vec();
            prop_assert_eq!(&sealed, pushed(9, level, size, &model).encode(7));
            prop_assert_eq!(node.id(), id);
            let back = NodeBuf::<2>::decode(id, sealed, size).unwrap();
            prop_assert_eq!(NodeBuf::<2>::decode_header(&back.buf).unwrap(), (level, model.len() as u16, 7));
            prop_assert_eq!((back.id(), back.level()), (id, level));
            assert_holds(&back, &model);
        }
    }
}
