//! On-disk node format.
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

use ir2_geo::Rect;
use ir2_storage::{Result, StorageError, PAGE_PAYLOAD};

/// Identifier of a node: the first block of its extent.
pub type NodeId = u64;

/// Byte length of the node header.
pub const NODE_HEADER_LEN: usize = 8;

/// Byte length of a child reference within an entry.
pub const REF_LEN: usize = 8;

const MAGIC: u8 = 0xB7;
const VERSION: u8 = 1;

/// One node entry: a child reference, its MBR, and its payload.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Entry<const N: usize> {
    /// Object pointer (leaf) or child node id (internal).
    pub child: u64,
    /// Minimum bounding rectangle of the child.
    pub rect: Rect<N>,
    /// Augmentation payload (e.g. a signature). Length must equal the
    /// tree's `entry_size` for the containing node's level.
    pub payload: Vec<u8>,
}

impl<const N: usize> Entry<N> {
    /// Creates an entry.
    pub fn new(child: u64, rect: Rect<N>, payload: Vec<u8>) -> Self {
        Self {
            child,
            rect,
            payload,
        }
    }
}

/// An in-memory node image.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Node<const N: usize> {
    /// First block of the node's extent.
    pub id: NodeId,
    /// 0 for leaves; parents of level-`ℓ` nodes are level `ℓ + 1`.
    pub level: u16,
    /// The node's entries (≤ the tree's `max_entries`).
    pub entries: Vec<Entry<N>>,
}

impl<const N: usize> Node<N> {
    /// An empty node.
    pub fn new(id: NodeId, level: u16) -> Self {
        Self {
            id,
            level,
            entries: Vec::new(),
        }
    }

    /// True for leaf nodes.
    pub fn is_leaf(&self) -> bool {
        self.level == 0
    }

    /// The bounding rectangle of all entries.
    ///
    /// # Panics
    /// Panics if the node has no entries (only a never-written root is
    /// empty).
    pub fn mbr(&self) -> Rect<N> {
        let mut it = self.entries.iter();
        let first = it.next().expect("mbr of empty node").rect;
        it.fold(first, |acc, e| acc.union(&e.rect))
    }

    /// Byte length of one serialized entry at `level` given the payload
    /// size for that level.
    pub fn entry_encoded_len(payload_size: usize) -> usize {
        REF_LEN + Rect::<N>::ENCODED_LEN + payload_size
    }

    /// Serializes the node into the payload bytes of its whole extent —
    /// `nblocks × PAGE_PAYLOAD`, zero past the last entry — which is what
    /// gets sealed and written: the full extent every time, so stale
    /// entries cannot resurface.
    ///
    /// `payload_size` is the tree's entry payload size at this node's
    /// level; every entry's payload must have exactly that length.
    ///
    /// # Panics
    /// Panics if the entries do not fit in `nblocks` blocks.
    pub fn encode(&self, payload_size: usize, nblocks: u16) -> Vec<u8> {
        let entry_len = Self::entry_encoded_len(payload_size);
        let mut out = vec![0u8; nblocks as usize * PAGE_PAYLOAD];
        assert!(
            NODE_HEADER_LEN + self.entries.len() * entry_len <= out.len(),
            "node {}: {} entries overflow {nblocks} blocks",
            self.id,
            self.entries.len()
        );
        out[0] = MAGIC;
        out[1] = VERSION;
        out[2..4].copy_from_slice(&self.level.to_le_bytes());
        out[4..6].copy_from_slice(&(self.entries.len() as u16).to_le_bytes());
        out[6..8].copy_from_slice(&nblocks.to_le_bytes());
        let mut pos = NODE_HEADER_LEN;
        for e in &self.entries {
            debug_assert_eq!(e.payload.len(), payload_size, "payload size mismatch");
            out[pos..pos + 8].copy_from_slice(&e.child.to_le_bytes());
            e.rect
                .encode(&mut out[pos + 8..pos + 8 + Rect::<N>::ENCODED_LEN]);
            out[pos + 8 + Rect::<N>::ENCODED_LEN..pos + entry_len].copy_from_slice(&e.payload);
            pos += entry_len;
        }
        out
    }

    /// Parses the header of a serialized node: `(level, count, nblocks)`.
    pub fn decode_header(buf: &[u8]) -> Result<(u16, u16, u16)> {
        if buf.len() < NODE_HEADER_LEN || buf[0] != MAGIC {
            return Err(StorageError::Corrupt("bad node magic".into()));
        }
        if buf[1] != VERSION {
            return Err(StorageError::Corrupt(format!(
                "bad node version {}",
                buf[1]
            )));
        }
        let level = u16::from_le_bytes(buf[2..4].try_into().expect("2 bytes"));
        let count = u16::from_le_bytes(buf[4..6].try_into().expect("2 bytes"));
        let nblocks = u16::from_le_bytes(buf[6..8].try_into().expect("2 bytes"));
        Ok((level, count, nblocks))
    }

    /// Deserializes a node from its extent bytes.
    pub fn decode(id: NodeId, buf: &[u8], payload_size: usize) -> Result<Self> {
        let (level, count, _nblocks) = Self::decode_header(buf)?;
        let entry_len = Self::entry_encoded_len(payload_size);
        let need = NODE_HEADER_LEN + count as usize * entry_len;
        if buf.len() < need {
            return Err(StorageError::Corrupt(format!(
                "node {id}: {} bytes but {count} entries need {need}",
                buf.len()
            )));
        }
        let mut entries = Vec::with_capacity(count as usize);
        let mut pos = NODE_HEADER_LEN;
        for _ in 0..count {
            let child = u64::from_le_bytes(buf[pos..pos + 8].try_into().expect("8 bytes"));
            let rect = Rect::decode(&buf[pos + 8..pos + 8 + Rect::<N>::ENCODED_LEN]);
            let payload = buf[pos + 8 + Rect::<N>::ENCODED_LEN..pos + entry_len].to_vec();
            entries.push(Entry {
                child,
                rect,
                payload,
            });
            pos += entry_len;
        }
        Ok(Self { id, level, entries })
    }
}

/// A decoded node that keeps its extent bytes in one arena buffer and
/// serves entries by offset — no per-entry `Vec<u8>` payload copies, no
/// per-entry allocation at all.
///
/// This is the one node form outside the crate: query traversals (nearest
/// neighbor, window search, signature pruning) only ever need indexed
/// access to `child`, `rect`, and a borrowed `payload` slice, which
/// [`NodeBuf`] provides straight out of the arena. Mutations go through
/// the crate-private owned `Node`, decoded from the same bytes.
#[derive(Debug, Clone)]
pub struct NodeBuf<const N: usize> {
    id: NodeId,
    level: u16,
    count: usize,
    entry_len: usize,
    payload_size: usize,
    buf: Box<[u8]>,
}

impl<const N: usize> NodeBuf<N> {
    /// Takes ownership of a node's extent bytes and validates the header
    /// and entry region, exactly like the owned `Node::decode` — same error
    /// messages, one allocation total (the buffer itself, which callers
    /// typically already hold).
    pub fn decode(id: NodeId, buf: Vec<u8>, payload_size: usize) -> Result<Self> {
        let (level, count, _nblocks) = Node::<N>::decode_header(&buf)?;
        let entry_len = Node::<N>::entry_encoded_len(payload_size);
        let need = NODE_HEADER_LEN + count as usize * entry_len;
        if buf.len() < need {
            return Err(StorageError::Corrupt(format!(
                "node {id}: {} bytes but {count} entries need {need}",
                buf.len()
            )));
        }
        Ok(Self {
            id,
            level,
            count: count as usize,
            entry_len,
            payload_size,
            buf: buf.into_boxed_slice(),
        })
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
    fn entry_at(&self, i: usize) -> &[u8] {
        debug_assert!(
            i < self.count,
            "entry index {i} out of range {}",
            self.count
        );
        let pos = NODE_HEADER_LEN + i * self.entry_len;
        &self.buf[pos..pos + self.entry_len]
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use ir2_geo::Point;

    fn rect(a: f64, b: f64) -> Rect<2> {
        Rect::from_corners(Point::new([a, b]), Point::new([a + 1.0, b + 1.0]))
    }

    #[test]
    fn encode_decode_roundtrip_with_payload() {
        let mut node = Node::<2>::new(5, 1);
        for i in 0..7u64 {
            node.entries.push(Entry::new(
                100 + i,
                rect(i as f64, -(i as f64)),
                vec![i as u8; 9],
            ));
        }
        let bytes = node.encode(9, 2);
        let back = Node::<2>::decode(5, &bytes, 9).unwrap();
        assert_eq!(back, node);
    }

    #[test]
    fn encode_decode_zero_payload() {
        let mut node = Node::<2>::new(0, 0);
        node.entries.push(Entry::new(42, rect(1.0, 2.0), vec![]));
        let bytes = node.encode(0, 1);
        let back = Node::<2>::decode(0, &bytes, 0).unwrap();
        assert_eq!(back, node);
        assert!(back.is_leaf());
    }

    #[test]
    fn header_fields_survive() {
        let node = Node::<2>::new(9, 3);
        let bytes = node.encode(4, 7);
        assert_eq!(Node::<2>::decode_header(&bytes).unwrap(), (3, 0, 7));
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(Node::<2>::decode(0, &[0u8; 16], 0).is_err());
        let node = Node::<2>::new(0, 0);
        let mut bytes = node.encode(0, 1);
        bytes[1] = 99; // bad version
        assert!(Node::<2>::decode(0, &bytes, 0).is_err());
    }

    #[test]
    fn decode_rejects_truncated_entries() {
        let mut node = Node::<2>::new(0, 0);
        node.entries.push(Entry::new(1, rect(0.0, 0.0), vec![]));
        node.entries.push(Entry::new(2, rect(1.0, 1.0), vec![]));
        let bytes = node.encode(0, 1);
        let need = NODE_HEADER_LEN + 2 * Node::<2>::entry_encoded_len(0);
        assert!(Node::<2>::decode(0, &bytes[..need], 0).is_ok());
        assert!(Node::<2>::decode(0, &bytes[..need - 10], 0).is_err());
    }

    #[test]
    fn nodebuf_accessors_match_owned_decode() {
        let mut node = Node::<2>::new(5, 1);
        for i in 0..7u64 {
            node.entries.push(Entry::new(
                100 + i,
                rect(i as f64, -(i as f64)),
                vec![i as u8; 9],
            ));
        }
        let bytes = node.encode(9, 2);
        let nb = NodeBuf::<2>::decode(5, bytes, 9).unwrap();
        assert_eq!(nb.id(), 5);
        assert_eq!(nb.level(), 1);
        assert!(!nb.is_leaf());
        assert_eq!(nb.len(), 7);
        assert!(!nb.is_empty());
        assert_eq!(nb.payload_size(), 9);
        for (i, e) in node.entries.iter().enumerate() {
            assert_eq!(nb.child(i), e.child);
            assert_eq!(nb.rect(i), e.rect);
            assert_eq!(nb.payload(i), e.payload.as_slice());
        }
        assert_eq!(nb.mbr(), node.mbr());
        assert_eq!(
            nb.children().collect::<Vec<_>>(),
            node.entries.iter().map(|e| e.child).collect::<Vec<_>>()
        );
        assert_eq!(nb.payloads().count(), 7);
    }

    #[test]
    fn nodebuf_rejects_what_node_rejects() {
        assert!(NodeBuf::<2>::decode(0, vec![0u8; 16], 0).is_err());
        let mut node = Node::<2>::new(0, 0);
        node.entries.push(Entry::new(1, rect(0.0, 0.0), vec![]));
        node.entries.push(Entry::new(2, rect(1.0, 1.0), vec![]));
        let bytes = node.encode(0, 1);
        let need = NODE_HEADER_LEN + 2 * Node::<2>::entry_encoded_len(0);
        let truncated = bytes[..need - 10].to_vec();
        assert!(NodeBuf::<2>::decode(0, truncated, 0).is_err());
        let mut bad_ver = bytes.clone();
        bad_ver[1] = 99;
        assert!(NodeBuf::<2>::decode(0, bad_ver, 0).is_err());
    }

    #[test]
    fn mbr_covers_all_entries() {
        let mut node = Node::<2>::new(0, 0);
        node.entries.push(Entry::new(1, rect(0.0, 0.0), vec![]));
        node.entries.push(Entry::new(2, rect(5.0, -3.0), vec![]));
        let mbr = node.mbr();
        for e in &node.entries {
            assert!(mbr.contains(&e.rect));
        }
    }
}
