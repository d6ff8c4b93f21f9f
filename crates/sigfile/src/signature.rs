//! Bit-vector signatures.

use std::fmt;

/// A fixed-length bit vector: one superimposed-coding signature.
///
/// Signatures support exactly the operations the IR²-Tree needs:
///
/// * **superimposition** ([`or_assign`](Signature::or_assign)) — a node's
///   signature is "the superimposition (OR-ing) of all the signatures of
///   its entries";
/// * **containment** ([`contains`](Signature::contains)) — "s matches w"
///   in the paper's `IR2NearestNeighbor`: every bit set in the query
///   signature is set in the node/object signature. Containment can
///   produce *false positives* (the whole point of the verify step at
///   line 21 of `IR2TopK`) but never false negatives.
///
/// Bits are stored in 64-bit words; [`byte_len`](Signature::byte_len) bytes
/// are written to disk (the paper quotes signature lengths in bytes, e.g.
/// 189 B for Hotels and 8 B for Restaurants).
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Signature {
    bits: usize,
    words: Box<[u64]>,
}

impl Signature {
    /// An all-zero signature of `bits` bits.
    ///
    /// `bits == 0` is allowed and yields the degenerate empty signature
    /// (no storage, density 0.0, contains only itself) — useful as an
    /// inert placeholder; [`SignatureScheme`](crate::SignatureScheme)
    /// still rejects zero-length schemes at construction.
    pub fn zero(bits: usize) -> Self {
        Self {
            bits,
            words: vec![0u64; bits.div_ceil(64)].into_boxed_slice(),
        }
    }

    /// Number of bits.
    #[inline]
    pub fn bits(&self) -> usize {
        self.bits
    }

    /// Number of bytes the signature occupies on disk.
    #[inline]
    pub fn byte_len(&self) -> usize {
        self.bits.div_ceil(8)
    }

    /// Sets bit `i`.
    ///
    /// # Panics
    /// Panics if `i >= bits`.
    #[inline]
    pub fn set(&mut self, i: usize) {
        assert!(i < self.bits, "bit index {i} out of range {}", self.bits);
        self.words[i / 64] |= 1u64 << (i % 64);
    }

    /// Reads bit `i`.
    ///
    /// # Panics
    /// Panics if `i >= bits`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.bits, "bit index {i} out of range {}", self.bits);
        self.words[i / 64] >> (i % 64) & 1 == 1
    }

    /// Superimposes `other` onto `self` (bitwise OR).
    ///
    /// # Panics
    /// Panics if lengths differ — superimposing signatures from different
    /// schemes is always a logic error.
    pub fn or_assign(&mut self, other: &Self) {
        assert_eq!(self.bits, other.bits, "signature length mismatch");
        for (a, b) in self.words.iter_mut().zip(other.words.iter()) {
            *a |= b;
        }
    }

    /// True if every bit set in `query` is also set in `self` — the
    /// signature match test (`self & query == query`).
    #[inline]
    pub fn contains(&self, query: &Self) -> bool {
        assert_eq!(self.bits, query.bits, "signature length mismatch");
        self.words
            .iter()
            .zip(query.words.iter())
            .all(|(s, q)| s & q == *q)
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> u32 {
        self.words.iter().map(|w| w.count_ones()).sum()
    }

    /// Fraction of bits set — the signature *weight*; superimposed-coding
    /// false-positive analysis says the optimum operating point is ~0.5.
    ///
    /// The degenerate 0-bit signature has density `0.0`, not `NaN` —
    /// downstream density aggregation (diagnostics, exported metrics)
    /// must stay finite.
    pub fn density(&self) -> f64 {
        if self.bits == 0 {
            0.0
        } else {
            self.count_ones() as f64 / self.bits as f64
        }
    }

    /// True if no bit is set.
    pub fn is_zero(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Serializes the signature into `out` (exactly
    /// [`byte_len`](Signature::byte_len) bytes, little-endian bit order).
    ///
    /// # Panics
    /// Panics if `out.len() != self.byte_len()`.
    pub fn write_bytes(&self, out: &mut [u8]) {
        assert_eq!(out.len(), self.byte_len(), "signature buffer mismatch");
        for (i, b) in out.iter_mut().enumerate() {
            let word = self.words[i / 8];
            *b = (word >> (8 * (i % 8))) as u8;
        }
    }

    /// The backing 64-bit words (little-endian bit order; bits beyond
    /// [`bits`](Signature::bits) in the last word are always zero). This is
    /// the representation the batched
    /// [`SignatureBlock`](crate::SignatureBlock) kernels operate on.
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Builds a signature directly from backing words.
    ///
    /// # Panics
    /// Panics if `words.len() != bits.div_ceil(64)` or if any bit beyond
    /// `bits` is set in the last word (the zero-padding invariant every
    /// other operation relies on).
    pub fn from_words(bits: usize, words: Vec<u64>) -> Self {
        assert_eq!(words.len(), bits.div_ceil(64), "signature word mismatch");
        if !bits.is_multiple_of(64) {
            let mask = (1u64 << (bits % 64)) - 1;
            assert_eq!(
                words[bits / 64] & !mask,
                0,
                "bits beyond the signature length must be zero"
            );
        }
        Self {
            bits,
            words: words.into_boxed_slice(),
        }
    }

    /// Deserializes a signature of `bits` bits from `buf`.
    ///
    /// # Panics
    /// Panics if `buf.len() != bits.div_ceil(8)`.
    pub fn from_bytes(bits: usize, buf: &[u8]) -> Self {
        let mut sig = Self::zero(bits);
        assert_eq!(buf.len(), sig.byte_len(), "signature buffer mismatch");
        for (i, &b) in buf.iter().enumerate() {
            sig.words[i / 8] |= (b as u64) << (8 * (i % 8));
        }
        sig
    }
}

impl fmt::Debug for Signature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Signature({} bits, {} set, density {:.2})",
            self.bits,
            self.count_ones(),
            self.density()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_bit_signature_is_inert_and_density_is_finite() {
        let s = Signature::zero(0);
        assert_eq!(s.bits(), 0);
        assert_eq!(s.byte_len(), 0);
        assert_eq!(s.count_ones(), 0);
        assert!(s.is_zero());
        assert_eq!(s.density(), 0.0, "0-bit density must be 0.0, not NaN");
        assert!(s.density().is_finite());
        assert!(s.contains(&Signature::zero(0)), "vacuous containment");
    }

    #[test]
    fn density_counts_set_fraction() {
        let mut s = Signature::zero(8);
        assert_eq!(s.density(), 0.0);
        s.set(0);
        s.set(5);
        assert_eq!(s.density(), 0.25);
    }

    #[test]
    fn set_get_roundtrip() {
        let mut s = Signature::zero(130);
        for i in [0, 63, 64, 65, 128, 129] {
            assert!(!s.get(i));
            s.set(i);
            assert!(s.get(i));
        }
        assert_eq!(s.count_ones(), 6);
    }

    #[test]
    fn superimposition_is_union() {
        let mut a = Signature::zero(64);
        a.set(1);
        a.set(10);
        let mut b = Signature::zero(64);
        b.set(10);
        b.set(40);
        a.or_assign(&b);
        assert!(a.get(1) && a.get(10) && a.get(40));
        assert_eq!(a.count_ones(), 3);
    }

    #[test]
    fn containment_semantics() {
        let mut node = Signature::zero(96);
        node.set(3);
        node.set(70);
        node.set(90);
        let mut q = Signature::zero(96);
        q.set(3);
        q.set(90);
        assert!(node.contains(&q));
        q.set(5); // a bit the node lacks
        assert!(!node.contains(&q));
        // Everything contains the empty signature.
        assert!(node.contains(&Signature::zero(96)));
    }

    #[test]
    fn containment_after_superimposition() {
        // A parent's signature must contain each child's — the tree invariant.
        let mut child1 = Signature::zero(77);
        child1.set(5);
        child1.set(76);
        let mut child2 = Signature::zero(77);
        child2.set(33);
        let mut parent = Signature::zero(77);
        parent.or_assign(&child1);
        parent.or_assign(&child2);
        assert!(parent.contains(&child1));
        assert!(parent.contains(&child2));
    }

    #[test]
    fn bytes_roundtrip_non_multiple_of_eight() {
        let mut s = Signature::zero(100);
        for i in [0, 7, 8, 64, 99] {
            s.set(i);
        }
        let mut buf = vec![0u8; s.byte_len()];
        s.write_bytes(&mut buf);
        assert_eq!(buf.len(), 13);
        let back = Signature::from_bytes(100, &buf);
        assert_eq!(back, s);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        let a = Signature::zero(64);
        let b = Signature::zero(128);
        let _ = a.contains(&b);
    }

    #[test]
    fn density_of_half_set() {
        let mut s = Signature::zero(64);
        for i in 0..32 {
            s.set(i);
        }
        assert_eq!(s.density(), 0.5);
    }
}
