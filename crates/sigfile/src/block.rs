//! Bit-sliced signature blocks and the containment kernels.
//!
//! The IR²-Tree's textual pruning power rests on one inner loop: "s
//! matches w" containment tests over superimposed-coding signatures. A
//! node's signatures can be tested where they lie on the page
//! ([`payloads_mask_into`]), or — for a node that is read again — through a
//! [`SignatureBlock`], the bit-sliced organisation of the signature-file
//! literature \[FC84\]: one bitmap over the node's entries per signature
//! *bit*, so a query ANDs together only the bitmaps of the few bits it sets
//! instead of fetching every entry's whole row.
//!
//! Both kernels are query-major. The block ANDs one column per query bit;
//! the in-place kernel walks one 64-bit query word at a time across the
//! page's payloads, at the page's fixed entry stride, and tests it only in
//! the entries that still match. A query word with no bits set costs
//! nothing, and both stop as soon as no entry is left.
//!
//! Exactness contract: every kernel in this module computes *precisely*
//! the per-entry scalar result ([`Signature::contains`]) — same bits, same
//! answers, no tolerance. A block has no column for a position at or beyond
//! `bits`, so garbage in a payload's padding bits cannot flip a verdict. The
//! tests compute the scalar result themselves and compare every kernel
//! with it.

use crate::Signature;

/// Up to eight little-endian bytes as a word, zero-extended — the last
/// chunk of a payload whose length is not a multiple of eight is short.
#[inline]
fn le_word(chunk: &[u8]) -> u64 {
    match chunk.first_chunk::<8>() {
        Some(word) => u64::from_le_bytes(*word),
        None => {
            let mut last = [0u8; 8];
            last[..chunk.len()].copy_from_slice(chunk);
            u64::from_le_bytes(last)
        }
    }
}

/// Transposes a 64×64 bit matrix in place: afterwards bit `r` of `m[c]` is
/// what bit `c` of `m[r]` was. Six rounds of block swaps — the off-diagonal
/// 32×32 blocks, then the 16×16 ones inside each quadrant, … down to single
/// bits — each a masked exchange between row `k` and row `k + width`.
fn transpose64(m: &mut [u64; 64]) {
    let mut width = 32;
    let mut low = 0x0000_0000_FFFF_FFFFu64;
    while width != 0 {
        for rows in m.chunks_exact_mut(2 * width) {
            let (upper, lower) = rows.split_at_mut(width);
            for (a, b) in upper.iter_mut().zip(lower) {
                let t = ((*a >> width) ^ *b) & low;
                *a ^= t << width;
                *b ^= t;
            }
        }
        width >>= 1;
        low ^= low << width;
    }
}

/// Positions of the set bits of a little-endian word slice, ascending.
fn ones(words: &[u64]) -> impl Iterator<Item = usize> + '_ {
    words.iter().enumerate().flat_map(|(wi, &w)| {
        std::iter::successors((w != 0).then_some(w), |&rest| {
            let next = rest & (rest - 1);
            (next != 0).then_some(next)
        })
        .map(move |rest| wi * 64 + rest.trailing_zeros() as usize)
    })
}

/// All entry signatures of one node, bit-sliced: column `b` is a bitmap
/// over the entries — bit `i % 64` of `words[b · stride + i / 64]` is bit
/// `b` of entry `i`, `stride = count.div_ceil(64)` — and only columns
/// `b < bits` exist.
///
/// [`matches_mask_into`](SignatureBlock::matches_mask_into) ANDs the columns
/// of the query's set bits: a 1 512-bit Hotels query with three keywords
/// reads at most twelve 16-byte columns of a 100-entry node, where a
/// row-major block fetched a cache line from each of the hundred 192-byte
/// rows. Building the block is a bit-matrix transpose of the page's
/// payloads, dearer than copying them, so callers build one only for a node
/// that will be read again: `ir2-irtree` builds it when a node image is
/// installed in the tree's node cache, and a tree without a cache tests its
/// entries in place with [`payloads_mask_into`].
#[derive(Clone, Debug)]
pub struct SignatureBlock {
    bits: usize,
    count: usize,
    stride: usize,
    words: Box<[u64]>,
}

impl SignatureBlock {
    /// Builds a block from raw on-disk signature payloads (each exactly
    /// `bits.div_ceil(8)` bytes, little-endian — the format
    /// [`Signature::write_bytes`] produces).
    ///
    /// # Panics
    /// Panics if any payload has the wrong length.
    pub fn from_payloads<'a>(bits: usize, payloads: impl IntoIterator<Item = &'a [u8]>) -> Self {
        let byte_len = bits.div_ceil(8);
        let rows: Vec<&[u8]> = payloads.into_iter().collect();
        for p in &rows {
            assert_eq!(p.len(), byte_len, "signature payload length mismatch");
        }
        Self::transposed(bits, &rows, |p| p.chunks(8).map(le_word))
    }

    /// Builds a block from decoded signatures (the same layout
    /// [`from_payloads`](SignatureBlock::from_payloads) gives their
    /// serialized form).
    ///
    /// # Panics
    /// Panics if any signature's length differs from `bits`.
    pub fn from_signatures<'a>(bits: usize, sigs: impl IntoIterator<Item = &'a Signature>) -> Self {
        let rows: Vec<&Signature> = sigs.into_iter().collect();
        for s in &rows {
            assert_eq!(s.bits(), bits, "signature length mismatch");
        }
        Self::transposed(bits, &rows, |s| s.words().iter().copied())
    }

    /// The build both constructors share. Sixty-four entries at a time, word
    /// `j` of every entry goes into row `entry` of the `j`-th 64×64 bit
    /// matrix; each matrix is transposed, and its rows — now one bitmap per
    /// signature bit — are stored as columns `64j..64j + 64`. Rows at or
    /// beyond `bits` have no column to go to, which is where the padding
    /// bits of the last payload byte are dropped.
    fn transposed<R, W: Iterator<Item = u64>>(
        bits: usize,
        rows: &[R],
        words_of: impl Fn(&R) -> W,
    ) -> Self {
        let stride = rows.len().div_ceil(64);
        let mut words = vec![0u64; bits * stride];
        let mut matrices = vec![[0u64; 64]; bits.div_ceil(64)];
        for (g, group) in rows.chunks(64).enumerate() {
            for (r, row) in group.iter().enumerate() {
                for (m, word) in matrices.iter_mut().zip(words_of(row)) {
                    m[r] = word;
                }
            }
            for (j, m) in matrices.iter_mut().enumerate() {
                transpose64(m);
                for (column, &bitmap) in words[64 * j * stride..]
                    .chunks_exact_mut(stride)
                    .zip(m.iter())
                {
                    column[g] = bitmap;
                }
                // The next group may be shorter: leave no row behind.
                *m = [0u64; 64];
            }
        }
        Self {
            bits,
            count: rows.len(),
            stride,
            words: words.into_boxed_slice(),
        }
    }

    /// Number of signatures in the block.
    pub fn len(&self) -> usize {
        self.count
    }

    /// True if the block holds no signatures.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Signature length in bits.
    pub fn bits(&self) -> usize {
        self.bits
    }

    /// The bitmap of signature bit `b` over the entries.
    #[inline]
    fn column(&self, b: usize) -> &[u64] {
        &self.words[b * self.stride..(b + 1) * self.stride]
    }

    /// Bit `b` of entry `i`.
    #[inline]
    fn bit(&self, b: usize, i: usize) -> bool {
        assert!(
            i < self.count,
            "entry index {i} out of range {}",
            self.count
        );
        self.column(b)[i / 64] >> (i % 64) & 1 == 1
    }

    /// Per-entry scalar containment — the reference the batched kernel is
    /// differentially tested against: every bit the query sets is set in
    /// entry `i`.
    pub fn contains_at(&self, i: usize, query: &Signature) -> bool {
        assert_eq!(self.bits, query.bits(), "signature length mismatch");
        ones(query.words()).all(|b| self.bit(b, i))
    }

    /// Decodes entry `i` back into an owned [`Signature`].
    pub fn signature_at(&self, i: usize) -> Signature {
        let mut sig = Signature::zero(self.bits);
        for b in (0..self.bits).filter(|&b| self.bit(b, i)) {
            sig.set(b);
        }
        sig
    }

    /// Number of set bits in entry `i`.
    pub fn count_ones_at(&self, i: usize) -> u32 {
        (0..self.bits).filter(|&b| self.bit(b, i)).count() as u32
    }

    /// Total set bits across all entries (the stats line's raw sum).
    pub fn set_bits_total(&self) -> u64 {
        self.words.iter().map(|w| u64::from(w.count_ones())).sum()
    }

    /// Mean fraction of set bits per entry (0.0 for empty or 0-bit blocks,
    /// matching [`Signature::density`]'s finite-by-construction contract).
    pub fn mean_density(&self) -> f64 {
        if self.count == 0 || self.bits == 0 {
            0.0
        } else {
            self.set_bits_total() as f64 / (self.count * self.bits) as f64
        }
    }

    /// Superimposes (ORs) every entry into one signature — the parent
    /// summary of the paper's AdjustTree: bit `b` is set iff column `b` is
    /// not empty.
    pub fn superimpose_all(&self) -> Signature {
        let mut sig = Signature::zero(self.bits);
        for b in 0..self.bits {
            if self.column(b).iter().any(|&w| w != 0) {
                sig.set(b);
            }
        }
        sig
    }

    /// Batched containment into a caller-owned mask (no allocation once
    /// the mask has grown to the block's size): start from "every entry
    /// matches" and AND in the column of each bit the query sets, stopping
    /// once no entry is left. One loop for every signature width; an empty
    /// query (or a 0-bit scheme) ANDs nothing and matches everything.
    ///
    /// # Panics
    /// Panics if `query.bits() != self.bits()`.
    pub fn matches_mask_into(&self, query: &Signature, out: &mut EntryMask) {
        assert_eq!(self.bits, query.bits(), "signature length mismatch");
        out.reset_all_set(self.count);
        for b in ones(query.words()) {
            let mut live = 0u64;
            for (verdicts, bitmap) in out.words.iter_mut().zip(self.column(b)) {
                *verdicts &= bitmap;
                live |= *verdicts;
            }
            if live == 0 {
                return;
            }
        }
    }
}

/// Zero-copy containment against a serialized signature (the exact bytes
/// [`Signature::write_bytes`] produces, e.g. an SSF page entry or a tree
/// node payload): words are assembled with little-endian loads and tested
/// in place, stopping at the first one that lacks a query bit — no per-entry
/// `Signature` decode, no heap traffic, and for the common non-matching
/// entry no more of the payload read than that word's cache line.
///
/// Exact because serialization is little-endian words truncated to
/// `byte_len` and the query keeps bits beyond `bits` at zero.
///
/// # Panics
/// Panics if `sig_bytes.len() != query.byte_len()`.
pub fn payload_contains(sig_bytes: &[u8], query: &Signature) -> bool {
    assert_eq!(
        sig_bytes.len(),
        query.byte_len(),
        "signature payload length mismatch"
    );
    // A zero query word asks nothing: its payload bytes are not read.
    sig_bytes
        .chunks(8)
        .zip(query.words())
        .all(|(chunk, &q)| q == 0 || le_word(chunk) & q == q)
}

/// The containment mask of a node tested where it lies: bit `i` of `out`
/// is [`payload_contains`] of entry `i`'s payload, the serialized
/// signature at `region[i * stride..i * stride + query.byte_len()]` — the
/// same mask a [`SignatureBlock`] of these payloads would give, with
/// nothing built and (once `out` has grown) nothing allocated. This is the
/// path for a node that is not known to be read again; a page hands over
/// its payloads this way (`NodeBuf::payload_region` in `ir2-rtree`).
///
/// Word-major: starting from "every entry matches", each non-zero query
/// word is loaded from the entries still live, and only from them, and the
/// kernel stops once none is. A payload's last word may be short
/// (`byte_len` not a multiple of 8); only its own bytes are read, so the
/// last entry's payload may end the region.
///
/// # Panics
/// Panics if `count` payloads of `query.byte_len()` bytes at `stride` do
/// not fit in `region`, or if `stride` is shorter than a payload.
pub fn payloads_mask_into(
    region: &[u8],
    stride: usize,
    count: usize,
    query: &Signature,
    out: &mut EntryMask,
) {
    let byte_len = query.byte_len();
    assert!(
        count == 0 || (stride >= byte_len && (count - 1) * stride + byte_len <= region.len()),
        "{count} payloads of {byte_len} bytes at stride {stride} overrun a {}-byte region",
        region.len()
    );
    out.reset_all_set(count);
    for (w, &q) in query.words().iter().enumerate() {
        if q == 0 {
            continue;
        }
        let (at, width) = (8 * w, (byte_len - 8 * w).min(8));
        let mut live = 0u64;
        for (base, verdicts) in (0..).step_by(64).zip(out.words.iter_mut()) {
            let mut rest = *verdicts;
            while rest != 0 {
                let bit = rest.trailing_zeros();
                rest &= rest - 1;
                let off = (base + bit as usize) * stride + at;
                if le_word(&region[off..off + width]) & q != q {
                    *verdicts &= !(1 << bit);
                }
            }
            live |= *verdicts;
        }
        if live == 0 {
            return;
        }
    }
}

/// Signature-vs-signature containment for call sites that keep decoded
/// [`Signature`]s (the grid index's cell summaries): accumulate
/// `(s & q) ^ q` (zero iff every query bit is present) in 4-word chunks,
/// checking for a verdict once per chunk — branch-light enough to
/// vectorize, yet it still exits early on the long 189 B signatures where a
/// miss shows up in the first words.
///
/// # Panics
/// Panics if `sig.bits() != query.bits()`.
pub fn kernel_contains(sig: &Signature, query: &Signature) -> bool {
    assert_eq!(sig.bits(), query.bits(), "signature length mismatch");
    let (row, q) = (sig.words(), query.words());
    let mut j = 0usize;
    let n = row.len();
    while j + 4 <= n {
        let acc = ((row[j] & q[j]) ^ q[j])
            | ((row[j + 1] & q[j + 1]) ^ q[j + 1])
            | ((row[j + 2] & q[j + 2]) ^ q[j + 2])
            | ((row[j + 3] & q[j + 3]) ^ q[j + 3]);
        if acc != 0 {
            return false;
        }
        j += 4;
    }
    let mut acc = 0u64;
    while j < n {
        acc |= (row[j] & q[j]) ^ q[j];
        j += 1;
    }
    acc == 0
}

/// A bitmask over a node's entries: bit `i` is the containment verdict of
/// entry `i`. Reused across node visits via
/// [`SignatureBlock::matches_mask_into`] / [`payloads_mask_into`] so
/// steady-state pruning allocates nothing.
#[derive(Clone, Debug, Default)]
pub struct EntryMask {
    words: Vec<u64>,
    len: usize,
}

impl EntryMask {
    /// An empty mask (grows on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Resizes to `len` entries, all set (bits beyond `len` stay clear, so
    /// [`count_ones`](EntryMask::count_ones) counts entries only). Keeps
    /// capacity. What a node with nothing to test admits: every entry.
    pub fn reset_all_set(&mut self, len: usize) {
        self.words.clear();
        self.words.resize(len.div_ceil(64), !0);
        if !len.is_multiple_of(64) {
            *self.words.last_mut().expect("len > 0") = (1u64 << (len % 64)) - 1;
        }
        self.len = len;
    }

    /// Resizes to `len` entries, none set. Keeps capacity. Where a union of
    /// verdicts starts ([`union_with`](EntryMask::union_with)).
    pub fn reset_none_set(&mut self, len: usize) {
        self.words.clear();
        self.words.resize(len.div_ceil(64), 0);
        self.len = len;
    }

    /// Sets every entry `other` sets: entry `i` is then admitted by either
    /// verdict.
    ///
    /// # Panics
    /// Panics if the masks cover different numbers of entries.
    pub fn union_with(&mut self, other: &EntryMask) {
        assert_eq!(self.len, other.len, "masks over different entry counts");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// Verdict for entry `i`.
    ///
    /// # Panics
    /// Panics if `i >= len()`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "entry index {i} out of range {}", self.len);
        self.words[i / 64] >> (i % 64) & 1 == 1
    }

    /// Number of entries covered.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no entries are covered.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of matching entries.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Iterates the indices of matching entries in ascending order.
    pub fn ones(&self) -> impl Iterator<Item = usize> + '_ {
        ones(&self.words)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SignatureScheme;

    fn doc_sigs(bits: usize, n: usize) -> Vec<Signature> {
        let scheme = SignatureScheme::new(bits, 4, 9);
        (0..n)
            .map(|i| {
                let terms: Vec<String> = (0..(i % 7 + 1)).map(|j| format!("t{i}-{j}")).collect();
                scheme.sign_terms(terms.iter().map(String::as_str))
            })
            .collect()
    }

    /// The block's mask for `query`, into a fresh [`EntryMask`].
    fn mask_of(block: &SignatureBlock, query: &Signature) -> EntryMask {
        let mut mask = EntryMask::new();
        block.matches_mask_into(query, &mut mask);
        mask
    }

    fn block_of(bits: usize, sigs: &[Signature]) -> SignatureBlock {
        // Round-trip through serialized payloads, like the tree does.
        let payloads: Vec<Vec<u8>> = sigs
            .iter()
            .map(|s| {
                let mut b = vec![0u8; s.byte_len()];
                s.write_bytes(&mut b);
                b
            })
            .collect();
        SignatureBlock::from_payloads(bits, payloads.iter().map(Vec::as_slice))
    }

    /// A matrix with no symmetry a wrong transpose could hide behind.
    fn scrambled_matrix() -> [u64; 64] {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        std::array::from_fn(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        })
    }

    #[test]
    fn transpose64_equals_a_naive_bit_loop() {
        let m = scrambled_matrix();
        let mut fast = m;
        transpose64(&mut fast);
        for (c, &column) in fast.iter().enumerate() {
            for (r, &row) in m.iter().enumerate() {
                assert_eq!(column >> r & 1, row >> c & 1, "row {r} column {c}");
            }
        }
    }

    #[test]
    fn transpose64_is_an_involution() {
        let m = scrambled_matrix();
        let mut twice = m;
        transpose64(&mut twice);
        assert_ne!(twice, m);
        transpose64(&mut twice);
        assert_eq!(twice, m);
    }

    #[test]
    fn mask_equals_scalar_contains_across_widths() {
        for bits in [8usize, 64, 100, 128, 200, 1512] {
            let sigs = doc_sigs(bits, 70);
            let block = block_of(bits, &sigs);
            let scheme = SignatureScheme::new(bits, 4, 9);
            for probe in ["t3-0", "t10-1", "absent", "t64-2"] {
                let q = scheme.sign_term(probe);
                let mask = mask_of(&block, &q);
                assert_eq!(mask.len(), sigs.len());
                for (i, s) in sigs.iter().enumerate() {
                    assert_eq!(
                        mask.get(i),
                        s.contains(&q),
                        "bits={bits} probe={probe} entry={i}"
                    );
                    assert_eq!(block.contains_at(i, &q), s.contains(&q));
                }
            }
        }
    }

    #[test]
    fn tail_word_padding_garbage_is_masked() {
        // 100-bit signatures occupy 13 bytes = 104 bits; the 4 padding
        // bits must not affect verdicts even if an (adversarial) payload
        // carries them set.
        let bits = 100;
        let mut payload = vec![0u8; 13];
        payload[12] = 0xF0; // garbage above bit 100 only
        let block = SignatureBlock::from_payloads(bits, [payload.as_slice()]);
        assert_eq!(block.count_ones_at(0), 0, "padding bits must be masked");
        let q = Signature::zero(bits);
        assert!(mask_of(&block, &q).get(0), "empty query always matches");
    }

    #[test]
    fn zero_bit_scheme_is_vacuous() {
        let block = SignatureBlock::from_payloads(0, [&[][..], &[][..]]);
        assert_eq!(block.len(), 2);
        assert_eq!(block.bits(), 0);
        let q = Signature::zero(0);
        let mask = mask_of(&block, &q);
        assert!(mask.get(0) && mask.get(1));
        assert_eq!(mask.count_ones(), 2);
        assert_eq!(block.mean_density(), 0.0);
    }

    #[test]
    fn superimpose_all_equals_fold() {
        let bits = 200;
        let sigs = doc_sigs(bits, 33);
        let block = block_of(bits, &sigs);
        let mut want = Signature::zero(bits);
        for s in &sigs {
            want.or_assign(s);
        }
        assert_eq!(block.superimpose_all(), want);
        for s in &sigs {
            assert!(block.superimpose_all().contains(s), "tree invariant");
        }
    }

    #[test]
    fn signature_at_roundtrips() {
        let bits = 129;
        let sigs = doc_sigs(bits, 10);
        let block = block_of(bits, &sigs);
        for (i, s) in sigs.iter().enumerate() {
            assert_eq!(&block.signature_at(i), s);
            assert_eq!(block.count_ones_at(i), s.count_ones());
        }
    }

    #[test]
    fn bytes_contain_matches_decode_path() {
        for bits in [8usize, 100, 1512] {
            let scheme = SignatureScheme::new(bits, 4, 9);
            for i in 0..50 {
                let s = scheme.sign_terms([format!("d{i}a").as_str(), format!("d{i}b").as_str()]);
                let mut buf = vec![0u8; s.byte_len()];
                s.write_bytes(&mut buf);
                for probe in [format!("d{i}a"), "absent".to_string()] {
                    let q = scheme.sign_term(&probe);
                    assert_eq!(
                        payload_contains(&buf, &q),
                        Signature::from_bytes(bits, &buf).contains(&q),
                        "bits={bits} i={i} probe={probe}"
                    );
                    assert_eq!(kernel_contains(&s, &q), s.contains(&q));
                }
            }
        }
    }

    #[test]
    fn ones_iterator_reports_exactly_the_set_entries() {
        let bits = 64;
        let sigs = doc_sigs(bits, 130); // > 2 mask words
        let block = block_of(bits, &sigs);
        let q = SignatureScheme::new(bits, 4, 9).sign_term("t17-0");
        let mask = mask_of(&block, &q);
        let from_iter: Vec<usize> = mask.ones().collect();
        let from_get: Vec<usize> = (0..mask.len()).filter(|&i| mask.get(i)).collect();
        assert_eq!(from_iter, from_get);
        assert_eq!(from_iter.len(), mask.count_ones());
    }

    #[test]
    fn empty_block_yields_empty_mask() {
        let block = SignatureBlock::from_payloads(64, std::iter::empty());
        assert!(block.is_empty());
        let mask = mask_of(&block, &Signature::zero(64));
        assert_eq!(mask.len(), 0);
        assert_eq!(mask.count_ones(), 0);
        assert_eq!(mask.ones().count(), 0);
    }
}
