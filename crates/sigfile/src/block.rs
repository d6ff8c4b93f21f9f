//! Columnar signature storage and batched containment kernels.
//!
//! The IR²-Tree's textual pruning power rests on one inner loop: "s
//! matches w" containment tests over superimposed-coding signatures. A
//! per-entry `Vec<Signature>` pays a pointer chase and an iterator setup
//! per test; a [`SignatureBlock`] instead packs all of a node's (or an SSF
//! page's) entry signatures into one contiguous 64-bit-word buffer and
//! tests them with chunked word loops that the compiler can autovectorize.
//!
//! Exactness contract: every kernel in this module computes *precisely*
//! the per-entry scalar result ([`Signature::contains`]) — same bits, same
//! answers, no tolerance. Bit lengths that are not multiples of 64 are
//! handled by masking the tail word at load time, so the padding bits can
//! never flip a verdict. The [`ScalarKernelGuard`] toggle forces every
//! dispatching call site back onto the per-entry scalar path, which is how
//! the differential fuzzer (`ir2 fuzz`) pins kernel == scalar across all
//! engines and scenarios.

use std::sync::atomic::{AtomicBool, Ordering};

use crate::Signature;

/// When set, dispatching kernel entry points ([`SignatureBlock::
/// matches_mask_into`], [`kernel_contains`], [`payload_contains`]) take the
/// per-entry scalar path instead of the batched word kernels. Both paths
/// are exact, so flipping this can never change an answer — which is
/// exactly the invariant the differential fuzzer checks.
static FORCE_SCALAR: AtomicBool = AtomicBool::new(false);

/// Forces (or releases) the scalar fallback globally. Prefer
/// [`ScalarKernelGuard`] for scoped use.
pub fn force_scalar_kernels(on: bool) {
    FORCE_SCALAR.store(on, Ordering::Relaxed);
}

/// True while the scalar fallback is forced.
pub fn scalar_kernels_forced() -> bool {
    FORCE_SCALAR.load(Ordering::Relaxed)
}

/// RAII scope forcing the scalar fallback; restores the previous state on
/// drop. Used by the oracle harness's `scalar-kernel` engine variants and
/// the `sig_kernel` bench.
pub struct ScalarKernelGuard {
    prev: bool,
}

impl ScalarKernelGuard {
    /// Forces the scalar path until the guard drops.
    pub fn new() -> Self {
        let prev = FORCE_SCALAR.swap(true, Ordering::Relaxed);
        Self { prev }
    }
}

impl Default for ScalarKernelGuard {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for ScalarKernelGuard {
    fn drop(&mut self) {
        FORCE_SCALAR.store(self.prev, Ordering::Relaxed);
    }
}

/// Mask selecting the live bits of the last word of a `bits`-bit
/// signature (`!0` when `bits` is a multiple of 64).
#[inline]
fn tail_mask(bits: usize) -> u64 {
    match bits % 64 {
        0 => !0u64,
        r => (1u64 << r) - 1,
    }
}

/// Appends little-endian bytes to `out` as words, masking the tail word so
/// bits beyond `bits` are zero even if the input bytes carry garbage padding.
fn words_from_bytes(bits: usize, bytes: &[u8], out: &mut Vec<u64>) {
    debug_assert_eq!(bytes.len(), bits.div_ceil(8), "payload length mismatch");
    let mut chunks = bytes.chunks_exact(8);
    out.extend(
        chunks
            .by_ref()
            .map(|c| u64::from_le_bytes(c.try_into().expect("8 bytes"))),
    );
    let rem = chunks.remainder();
    if !rem.is_empty() {
        let mut last = [0u8; 8];
        last[..rem.len()].copy_from_slice(rem);
        out.push(u64::from_le_bytes(last));
    }
    if bits % 64 != 0 {
        *out.last_mut().expect("tail word just written") &= tail_mask(bits);
    }
}

/// All entry signatures of one node (or one SSF page) in a single
/// contiguous word buffer, row-major: entry `i` occupies words
/// `[i·w, (i+1)·w)` where `w = bits.div_ceil(64)`.
///
/// The batched kernels ([`matches_mask`](SignatureBlock::matches_mask),
/// [`superimpose_all`](SignatureBlock::superimpose_all)) walk that buffer
/// with unrolled word loops — no per-entry heap indirection, no bounds
/// checks in the hot path after the initial slice — and return bit-exact
/// scalar results.
#[derive(Clone, Debug)]
pub struct SignatureBlock {
    bits: usize,
    words_per_sig: usize,
    count: usize,
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
        let wps = bits.div_ceil(64);
        let byte_len = bits.div_ceil(8);
        let payloads = payloads.into_iter();
        let mut words: Vec<u64> = Vec::with_capacity(payloads.size_hint().0 * wps);
        let mut count = 0usize;
        for p in payloads {
            assert_eq!(p.len(), byte_len, "signature payload length mismatch");
            words_from_bytes(bits, p, &mut words);
            count += 1;
        }
        Self {
            bits,
            words_per_sig: wps,
            count,
            words: words.into_boxed_slice(),
        }
    }

    /// Builds a block from decoded signatures.
    ///
    /// # Panics
    /// Panics if any signature's length differs from `bits`.
    pub fn from_signatures<'a>(bits: usize, sigs: impl IntoIterator<Item = &'a Signature>) -> Self {
        let wps = bits.div_ceil(64);
        let mut words: Vec<u64> = Vec::new();
        let mut count = 0usize;
        for s in sigs {
            assert_eq!(s.bits(), bits, "signature length mismatch");
            words.extend_from_slice(s.words());
            count += 1;
        }
        debug_assert_eq!(words.len(), count * wps);
        Self {
            bits,
            words_per_sig: wps,
            count,
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

    /// Words per signature row (`bits.div_ceil(64)`).
    pub fn words_per_sig(&self) -> usize {
        self.words_per_sig
    }

    #[inline]
    fn row(&self, i: usize) -> &[u64] {
        &self.words[i * self.words_per_sig..(i + 1) * self.words_per_sig]
    }

    /// Per-entry scalar containment — the reference the batched kernels
    /// are differentially tested against (`row & query == query`).
    #[inline]
    pub fn contains_at(&self, i: usize, query: &Signature) -> bool {
        assert_eq!(self.bits, query.bits(), "signature length mismatch");
        self.row(i)
            .iter()
            .zip(query.words())
            .all(|(s, q)| s & q == *q)
    }

    /// Decodes entry `i` back into an owned [`Signature`].
    pub fn signature_at(&self, i: usize) -> Signature {
        Signature::from_words(self.bits, self.row(i).to_vec())
    }

    /// Number of set bits in entry `i`.
    pub fn count_ones_at(&self, i: usize) -> u32 {
        self.row(i).iter().map(|w| w.count_ones()).sum()
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
    /// summary of the paper's AdjustTree, computed in one pass over the
    /// columnar buffer.
    pub fn superimpose_all(&self) -> Signature {
        let mut acc = vec![0u64; self.words_per_sig];
        for i in 0..self.count {
            for (a, w) in acc.iter_mut().zip(self.row(i)) {
                *a |= w;
            }
        }
        Signature::from_words(self.bits, acc)
    }

    /// Batched containment: returns the bitmask of entries whose signature
    /// contains `query`. Allocates a fresh mask; hot paths should hold a
    /// reusable [`EntryMask`] and call
    /// [`matches_mask_into`](SignatureBlock::matches_mask_into).
    pub fn matches_mask(&self, query: &Signature) -> EntryMask {
        let mut mask = EntryMask::default();
        self.matches_mask_into(query, &mut mask);
        mask
    }

    /// Batched containment into a caller-owned mask (no allocation once
    /// the mask has grown to the block's size). Dispatches to the word
    /// kernel, or to the per-entry scalar path under [`ScalarKernelGuard`].
    ///
    /// # Panics
    /// Panics if `query.bits() != self.bits()`.
    pub fn matches_mask_into(&self, query: &Signature, out: &mut EntryMask) {
        assert_eq!(self.bits, query.bits(), "signature length mismatch");
        out.reset(self.count);
        if scalar_kernels_forced() {
            for i in 0..self.count {
                if self.contains_at(i, query) {
                    out.set(i);
                }
            }
            return;
        }
        self.kernel_mask_into(query, out);
    }

    /// The batched word kernel. One dispatch on the row width, then tight
    /// chunked loops that keep the verdict accumulator in a register:
    /// single-word rows fold 64 verdicts into one mask word per store;
    /// wider rows screen on the first word (where a superimposed-coding
    /// mismatch almost always shows) before the unrolled full-row test.
    fn kernel_mask_into(&self, query: &Signature, out: &mut EntryMask) {
        let q = query.words();
        match self.words_per_sig {
            // 0-bit scheme: every signature (vacuously) contains the
            // empty query.
            0 => {
                for i in 0..self.count {
                    out.set(i);
                }
            }
            // ≤ 64-bit signatures (the paper's 8 B Restaurants scheme):
            // one word per entry; 64 verdicts accumulate in a register and
            // store once per mask word — no per-entry memory traffic.
            1 => {
                let qw = q[0];
                for (wi, chunk) in self.words.chunks(64).enumerate() {
                    // Four independent accumulators break the or-chain
                    // dependency so verdict bits retire in parallel; one
                    // store per 64 entries, no per-entry memory traffic.
                    let mut acc = [0u64; 4];
                    let mut quads = chunk.chunks_exact(4);
                    let mut b = 0u32;
                    for quad in &mut quads {
                        acc[0] |= u64::from((quad[0] & qw) ^ qw == 0) << b;
                        acc[1] |= u64::from((quad[1] & qw) ^ qw == 0) << (b + 1);
                        acc[2] |= u64::from((quad[2] & qw) ^ qw == 0) << (b + 2);
                        acc[3] |= u64::from((quad[3] & qw) ^ qw == 0) << (b + 3);
                        b += 4;
                    }
                    let mut m = acc[0] | acc[1] | acc[2] | acc[3];
                    for &w in quads.remainder() {
                        m |= u64::from((w & qw) ^ qw == 0) << b;
                        b += 1;
                    }
                    out.words[wi] = m;
                }
            }
            wps => {
                // Screen on the first word that actually carries query
                // bits — all-zero query words trivially pass containment,
                // so a sparse long query (a few probes in dozens of
                // words) would otherwise defeat a word-0 screen. A row
                // that misses a query bit in the screen word (the common
                // case for a non-matching entry) costs one load.
                let Some(si) = q.iter().position(|&w| w != 0) else {
                    // Empty query: every signature matches vacuously.
                    for i in 0..self.count {
                        out.set(i);
                    }
                    return;
                };
                let sw = q[si];
                for i in 0..self.count {
                    let base = i * wps;
                    if (self.words[base + si] & sw) ^ sw != 0 {
                        continue;
                    }
                    // Words before `si` carry no query bits; test the rest.
                    if contains_words(&self.words[base + si..base + wps], &q[si..]) {
                        out.set(i);
                    }
                }
            }
        }
    }
}

/// Containment over word slices: accumulate `(s & q) ^ q` (zero iff every
/// query bit is present) in 4-word chunks, checking for a verdict once per
/// chunk — branch-light enough to vectorize, yet it still exits early on
/// the long 189 B signatures where a miss shows up in the first words.
#[inline]
fn contains_words(row: &[u64], q: &[u64]) -> bool {
    debug_assert_eq!(row.len(), q.len());
    #[cfg(feature = "portable-simd")]
    {
        return simd::contains_words(row, q);
    }
    #[cfg(not(feature = "portable-simd"))]
    {
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
}

/// Explicit-SIMD variant of the chunked kernel, compiled only when the
/// off-by-default `portable-simd` feature is enabled (requires a nightly
/// toolchain for `std::simd`); stable builds use the unrolled u64 loops
/// above, which autovectorize on current compilers.
#[cfg(feature = "portable-simd")]
mod simd {
    use std::simd::cmp::SimdPartialEq;
    use std::simd::u64x4;

    #[inline]
    pub(super) fn contains_words(row: &[u64], q: &[u64]) -> bool {
        let mut j = 0usize;
        let n = row.len();
        while j + 4 <= n {
            let s = u64x4::from_slice(&row[j..j + 4]);
            let qq = u64x4::from_slice(&q[j..j + 4]);
            if !(s & qq).simd_eq(qq).all() {
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
}

/// Zero-copy containment against a serialized signature (the exact bytes
/// [`Signature::write_bytes`] produces, e.g. an SSF page entry or a tree
/// node payload): words are assembled with chunked little-endian loads and
/// tested in place — no per-entry `Signature` decode, no heap traffic.
///
/// Exact because serialization is little-endian words truncated to
/// `byte_len` and both sides keep bits beyond `bits` at zero.
///
/// # Panics
/// Panics if `sig_bytes.len() != query.byte_len()`.
pub fn bytes_contain(sig_bytes: &[u8], query: &Signature) -> bool {
    assert_eq!(
        sig_bytes.len(),
        query.byte_len(),
        "signature payload length mismatch"
    );
    let q = query.words();
    let mut chunks = sig_bytes.chunks_exact(8);
    let mut acc = 0u64;
    let mut j = 0usize;
    for c in &mut chunks {
        let w = u64::from_le_bytes(c.try_into().expect("8 bytes"));
        acc |= (w & q[j]) ^ q[j];
        j += 1;
    }
    let rem = chunks.remainder();
    if !rem.is_empty() {
        let mut last = [0u8; 8];
        last[..rem.len()].copy_from_slice(rem);
        let w = u64::from_le_bytes(last);
        acc |= (w & q[j]) ^ q[j];
    }
    acc == 0
}

/// Dispatching containment over a serialized payload: the zero-copy byte
/// kernel, or (under [`ScalarKernelGuard`]) a full per-entry decode plus
/// scalar [`Signature::contains`] — the pre-kernel code path, kept callable
/// so the differential fuzzer can pin the two.
pub fn payload_contains(sig_bytes: &[u8], query: &Signature) -> bool {
    if scalar_kernels_forced() {
        Signature::from_bytes(query.bits(), sig_bytes).contains(query)
    } else {
        bytes_contain(sig_bytes, query)
    }
}

/// Dispatching signature-vs-signature containment: the branch-light word
/// kernel, or the scalar short-circuit loop under [`ScalarKernelGuard`].
/// Used by call sites that keep decoded [`Signature`]s (the grid index's
/// cell summaries).
pub fn kernel_contains(sig: &Signature, query: &Signature) -> bool {
    assert_eq!(sig.bits(), query.bits(), "signature length mismatch");
    if scalar_kernels_forced() {
        sig.contains(query)
    } else {
        contains_words(sig.words(), query.words())
    }
}

/// A bitmask over a block's entries: bit `i` is the containment verdict of
/// entry `i`. Reused across node visits via
/// [`SignatureBlock::matches_mask_into`] so steady-state pruning allocates
/// nothing.
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

    /// Resizes to `len` entries, all unset. Keeps capacity.
    fn reset(&mut self, len: usize) {
        let need = len.div_ceil(64);
        self.words.clear();
        self.words.resize(need, 0);
        self.len = len;
    }

    #[inline]
    fn set(&mut self, i: usize) {
        self.words[i / 64] |= 1u64 << (i % 64);
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
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            std::iter::successors(if w == 0 { None } else { Some(w) }, |&rest| {
                let next = rest & (rest - 1);
                (next != 0).then_some(next)
            })
            .map(move |rest| wi * 64 + rest.trailing_zeros() as usize)
        })
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

    #[test]
    fn mask_equals_scalar_contains_across_widths() {
        for bits in [8usize, 64, 100, 128, 200, 1512] {
            let sigs = doc_sigs(bits, 70);
            let block = block_of(bits, &sigs);
            let scheme = SignatureScheme::new(bits, 4, 9);
            for probe in ["t3-0", "t10-1", "absent", "t64-2"] {
                let q = scheme.sign_term(probe);
                let mask = block.matches_mask(&q);
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
        assert!(block.matches_mask(&q).get(0), "empty query always matches");
    }

    #[test]
    fn zero_bit_scheme_is_vacuous() {
        let block = SignatureBlock::from_payloads(0, [&[][..], &[][..]]);
        assert_eq!(block.len(), 2);
        assert_eq!(block.bits(), 0);
        let q = Signature::zero(0);
        let mask = block.matches_mask(&q);
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
    fn scalar_guard_flips_dispatch_not_answers() {
        let bits = 1512;
        let sigs = doc_sigs(bits, 40);
        let block = block_of(bits, &sigs);
        let q = SignatureScheme::new(bits, 4, 9).sign_term("t5-0");
        let fast = block.matches_mask(&q);
        {
            let _g = ScalarKernelGuard::new();
            assert!(scalar_kernels_forced());
            let slow = block.matches_mask(&q);
            for i in 0..block.len() {
                assert_eq!(fast.get(i), slow.get(i));
            }
        }
        assert!(!scalar_kernels_forced(), "guard restores on drop");
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
                        bytes_contain(&buf, &q),
                        Signature::from_bytes(bits, &buf).contains(&q),
                        "bits={bits} i={i} probe={probe}"
                    );
                    assert_eq!(payload_contains(&buf, &q), bytes_contain(&buf, &q));
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
        let mask = block.matches_mask(&q);
        let from_iter: Vec<usize> = mask.ones().collect();
        let from_get: Vec<usize> = (0..mask.len()).filter(|&i| mask.get(i)).collect();
        assert_eq!(from_iter, from_get);
        assert_eq!(from_iter.len(), mask.count_ones());
    }

    #[test]
    fn empty_block_yields_empty_mask() {
        let block = SignatureBlock::from_payloads(64, std::iter::empty());
        assert!(block.is_empty());
        let mask = block.matches_mask(&Signature::zero(64));
        assert_eq!(mask.len(), 0);
        assert_eq!(mask.count_ones(), 0);
        assert_eq!(mask.ones().count(), 0);
    }
}
