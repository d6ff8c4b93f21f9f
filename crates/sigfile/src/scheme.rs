//! Superimposed-coding schemes: hashing terms into signatures, and the
//! optimal-signature-length formulas.

use crate::Signature;

/// A superimposed-coding scheme \[FC84\]: every term sets `k` (pseudo-random,
/// term-determined) bits in a signature of `bits` bits; a document's
/// signature is the OR of its terms' signatures.
///
/// Two schemes are compatible (their signatures comparable) iff `bits`,
/// `k`, and `seed` are all equal. The MIR²-Tree deliberately uses a
/// *different* scheme per tree level — see
/// [`MultiLevelScheme`](crate::MultiLevelScheme).
///
/// ```
/// use ir2_sigfile::SignatureScheme;
///
/// let scheme = SignatureScheme::from_bytes_len(8, 4, 42); // 64 bits, k = 4
/// let doc = scheme.sign_terms(["internet", "pool", "spa"]);
///
/// // No false negatives: every contained term matches.
/// assert!(doc.contains(&scheme.sign_term("pool")));
/// // Absent terms *usually* fail (false positives are possible but rare).
/// let probes = (0..100).filter(|i| doc.contains(&scheme.sign_term(&format!("w{i}")))).count();
/// assert!(probes < 30);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SignatureScheme {
    bits: usize,
    k: u32,
    seed: u64,
}

impl SignatureScheme {
    /// Creates a scheme with `bits` signature bits and `k` bits per term.
    ///
    /// # Panics
    /// Panics if `bits` or `k` is zero.
    pub fn new(bits: usize, k: u32, seed: u64) -> Self {
        assert!(bits > 0, "signature length must be positive");
        assert!(k > 0, "bits per term must be positive");
        Self { bits, k, seed }
    }

    /// Convenience constructor from a byte length, as the paper quotes
    /// signature sizes (189 bytes, 8 bytes, …).
    pub fn from_bytes_len(bytes: usize, k: u32, seed: u64) -> Self {
        Self::new(bytes * 8, k, seed)
    }

    /// Signature length in bits.
    pub fn bits(&self) -> usize {
        self.bits
    }

    /// Signature length in bytes as stored on disk.
    pub fn byte_len(&self) -> usize {
        self.bits.div_ceil(8)
    }

    /// Number of bits each term sets.
    pub fn k(&self) -> u32 {
        self.k
    }

    /// Hash seed (lets tests derive independent schemes).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The `k` bit positions of `term`.
    ///
    /// FNV-1a over the term bytes, mixed with the scheme seed, then a
    /// splitmix64 stream — deterministic across runs and platforms.
    ///
    /// Each 64-bit draw is mapped into `[0, bits)` with a widening
    /// multiply (`state · bits >> 64`, Lemire's bounded reduction) rather
    /// than `state % bits`: the modulo favors small positions whenever
    /// `bits` does not divide 2⁶⁴ — and the optimal lengths
    /// (`⌈k·D/ln 2⌉` rounded to bytes) almost never do — while the
    /// multiply's bias is provably ≤ `bits/2⁶⁴` per position and it
    /// avoids a hot-path integer division.
    pub fn positions(&self, term: &str) -> impl Iterator<Item = usize> + '_ {
        let mut state = fnv1a(term.as_bytes()) ^ self.seed;
        (0..self.k).map(move |_| {
            state = splitmix64(state);
            ((state as u128 * self.bits as u128) >> 64) as usize
        })
    }

    /// Signature of a single term.
    pub fn sign_term(&self, term: &str) -> Signature {
        let mut sig = Signature::zero(self.bits);
        for pos in self.positions(term) {
            sig.set(pos);
        }
        sig
    }

    /// Signature of a document given its terms (duplicates are harmless —
    /// superimposition is idempotent).
    pub fn sign_terms<'a>(&self, terms: impl IntoIterator<Item = &'a str>) -> Signature {
        let mut sig = Signature::zero(self.bits);
        for term in terms {
            for pos in self.positions(term) {
                sig.set(pos);
            }
        }
        sig
    }

    /// Superimposes the signature of `terms` onto the serialized signature
    /// `acc`, in place: the bytes end up as `acc | b`, where `b` is what
    /// `sign_terms(terms).write_bytes(..)` would produce — same
    /// [`positions`](Self::positions) stream, same little-endian bit order —
    /// without building a [`Signature`]. `acc` may be zeroed (a fresh
    /// signature) or already hold other documents' bits (a node summary
    /// being accumulated); this is the one signing kernel of the build and
    /// maintenance paths.
    ///
    /// # Panics
    /// Panics if `acc.len() != self.byte_len()`.
    pub fn sign_into<S: AsRef<str>>(&self, acc: &mut [u8], terms: impl IntoIterator<Item = S>) {
        assert_eq!(acc.len(), self.byte_len(), "signature buffer mismatch");
        for term in terms {
            for pos in self.positions(term.as_ref()) {
                acc[pos / 8] |= 1 << (pos % 8);
            }
        }
    }

    /// An empty (all-zero) signature of this scheme's length.
    pub fn empty(&self) -> Signature {
        Signature::zero(self.bits)
    }
}

/// FNV-1a 64-bit hash.
#[inline]
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// splitmix64 mixer — a full-period 64-bit permutation step.
#[inline]
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e3779b97f4a7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// Optimal signature length in **bits** for a block of `distinct_terms`
/// terms with `k` bits per term.
///
/// Superimposed-coding analysis (\[FC84\], and the design formulas of \[MC94\]
/// that the paper cites) shows the false-drop probability
/// `(1 − e^(−kD/m))^k` is minimized when half the bits are set, i.e. when
/// `m · ln 2 = k · D`. Hence `m = ⌈k·D / ln 2⌉`.
pub fn optimal_bits(distinct_terms: usize, k: u32) -> usize {
    ((k as f64 * distinct_terms as f64) / std::f64::consts::LN_2).ceil() as usize
}

/// Optimal `(bits, k)` for a target false-positive probability `fp` per
/// single-term probe: at the optimal operating point the false-drop rate is
/// `2^(−k)`, so `k = ⌈log₂(1/fp)⌉` and the length follows [`optimal_bits`].
pub fn optimal_params(distinct_terms: usize, fp: f64) -> (usize, u32) {
    assert!(
        fp > 0.0 && fp < 1.0,
        "false-positive target must be in (0, 1)"
    );
    let k = (1.0 / fp).log2().ceil().max(1.0) as u32;
    (optimal_bits(distinct_terms, k), k)
}

/// Expected false-drop probability of a single-term probe against the
/// signature of a block of `distinct_terms` terms under a scheme of `bits`
/// and `k`: `(1 − e^(−k·D/m))^k`.
pub fn expected_false_positive(bits: usize, k: u32, distinct_terms: usize) -> f64 {
    let fill = 1.0 - (-(k as f64) * distinct_terms as f64 / bits as f64).exp();
    fill.powi(k as i32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn signatures_are_deterministic() {
        let s = SignatureScheme::new(512, 4, 42);
        assert_eq!(s.sign_term("internet"), s.sign_term("internet"));
        assert_ne!(s.sign_term("internet"), s.sign_term("pool"));
    }

    #[test]
    fn seed_changes_the_code() {
        let a = SignatureScheme::new(512, 4, 1);
        let b = SignatureScheme::new(512, 4, 2);
        assert_ne!(a.sign_term("internet"), b.sign_term("internet"));
    }

    #[test]
    fn term_sets_at_most_k_bits() {
        let s = SignatureScheme::new(4096, 5, 7);
        let sig = s.sign_term("keyword");
        assert!(sig.count_ones() <= 5);
        assert!(sig.count_ones() >= 1);
    }

    #[test]
    fn document_signature_contains_each_term() {
        let s = SignatureScheme::new(256, 3, 0);
        let doc = s.sign_terms(["internet", "pool", "spa"]);
        for term in ["internet", "pool", "spa"] {
            assert!(doc.contains(&s.sign_term(term)), "no false negatives");
        }
    }

    #[test]
    fn duplicates_do_not_change_the_signature() {
        let s = SignatureScheme::new(256, 3, 0);
        assert_eq!(s.sign_terms(["pool", "pool", "pool"]), s.sign_term("pool"));
    }

    #[test]
    fn optimal_bits_targets_half_density() {
        // m = kD/ln2  =>  expected fill = 1 - e^{-ln 2} = 0.5.
        let d = 300;
        let k = 4;
        let m = optimal_bits(d, k);
        let fill = 1.0 - (-(k as f64) * d as f64 / m as f64).exp();
        assert!((fill - 0.5).abs() < 0.01);
    }

    #[test]
    fn optimal_params_hits_the_fp_target() {
        let (m, k) = optimal_params(100, 0.01);
        assert_eq!(k, 7); // 2^-7 < 0.01
        let fp = expected_false_positive(m, k, 100);
        assert!(fp <= 0.01, "expected fp {fp} above target");
    }

    #[test]
    fn longer_signatures_reduce_false_positives() {
        let fp_short = expected_false_positive(512, 4, 300);
        let fp_long = expected_false_positive(4096, 4, 300);
        assert!(fp_long < fp_short);
    }

    #[test]
    fn probe_positions_are_uniform_chi_square() {
        // `bits = 189 * 8 = 1512` (the paper's leaf signature length) is
        // not a power of two, so the old `state % bits` mapping was
        // modulo-biased. Pearson's chi-square over all positions drawn
        // for many distinct terms must stay below the critical value.
        let bits = 189 * 8;
        let k = 4;
        let s = SignatureScheme::new(bits, k, 7);
        let mut counts = vec![0u64; bits];
        let terms = 200_000usize;
        for i in 0..terms {
            let term = format!("term{i}");
            for pos in s.positions(&term) {
                counts[pos] += 1;
            }
        }
        let n = (terms as u64 * k as u64) as f64;
        let expected = n / bits as f64;
        let chi2: f64 = counts
            .iter()
            .map(|&c| {
                let d = c as f64 - expected;
                d * d / expected
            })
            .sum();
        // For df = 1511, chi2 is ~N(df, 2·df): mean 1511, sd ~55. The
        // 99.99th percentile is ≈ 1720; a biased mapping (e.g. `% bits`
        // over a *32-bit* state, or any systematic skew detectable at
        // 800k draws) lands far beyond it.
        let df = (bits - 1) as f64;
        let crit = df + 3.9 * (2.0 * df).sqrt();
        assert!(
            chi2 < crit,
            "chi-square {chi2:.1} exceeds {crit:.1} (df {df}): probe positions are not uniform"
        );
        assert!(
            counts.iter().all(|&c| c > 0),
            "some bit position is never chosen"
        );
    }

    #[test]
    fn empirical_fp_rate_is_near_prediction() {
        // Sign 200 random-ish terms, probe with 1000 absent terms.
        let d = 200;
        let k = 4;
        let m = optimal_bits(d, k);
        let s = SignatureScheme::new(m, k, 99);
        let doc: Vec<String> = (0..d).map(|i| format!("present{i}")).collect();
        let sig = s.sign_terms(doc.iter().map(String::as_str));
        let mut fp = 0;
        let probes = 2000;
        for i in 0..probes {
            if sig.contains(&s.sign_term(&format!("absent{i}"))) {
                fp += 1;
            }
        }
        let measured = fp as f64 / probes as f64;
        let predicted = expected_false_positive(m, k, d);
        assert!(
            (measured - predicted).abs() < 0.05,
            "measured {measured}, predicted {predicted}"
        );
    }
}
