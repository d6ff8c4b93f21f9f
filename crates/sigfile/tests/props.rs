//! Property tests for the signature-file invariants the IR²-Tree's
//! correctness rests on: no false negatives, monotone superimposition.

use ir2_sigfile::{MultiLevelScheme, Signature, SignatureScheme};
use proptest::prelude::*;

fn arb_terms() -> impl Strategy<Value = Vec<String>> {
    prop::collection::vec("[a-z]{1,10}", 0..30)
}

fn arb_scheme() -> impl Strategy<Value = SignatureScheme> {
    (8usize..2048, 1u32..8, any::<u64>())
        .prop_map(|(bits, k, seed)| SignatureScheme::new(bits, k, seed))
}

proptest! {
    /// No false negatives, ever: the signature of a term set contains the
    /// signature of any subset. This is what guarantees the IR²-Tree never
    /// prunes a subtree that holds a real result.
    #[test]
    fn no_false_negatives(scheme in arb_scheme(), terms in arb_terms(), extra in arb_terms()) {
        let all: Vec<&str> = terms.iter().chain(extra.iter()).map(String::as_str).collect();
        let doc = scheme.sign_terms(all.iter().copied());
        let subset = scheme.sign_terms(terms.iter().map(String::as_str));
        prop_assert!(doc.contains(&subset));
        for t in &terms {
            prop_assert!(doc.contains(&scheme.sign_term(t)));
        }
    }

    /// Superimposition is commutative, associative and idempotent — a node
    /// signature is well-defined regardless of insertion order.
    #[test]
    fn superimposition_is_a_semilattice(scheme in arb_scheme(), a in arb_terms(), b in arb_terms()) {
        let sa = scheme.sign_terms(a.iter().map(String::as_str));
        let sb = scheme.sign_terms(b.iter().map(String::as_str));
        let mut ab = sa.clone();
        ab.or_assign(&sb);
        let mut ba = sb.clone();
        ba.or_assign(&sa);
        prop_assert_eq!(&ab, &ba);
        let mut aa = sa.clone();
        aa.or_assign(&sa);
        prop_assert_eq!(&aa, &sa);
        // Signing the concatenation equals OR-ing the parts.
        let joined: Vec<&str> = a.iter().chain(b.iter()).map(String::as_str).collect();
        prop_assert_eq!(&scheme.sign_terms(joined), &ab);
    }

    /// Containment is a partial order consistent with superimposition:
    /// the parent (OR of children) contains each child.
    #[test]
    fn parent_contains_children(scheme in arb_scheme(), docs in prop::collection::vec(arb_terms(), 1..8)) {
        let children: Vec<Signature> = docs
            .iter()
            .map(|d| scheme.sign_terms(d.iter().map(String::as_str)))
            .collect();
        let mut parent = scheme.empty();
        for c in &children {
            parent.or_assign(c);
        }
        for c in &children {
            prop_assert!(parent.contains(c));
        }
    }

    /// Byte serialization round-trips exactly for any bit length.
    #[test]
    fn byte_roundtrip(scheme in arb_scheme(), terms in arb_terms()) {
        let sig = scheme.sign_terms(terms.iter().map(String::as_str));
        let mut buf = vec![0u8; sig.byte_len()];
        sig.write_bytes(&mut buf);
        prop_assert_eq!(Signature::from_bytes(sig.bits(), &buf), sig);
    }

    /// The in-place signing kernel writes exactly the bytes
    /// `sign_terms(..).write_bytes(..)` does, for any length (multiples of
    /// 8 or 64 or neither) and any terms — mixed case, multi-byte UTF-8,
    /// empty strings, repeats, none at all — and on an accumulator that
    /// already holds bits it ORs them in and clears nothing.
    #[test]
    fn sign_into_equals_sign_terms_bytes(
        bits in 1usize..700,
        k in 1u32..8,
        seed in any::<u64>(),
        wild in prop::collection::vec(".{0,6}", 0..12),
        repeats in prop::collection::vec("[aB漢é]{0,2}", 0..10),
        held in arb_terms(),
    ) {
        let scheme = SignatureScheme::new(bits, k, seed);
        let terms: Vec<&str> = wild.iter().chain(&repeats).map(String::as_str).collect();
        let mut expected = vec![0u8; scheme.byte_len()];
        scheme.sign_terms(terms.iter().copied()).write_bytes(&mut expected);

        let mut fresh = vec![0u8; scheme.byte_len()];
        scheme.sign_into(&mut fresh, &terms);
        prop_assert_eq!(&fresh, &expected);

        let mut acc = vec![0u8; scheme.byte_len()];
        scheme.sign_terms(held.iter().map(String::as_str)).write_bytes(&mut acc);
        let union: Vec<u8> = acc.iter().zip(&expected).map(|(a, e)| a | e).collect();
        scheme.sign_into(&mut acc, &terms);
        prop_assert_eq!(acc, union);
    }

    /// Multi-level schemes preserve the no-false-negative guarantee at every
    /// level (each level is itself a valid scheme).
    #[test]
    fn multilevel_no_false_negatives(terms in prop::collection::vec("[a-z]{1,8}", 1..15),
                                     level in 0u16..10) {
        let ml = MultiLevelScheme::new(4, 3, 11, 8, 5.0, 5000);
        let s = ml.scheme(level);
        let doc = s.sign_terms(terms.iter().map(String::as_str));
        for t in &terms {
            prop_assert!(doc.contains(&s.sign_term(t)));
        }
    }

    /// Positions are always in range and exactly reproducible.
    #[test]
    fn positions_in_range(scheme in arb_scheme(), term in "[a-z]{1,12}") {
        let p1: Vec<usize> = scheme.positions(&term).collect();
        let p2: Vec<usize> = scheme.positions(&term).collect();
        prop_assert_eq!(&p1, &p2);
        prop_assert_eq!(p1.len(), scheme.k() as usize);
        for p in p1 {
            prop_assert!(p < scheme.bits());
        }
    }
}
