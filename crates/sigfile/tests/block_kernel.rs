//! Property tests pinning the containment kernels — the bit-sliced block's
//! and the in-place one's — to the per-entry scalar reference
//! (`Signature::contains`), including entry counts around the 64-entry
//! bitmap word, bit lengths not divisible by 64 or 8 (padding bits never
//! become a column) and empty/zero-bit signatures.

use ir2_sigfile::{
    kernel_contains, payload_contains, payloads_mask_into, EntryMask, Signature, SignatureBlock,
    SignatureScheme,
};
use proptest::prelude::*;

/// Bit lengths chosen to straddle word boundaries: zero, sub-word, exact
/// words, and off-by-one around 64/128, plus the paper's 8 B (64-bit) and
/// 189 B (1512-bit) operating points.
fn arb_bits() -> impl Strategy<Value = usize> {
    prop_oneof![
        Just(0usize),
        Just(1usize),
        Just(7usize),
        Just(63usize),
        Just(64usize),
        Just(65usize),
        Just(100usize),
        Just(127usize),
        Just(128usize),
        Just(129usize),
        Just(1512usize),
        1usize..300,
    ]
}

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

proptest! {
    /// The three ways to a node's containment mask agree bit for bit: the
    /// bit-sliced block (built from payloads and from signatures), the
    /// in-place pass over the payload bytes, and the scalar reference
    /// `Signature::contains` per entry — at entry counts on both
    /// sides of the bitmap word and with garbage in the padding bits of
    /// every payload's last byte. The row accessors read the same
    /// signatures back out of the columns.
    #[test]
    fn bit_sliced_block_equals_scalar_and_in_place(
        count in prop::sample::select(vec![0usize, 1, 63, 64, 65, 127, 128, 129]),
        bits in prop::sample::select(vec![0usize, 1, 8, 63, 64, 65, 100, 1512]),
        seed in 1u64..u64::MAX,
        garbage in any::<u8>(),
        query_bits in 0usize..7,
        query_from_entry in any::<bool>(),
    ) {
        let mut x = seed;
        let sigs: Vec<Signature> = (0..count)
            .map(|i| {
                let mut s = Signature::zero(bits);
                // Sparse, half-full and saturated rows side by side.
                let sets = [bits / 8, bits / 2, 4 * bits][i % 3];
                for _ in 0..sets {
                    s.set((xorshift(&mut x) % bits as u64) as usize);
                }
                s
            })
            .collect();
        let payloads: Vec<Vec<u8>> = sigs
            .iter()
            .map(|s| {
                let mut b = vec![0u8; s.byte_len()];
                s.write_bytes(&mut b);
                if bits % 8 != 0 {
                    *b.last_mut().unwrap() |= garbage << (bits % 8);
                }
                b
            })
            .collect();
        let mut query = Signature::zero(bits);
        if bits > 0 {
            for _ in 0..query_bits {
                let b = (xorshift(&mut x) % bits as u64) as usize;
                // Bits of a stored row make matches likely; free bits, rare.
                if !query_from_entry || sigs.first().is_some_and(|s| s.get(b)) {
                    query.set(b);
                }
            }
        }
        let want: Vec<bool> = sigs.iter().map(|s| s.contains(&query)).collect();

        let from_payloads =
            SignatureBlock::from_payloads(bits, payloads.iter().map(Vec::as_slice));
        let from_signatures = SignatureBlock::from_signatures(bits, sigs.iter());
        let mut mask = EntryMask::new();
        for block in [&from_payloads, &from_signatures] {
            block.matches_mask_into(&query, &mut mask);
            prop_assert_eq!(mask.len(), count);
            let got: Vec<bool> = (0..count).map(|i| mask.get(i)).collect();
            prop_assert_eq!(&got, &want, "block");
            prop_assert_eq!(mask.count_ones(), want.iter().filter(|&&m| m).count());
        }
        payloads_mask_into(&payloads.concat(), query.byte_len(), count, &query, &mut mask);
        prop_assert_eq!(mask.len(), count);
        let got: Vec<bool> = (0..count).map(|i| mask.get(i)).collect();
        prop_assert_eq!(&got, &want, "in place");
        prop_assert_eq!(mask.count_ones(), want.iter().filter(|&&m| m).count());

        let mut union = Signature::zero(bits);
        for (i, s) in sigs.iter().enumerate() {
            prop_assert_eq!(&from_payloads.signature_at(i), s, "padding must not surface");
            prop_assert_eq!(from_payloads.count_ones_at(i), s.count_ones());
            prop_assert_eq!(from_payloads.contains_at(i, &query), want[i]);
            union.or_assign(s);
        }
        prop_assert_eq!(from_payloads.superimpose_all(), union);
        prop_assert_eq!(
            from_payloads.set_bits_total(),
            sigs.iter().map(|s| u64::from(s.count_ones())).sum::<u64>()
        );
        prop_assert_eq!(from_signatures.set_bits_total(), from_payloads.set_bits_total());
    }

    /// The word-major in-place kernel gives, entry by entry, the verdict
    /// of `payload_contains` on that entry's payload: at entry counts
    /// around and past the 64-entry mask word and at the full Hotels
    /// fanout; for 5, 8, 16 and 189 B payloads (5 B and 189 B end in a
    /// short word); for queries with no bits, bits only in the last word,
    /// every bit, or a few; with other bytes between the payloads. The
    /// region ends where the last payload does, so a read past it panics,
    /// and the mask is reused from a larger node.
    #[test]
    fn word_major_mask_equals_payload_contains_per_entry(
        count in prop::sample::select(vec![0usize, 1, 63, 64, 65, 102, 130]),
        byte_len in prop::sample::select(vec![5usize, 8, 16, 189]),
        pad in 0usize..8,
        gap in prop::sample::select(vec![0usize, 3, 24]),
        query_kind in 0usize..4,
        seed in 1u64..u64::MAX,
    ) {
        let bits = 8 * byte_len - pad;
        let stride = byte_len + gap;
        let mut x = seed;
        let len = match count {
            0 => 0,
            n => (n - 1) * stride + byte_len,
        };
        // Sparse, half-full, dense and saturated payloads side by side; the
        // gap bytes are noise.
        let region: Vec<u8> = (0..len)
            .map(|at| {
                let (r, s) = (xorshift(&mut x) as u8, xorshift(&mut x) as u8);
                [r & s, r, r | s, 0xFF][at / stride % 4]
            })
            .collect();
        let mut query = Signature::zero(bits);
        let last_word = 64 * (bits.div_ceil(64) - 1);
        match query_kind {
            0 => {}
            1 => (last_word..bits).step_by(3).for_each(|b| query.set(b)),
            2 => (0..bits).for_each(|b| query.set(b)),
            _ => (0..4).for_each(|_| query.set((xorshift(&mut x) % bits as u64) as usize)),
        }

        let mut mask = EntryMask::new();
        payloads_mask_into(&[0xFF; 200 * 8], 8, 200, &Signature::zero(64), &mut mask);
        payloads_mask_into(&region, stride, count, &query, &mut mask);
        prop_assert_eq!(mask.len(), count);
        for i in 0..count {
            let payload = &region[i * stride..i * stride + byte_len];
            prop_assert_eq!(mask.get(i), payload_contains(payload, &query), "entry {}", i);
        }
        let ones: Vec<usize> = mask.ones().collect();
        prop_assert_eq!(ones.len(), mask.count_ones());
        prop_assert!(ones.iter().all(|&i| i < count), "no verdict past the last entry");
    }

    #[test]
    fn matches_mask_equals_scalar_contains(
        bits in arb_bits(),
        n in 0usize..80,
        seed in 0u64..u64::MAX,
        qterms in proptest::collection::vec("[a-z]{1,6}", 0..4),
    ) {
        let sigs: Vec<Signature> = (0..n)
            .map(|i| {
                // Derive per-entry signatures deterministically from the seed.
                let mut s = Signature::zero(bits);
                if bits > 0 {
                    let mut x = seed.wrapping_add(i as u64).wrapping_mul(0x9E3779B97F4A7C15);
                    for _ in 0..(x % 9) {
                        x ^= x >> 27;
                        x = x.wrapping_mul(0x94D049BB133111EB);
                        s.set((x % bits as u64) as usize);
                    }
                }
                s
            })
            .collect();
        let block = SignatureBlock::from_signatures(bits, sigs.iter());
        prop_assert_eq!(block.len(), sigs.len());

        let query = if bits == 0 {
            Signature::zero(0)
        } else {
            let scheme = SignatureScheme::new(bits, 2, seed ^ 0xABCD);
            scheme.sign_terms(qterms.iter().map(String::as_str))
        };

        let mut mask = EntryMask::new();
        block.matches_mask_into(&query, &mut mask);
        prop_assert_eq!(mask.len(), sigs.len());
        for (i, s) in sigs.iter().enumerate() {
            prop_assert_eq!(mask.get(i), s.contains(&query), "entry {} bits {}", i, bits);
        }
        // The ones() iterator agrees with get().
        let from_iter: Vec<usize> = mask.ones().collect();
        let from_get: Vec<usize> = (0..mask.len()).filter(|&i| mask.get(i)).collect();
        prop_assert_eq!(from_iter, from_get);
        prop_assert_eq!(mask.count_ones(), sigs.iter().filter(|s| s.contains(&query)).count());

        // The block's own per-entry scalar path gives the same verdicts.
        for i in 0..block.len() {
            prop_assert_eq!(mask.get(i), block.contains_at(i, &query));
        }
    }

    #[test]
    fn block_roundtrip_through_payload_bytes(
        bits in arb_bits(),
        n in 0usize..40,
        seed in 0u64..u64::MAX,
    ) {
        let sigs: Vec<Signature> = (0..n)
            .map(|i| {
                let mut s = Signature::zero(bits);
                if bits > 0 {
                    let mut x = seed ^ (i as u64).wrapping_mul(0xD6E8FEB86659FD93);
                    for _ in 0..((x >> 60) % 7) {
                        x = x.wrapping_mul(0x2545F4914F6CDD1D).wrapping_add(1);
                        s.set((x % bits as u64) as usize);
                    }
                }
                s
            })
            .collect();
        let payloads: Vec<Vec<u8>> = sigs
            .iter()
            .map(|s| {
                let mut b = vec![0u8; s.byte_len()];
                s.write_bytes(&mut b);
                b
            })
            .collect();
        let block = SignatureBlock::from_payloads(bits, payloads.iter().map(Vec::as_slice));
        for (i, s) in sigs.iter().enumerate() {
            prop_assert_eq!(&block.signature_at(i), s);
            prop_assert_eq!(block.count_ones_at(i), s.count_ones());
        }
        // superimpose_all == fold of or_assign.
        let mut want = Signature::zero(bits);
        for s in &sigs {
            want.or_assign(s);
        }
        prop_assert_eq!(block.superimpose_all(), want);
    }

    #[test]
    fn bytes_contain_equals_decode_then_contains(
        bits in arb_bits(),
        s_positions in proptest::collection::vec(0usize..4096, 0..48),
        q_positions in proptest::collection::vec(0usize..4096, 0..8),
    ) {
        let mut sig = Signature::zero(bits);
        let mut q = Signature::zero(bits);
        if bits > 0 {
            for p in s_positions {
                sig.set(p % bits);
            }
            for p in q_positions {
                q.set(p % bits);
            }
        }
        let mut buf = vec![0u8; sig.byte_len()];
        sig.write_bytes(&mut buf);
        let scalar = Signature::from_bytes(bits, &buf).contains(&q);
        prop_assert_eq!(payload_contains(&buf, &q), scalar);
        prop_assert_eq!(kernel_contains(&sig, &q), scalar);
    }
}
