//! Checksummed page format: a per-block CRC32 trailer.
//!
//! A disk-resident index must notice when the disk lies. Every *sealed*
//! block reserves its last [`PAGE_TRAILER_LEN`] bytes for a trailer:
//!
//! ```text
//! byte 4088..4092   CRC32 (IEEE) over bytes 0..4088, little-endian
//! byte 4092..4094   trailer magic 0x5043 ("CP", checksummed page)
//! byte 4094         format version (1)
//! byte 4095         reserved (0)
//! ```
//!
//! [`seal`] fills the trailer in place before a write; [`verify`] checks it
//! after a read and returns [`StorageError::Corrupt`] on any mismatch, so a
//! single flipped bit anywhere in the block — payload or trailer — is
//! detected instead of being decoded as valid geometry or signatures.
//! Callers that store structured data across several blocks use the sealed
//! extent helpers in [`crate::extent`], which give each block of the run its
//! own trailer and expose only the [`PAGE_PAYLOAD`]-byte payloads.
//!
//! # The sealed zero page
//!
//! A node extent is sized for a full node, so past its last entry it holds
//! blocks of zero payload — most of a sparse MIR² root's ≈ 971 blocks. Each
//! is the same sealed page, [`SEALED_ZERO`]: it is written by copy, with no
//! checksum to compute, and [`verify`] accepts a block byte-equal to it
//! without running the CRC (equal bytes imply a matching checksum). The
//! bytes on disk are exactly what [`seal`] writes for a zeroed block, and
//! any other block, a zero page with one flipped bit included, takes the
//! checksum path.
//!
//! # The checksum kernel
//!
//! Every node visit of an uncached query verifies a run of blocks, so
//! [`crc32`] is the cold read path. It has two kernels for one polynomial,
//! chosen per call from the CPU and the input length, never from a setting:
//!
//! - **The carry-less-multiply fold** (x86-64 with PCLMULQDQ and SSE4.1,
//!   inputs of 64 bytes or more): the method of Gopal et al., *Fast CRC
//!   Computation for Generic Polynomials Using PCLMULQDQ Instruction*
//!   (Intel, 2009). Four 128-bit lanes fold 64 bytes a step, are reduced to
//!   one lane that folds 16 bytes a step, and a Barrett reduction brings the
//!   lane back to the 32-bit register. It consumes whole 16-byte chunks and
//!   returns the register and the tail it left (8 bytes of a sealed page's
//!   4088-byte payload).
//! - **Slicing-by-8** (everything else, and every tail): eight 256-entry
//!   tables fold eight input bytes per step, run over four interleaved
//!   1016-byte lanes whenever at least 4 × 1016 bytes remain; the lanes are
//!   folded together through a 4 KiB "advance the register by 1016 zero
//!   bytes" table, and the same step, then single bytes, finish. All 12 KiB
//!   are `static` data computed at compile time. It is the only path on
//!   other CPUs and architectures and for inputs under 64 bytes.
//!
//! Both produce the register the byte-at-a-time loop would, so the bytes on
//! disk do not depend on the machine that wrote them: the tests compare
//! each kernel, called by name, with that loop, and CI has zlib recompute
//! every checksum a CLI-built database holds.
//!
//! The fold exists because a table-driven CRC cannot beat one table load
//! per byte. Slicing-by-8 checks a 4088-byte payload in ≈ 1.8 µs (≈ 2.2
//! GB/s), which left `storage.page_verify` at 69–86 % of an uncached Hotels
//! query's direct call in `ir2bench cold_hotels --trace 1`; the fold takes
//! ≈ 0.2 µs from cache and ≈ 0.25 µs streaming over 32 MB (against ≈ 2.1
//! µs), and a 120-byte record ≈ 15–26 ns against ≈ 72–96 ns (Intel Xeon,
//! 2 vCPUs under KVM, release build).
//!
//! The fold's body is safe code: its chunks are loaded by value
//! (`u128::from_le_bytes`, then `_mm_set_epi64x`), never through a
//! pointer, and value-only `std::arch` intrinsics are safe inside a
//! `#[target_feature]` function from Rust 1.87 on (the workspace's
//! `rust-version`). What the compiler cannot check is that the CPU running
//! it has those features, so the one call into it sits right after
//! `is_x86_feature_detected!` for both, in `clmul_fold`: the workspace's
//! only block that asserts something the compiler does not prove.

use crate::{Result, StorageError, BLOCK_SIZE};

/// Bytes reserved at the end of every sealed block.
pub const PAGE_TRAILER_LEN: usize = 8;

/// Usable payload bytes in a sealed block.
pub const PAGE_PAYLOAD: usize = BLOCK_SIZE - PAGE_TRAILER_LEN;

/// Trailer magic, little-endian at bytes 4092..4094.
const TRAILER_MAGIC: u16 = 0x5043;

/// On-disk format version of the sealed page layout.
pub const PAGE_VERSION: u8 = 1;

/// The sealed zero page: a zero payload under the trailer [`seal`] gives it.
pub static SEALED_ZERO: [u8; BLOCK_SIZE] = sealed_zero_page();

/// [`seal`] of a zeroed block, at compile time: the byte-at-a-time CRC of
/// [`PAGE_PAYLOAD`] zero bytes, then the trailer.
const fn sealed_zero_page() -> [u8; BLOCK_SIZE] {
    let table = build_slice_tables();
    let mut crc = !0u32;
    let mut i = 0;
    while i < PAGE_PAYLOAD {
        crc = (crc >> 8) ^ table[0][(crc & 0xFF) as usize];
        i += 1;
    }
    let crc = (!crc).to_le_bytes();
    let magic = TRAILER_MAGIC.to_le_bytes();
    let mut block = [0u8; BLOCK_SIZE];
    block[PAGE_PAYLOAD] = crc[0];
    block[PAGE_PAYLOAD + 1] = crc[1];
    block[PAGE_PAYLOAD + 2] = crc[2];
    block[PAGE_PAYLOAD + 3] = crc[3];
    block[PAGE_PAYLOAD + 4] = magic[0];
    block[PAGE_PAYLOAD + 5] = magic[1];
    block[PAGE_PAYLOAD + 6] = PAGE_VERSION;
    block
}

/// Bytes one slicing step consumes.
const STEP: usize = 8;

/// Bytes per lane of the interleaved kernel: 127 slicing steps. Four lanes
/// cover 4064 of a sealed page's [`PAGE_PAYLOAD`] bytes; three more steps
/// finish it.
const LANE: usize = 1016;

/// Independent CRC streams run side by side. One stream is a chain of
/// dependent table loads; four keep the load ports busy while each waits.
const LANES: usize = 4;

/// Slicing tables for CRC32 (IEEE 802.3, reflected, polynomial 0xEDB88320),
/// built at compile time so no dependency is needed: `SLICE[k][b]` is the
/// register after byte `b` followed by `k` zero bytes, so `SLICE[0]` is the
/// classic byte-at-a-time table.
static SLICE: [[u32; 256]; STEP] = build_slice_tables();

const fn build_slice_tables() -> [[u32; 256]; STEP] {
    let mut tables = [[0u32; 256]; STEP];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < STEP {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// Lane-fold tables: `ADVANCE[k][b]` is the register `b << 8k` after
/// [`LANE`] zero bytes. The register is linear over XOR, so a lane's CRC is
/// moved past the lane that follows it with four lookups.
static ADVANCE: [[u32; 256]; 4] = build_advance_tables();

const fn build_advance_tables() -> [[u32; 256]; 4] {
    // Advance each of the 32 register bits on its own, then XOR them
    // together per byte value.
    let mut basis = [0u32; 32];
    let mut bit = 0;
    while bit < 32 {
        let mut crc = 1u32 << bit;
        let mut n = 0;
        while n < LANE {
            crc = (crc >> 8) ^ SLICE[0][(crc & 0xFF) as usize];
            n += 1;
        }
        basis[bit] = crc;
        bit += 1;
    }
    let mut tables = [[0u32; 256]; 4];
    let mut k = 0;
    while k < 4 {
        let mut b = 0;
        while b < 256 {
            let mut acc = 0;
            let mut bit = 0;
            while bit < 8 {
                if b & (1 << bit) != 0 {
                    acc ^= basis[8 * k + bit];
                }
                bit += 1;
            }
            tables[k][b] = acc;
            b += 1;
        }
        k += 1;
    }
    tables
}

/// The slicing step: folds the eight bytes at `data[at..at + 8]` into the
/// register. Written with plain indexing and shifts — no iterator adaptors,
/// no `from_le_bytes` — so an unoptimized test build stays as fast as the
/// loop it replaced; an optimized one fuses the byte loads and drops the
/// bounds checks.
#[inline(always)]
fn step(crc: u32, data: &[u8], at: usize) -> u32 {
    SLICE[7][(crc as u8 ^ data[at]) as usize]
        ^ SLICE[6][((crc >> 8) as u8 ^ data[at + 1]) as usize]
        ^ SLICE[5][((crc >> 16) as u8 ^ data[at + 2]) as usize]
        ^ SLICE[4][((crc >> 24) as u8 ^ data[at + 3]) as usize]
        ^ SLICE[3][data[at + 4] as usize]
        ^ SLICE[2][data[at + 5] as usize]
        ^ SLICE[1][data[at + 6] as usize]
        ^ SLICE[0][data[at + 7] as usize]
}

/// The register `crc` after [`LANE`] zero bytes.
#[inline(always)]
fn advance_lane(crc: u32) -> u32 {
    ADVANCE[0][crc as u8 as usize]
        ^ ADVANCE[1][(crc >> 8) as u8 as usize]
        ^ ADVANCE[2][(crc >> 16) as u8 as usize]
        ^ ADVANCE[3][(crc >> 24) as usize]
}

/// CRC32 (IEEE) of `data`: the carry-less-multiply fold where this CPU has
/// it and `data` holds at least 64 bytes, slicing-by-8 for the rest (see
/// the module docs).
pub fn crc32(data: &[u8]) -> u32 {
    let (crc, tail) = clmul_fold(!0, data).unwrap_or((!0, data));
    !slicing_by_8(crc, tail)
}

/// The slicing-by-8 kernel: `crc` (the register, not the finished
/// checksum) after `data`.
fn slicing_by_8(mut crc: u32, data: &[u8]) -> u32 {
    let mut at = 0;
    while data.len() - at >= LANES * LANE {
        let group = &data[at..at + LANES * LANE];
        // Lanes after the first start from a zero register; folding them in
        // below is then a plain XOR.
        let (mut cb, mut cc, mut cd) = (0, 0, 0);
        let mut i = 0;
        while i < LANE {
            crc = step(crc, group, i);
            cb = step(cb, group, LANE + i);
            cc = step(cc, group, 2 * LANE + i);
            cd = step(cd, group, 3 * LANE + i);
            i += STEP;
        }
        crc = advance_lane(crc) ^ cb;
        crc = advance_lane(crc) ^ cc;
        crc = advance_lane(crc) ^ cd;
        at += LANES * LANE;
    }
    while data.len() - at >= STEP {
        crc = step(crc, data, at);
        at += STEP;
    }
    while at < data.len() {
        crc = (crc >> 8) ^ SLICE[0][(crc as u8 ^ data[at]) as usize];
        at += 1;
    }
    crc
}

/// Bytes the fold's four lanes take in one step, and the least input it
/// folds.
const FOLD_MIN: usize = 64;

/// The carry-less-multiply fold of `data` into the register `crc`, where
/// this CPU has it and `data` is long enough: the new register and the tail
/// (under 16 bytes) still to be folded. `None` means nothing was folded.
#[cfg(target_arch = "x86_64")]
fn clmul_fold(crc: u32, data: &[u8]) -> Option<(u32, &[u8])> {
    if data.len() < FOLD_MIN
        || !is_x86_feature_detected!("pclmulqdq")
        || !is_x86_feature_detected!("sse4.1")
    {
        return None;
    }
    // SAFETY: pclmulqdq and sse4.1, all `fold_by_16` enables, were detected just above.
    Some(unsafe { fold_by_16(crc, data) })
}

/// Other architectures have no fold; slicing-by-8 does all the work.
#[cfg(not(target_arch = "x86_64"))]
fn clmul_fold(_crc: u32, _data: &[u8]) -> Option<(u32, &[u8])> {
    None
}

/// The fold: four 128-bit lanes take 64 bytes a step, are reduced to one
/// lane that takes 16 bytes a step, and a Barrett reduction returns the
/// 32-bit register. `data` must hold at least [`FOLD_MIN`] bytes; the
/// returned tail is what is left after the last whole 16-byte chunk.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "pclmulqdq,sse4.1")]
fn fold_by_16(crc: u32, data: &[u8]) -> (u32, &[u8]) {
    use std::arch::x86_64::*;

    // Folding constants for the reflected IEEE polynomial (Gopal et al.,
    // 2009): K1/K2 carry a lane 512 bits, K3/K4 128 bits, K5 reduces 96
    // bits to 64; P_X is the polynomial and U_PRIME its Barrett quotient.
    const K1: i64 = 0x1_5444_2bd4;
    const K2: i64 = 0x1_c6e4_1596;
    const K3: i64 = 0x1_7519_97d0;
    const K4: i64 = 0x0_ccaa_009e;
    const K5: i64 = 0x1_63cd_6124;
    const P_X: i64 = 0x1_DB71_0641;
    const U_PRIME: i64 = 0x1_F701_1641;

    /// One 16-byte chunk as a lane, little-endian like the CRC's bit order.
    #[inline]
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn load(chunk: &[u8]) -> __m128i {
        let v = u128::from_le_bytes(chunk.try_into().expect("a 16-byte chunk"));
        _mm_set_epi64x((v >> 64) as i64, v as i64)
    }

    /// Lane `x` carried past the distance `k` encodes, plus `next`.
    #[inline]
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn fold(x: __m128i, next: __m128i, k: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128(x, k, 0x00);
        let hi = _mm_clmulepi64_si128(x, k, 0x11);
        _mm_xor_si128(_mm_xor_si128(next, lo), hi)
    }

    let (head, body) = data.split_at(FOLD_MIN);
    let mut x3 = _mm_xor_si128(load(&head[..16]), _mm_cvtsi32_si128(crc as i32));
    let mut x2 = load(&head[16..32]);
    let mut x1 = load(&head[32..48]);
    let mut x0 = load(&head[48..]);

    let k1k2 = _mm_set_epi64x(K2, K1);
    let mut steps = body.chunks_exact(FOLD_MIN);
    for chunk in &mut steps {
        x3 = fold(x3, load(&chunk[..16]), k1k2);
        x2 = fold(x2, load(&chunk[16..32]), k1k2);
        x1 = fold(x1, load(&chunk[32..48]), k1k2);
        x0 = fold(x0, load(&chunk[48..]), k1k2);
    }

    let k3k4 = _mm_set_epi64x(K4, K3);
    let mut x = fold(x3, x2, k3k4);
    x = fold(x, x1, k3k4);
    x = fold(x, x0, k3k4);
    let mut chunks = steps.remainder().chunks_exact(16);
    for chunk in &mut chunks {
        x = fold(x, load(chunk), k3k4);
    }

    // 128 bits to 96, then to 64.
    let low32 = _mm_set_epi32(0, 0, 0, !0);
    let x = _mm_xor_si128(_mm_clmulepi64_si128(x, k3k4, 0x10), _mm_srli_si128(x, 8));
    let x = _mm_xor_si128(
        _mm_clmulepi64_si128(_mm_and_si128(x, low32), _mm_set_epi64x(0, K5), 0x00),
        _mm_srli_si128(x, 4),
    );
    // Barrett reduction of the reflected 64 bits to the 32-bit register,
    // which is the upper half of the low 64 bits.
    let pu = _mm_set_epi64x(U_PRIME, P_X);
    let t1 = _mm_clmulepi64_si128(_mm_and_si128(x, low32), pu, 0x10);
    let t2 = _mm_clmulepi64_si128(_mm_and_si128(t1, low32), pu, 0x00);
    let crc = _mm_extract_epi32(_mm_xor_si128(x, t2), 1) as u32;
    (crc, chunks.remainder())
}

/// Writes the checksum trailer over the last [`PAGE_TRAILER_LEN`] bytes of
/// `block`, covering everything before it.
pub fn seal(block: &mut [u8; BLOCK_SIZE]) {
    let crc = crc32(&block[..PAGE_PAYLOAD]);
    block[PAGE_PAYLOAD..PAGE_PAYLOAD + 4].copy_from_slice(&crc.to_le_bytes());
    block[PAGE_PAYLOAD + 4..PAGE_PAYLOAD + 6].copy_from_slice(&TRAILER_MAGIC.to_le_bytes());
    block[PAGE_PAYLOAD + 6] = PAGE_VERSION;
    block[PAGE_PAYLOAD + 7] = 0;
}

/// Validates the trailer of a sealed block.
///
/// Returns [`StorageError::Corrupt`] if the magic, version, reserved byte or
/// checksum do not match — i.e. the block was torn, bit-flipped, or never sealed.
/// The [`SEALED_ZERO`] page is recognized by comparison, not checksummed.
pub fn verify(block: &[u8; BLOCK_SIZE]) -> Result<()> {
    if *block == SEALED_ZERO {
        return Ok(());
    }
    let magic = u16::from_le_bytes([block[PAGE_PAYLOAD + 4], block[PAGE_PAYLOAD + 5]]);
    if magic != TRAILER_MAGIC {
        return Err(StorageError::Corrupt("page trailer magic mismatch".into()));
    }
    let version = block[PAGE_PAYLOAD + 6];
    if version != PAGE_VERSION {
        return Err(StorageError::Corrupt(format!(
            "unsupported page version {version}"
        )));
    }
    if block[PAGE_PAYLOAD + 7] != 0 {
        return Err(StorageError::Corrupt(
            "page trailer reserved byte is not zero".into(),
        ));
    }
    let stored = u32::from_le_bytes([
        block[PAGE_PAYLOAD],
        block[PAGE_PAYLOAD + 1],
        block[PAGE_PAYLOAD + 2],
        block[PAGE_PAYLOAD + 3],
    ]);
    let computed = crc32(&block[..PAGE_PAYLOAD]);
    if stored != computed {
        return Err(StorageError::Corrupt(format!(
            "page checksum mismatch: stored {stored:#010x}, computed {computed:#010x}"
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The one-byte-per-step loop the kernels replaced, kept as the oracle:
    /// the register `crc` after `data`.
    fn bytewise(mut crc: u32, data: &[u8]) -> u32 {
        for &b in data {
            crc = (crc >> 8) ^ SLICE[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        crc
    }

    fn crc32_bytewise(data: &[u8]) -> u32 {
        !bytewise(!0, data)
    }

    /// Whether the CPU running the tests has the fold, so a test that
    /// expects it to have folded can say so.
    fn has_fold() -> bool {
        #[cfg(target_arch = "x86_64")]
        return is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse4.1");
        #[cfg(not(target_arch = "x86_64"))]
        return false;
    }

    /// Checks `crc32` and each kernel on its own against `expected`: the
    /// slicing loop over all of `data`, and the fold, where it runs, with
    /// the byte reference finishing its tail.
    fn check_every_kernel(data: &[u8], expected: u32) -> std::result::Result<(), String> {
        let mut failed = Vec::new();
        if crc32(data) != expected {
            failed.push("crc32");
        }
        if !slicing_by_8(!0, data) != expected {
            failed.push("slicing-by-8");
        }
        match clmul_fold(!0, data) {
            Some((crc, tail)) => {
                if tail.len() != data.len() % 16 {
                    failed.push("fold tail");
                }
                if !bytewise(crc, tail) != expected {
                    failed.push("fold");
                }
            }
            None if has_fold() && data.len() >= FOLD_MIN => failed.push("fold not taken"),
            None => {}
        }
        if failed.is_empty() {
            Ok(())
        } else {
            Err(format!("{failed:?} disagree at length {}", data.len()))
        }
    }

    /// The page `any_single_bit_flip_is_detected` and the trailer pin share.
    fn sealed_pattern_block() -> [u8; BLOCK_SIZE] {
        let mut block = *crate::zeroed_block();
        for (i, b) in block[..PAGE_PAYLOAD].iter_mut().enumerate() {
            *b = (i % 251) as u8;
        }
        seal(&mut block);
        block
    }

    /// `n` bytes of "123456789" repeated.
    fn digits(n: usize) -> Vec<u8> {
        b"123456789".iter().copied().cycle().take(n).collect()
    }

    #[test]
    fn crc32_known_vectors() {
        // Standard check value for the IEEE polynomial; the values past 64
        // bytes, where the fold starts, are zlib's.
        let fox = b"The quick brown fox jumps over the lazy dog";
        let vectors: [(Vec<u8>, u32); 9] = [
            (b"123456789".to_vec(), 0xCBF4_3926),
            (Vec::new(), 0),
            (fox.to_vec(), 0x414F_A339),
            (digits(64), 0x2BDA_C1EE),
            (digits(72), 0x8811_A440),
            (digits(128), 0x5717_7610),
            (digits(144), 0x045D_0030),
            (vec![0; PAGE_PAYLOAD], 0xA4B6_8F86),
            (fox.repeat(100), 0x9F5F_A465),
        ];
        for (data, expected) in &vectors {
            check_every_kernel(data, *expected).unwrap();
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Every length up to 300 (both sides of the fold's 64-byte
        /// threshold and of every 16-byte chunk edge), both sides of the
        /// 4 x 1016 lane threshold and of `PAGE_PAYLOAD`, a few that take
        /// the lane loop more than once, each at aligned and unaligned
        /// starts, through each kernel by name.
        #[test]
        fn crc32_matches_the_bytewise_reference(
            data in prop::collection::vec(any::<u8>(), 20_014..20_015),
        ) {
            let lengths = (0..=300).chain(4000..=4200).chain([8128, 8129, 12_200, 19_999]);
            for len in lengths {
                for offset in [0, 1, 3, 7, 15] {
                    let slice = &data[offset..offset + len];
                    let checked = check_every_kernel(slice, crc32_bytewise(slice));
                    prop_assert!(checked.is_ok(), "{:?} at offset {}", checked, offset);
                }
            }
        }
    }

    #[test]
    fn seal_then_verify_roundtrips() {
        let mut block = *crate::zeroed_block();
        block[..5].copy_from_slice(b"hello");
        seal(&mut block);
        verify(&block).unwrap();
    }

    /// The on-disk format must not drift with the kernel: these are the
    /// trailer bytes the byte-at-a-time `crc32` of PR 2 wrote for this page.
    #[test]
    fn seal_writes_the_trailer_bytes_it_always_wrote() {
        assert_eq!(
            sealed_pattern_block()[PAGE_PAYLOAD..],
            [0x69, 0x85, 0x85, 0x6D, 0x43, 0x50, 0x01, 0x00]
        );
    }

    #[test]
    fn any_single_bit_flip_is_detected() {
        let block = sealed_pattern_block();
        verify(&block).unwrap();
        // Every bit of the block, payload and trailer alike.
        for pos in 0..BLOCK_SIZE {
            for bit in 0..8 {
                let mut copy = block;
                copy[pos] ^= 1 << bit;
                assert!(
                    matches!(verify(&copy), Err(StorageError::Corrupt(_))),
                    "flip of bit {bit} at byte {pos} must be detected"
                );
            }
        }
    }

    #[test]
    fn unsealed_block_is_corrupt() {
        let block = *crate::zeroed_block();
        assert!(matches!(verify(&block), Err(StorageError::Corrupt(_))));
    }

    #[test]
    fn the_sealed_zero_page_is_a_sealed_zeroed_block() {
        let mut block = *crate::zeroed_block();
        seal(&mut block);
        assert_eq!(block, SEALED_ZERO);
        verify(&SEALED_ZERO).unwrap();
    }

    #[test]
    fn any_single_bit_flip_of_the_sealed_zero_page_is_detected() {
        // Every bit, payload and trailer alike: each flip leaves the fast
        // path and fails the checksum path.
        for pos in 0..BLOCK_SIZE {
            for bit in 0..8 {
                let mut copy = SEALED_ZERO;
                copy[pos] ^= 1 << bit;
                assert!(
                    matches!(verify(&copy), Err(StorageError::Corrupt(_))),
                    "flip of bit {bit} at byte {pos} must be detected"
                );
            }
        }
    }
}
