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
//! # The checksum kernel
//!
//! Every node visit of an uncached query verifies a run of blocks, so
//! [`crc32`] is the cold read path. It is one safe, portable function:
//! slicing-by-8 (eight 256-entry tables, 8 KiB, fold eight input bytes per
//! step) run over four interleaved 1016-byte lanes whenever at least
//! 4 × 1016 bytes remain, the lanes folded together through a 4 KiB
//! "advance the register by 1016 zero bytes" table, and the same step, then
//! single bytes, finishing the tail. All 12 KiB are `static` data computed
//! at compile time. Nothing in it is outside safe Rust or specific to one
//! CPU, nothing is chosen at run time and there is no second
//! implementation: the byte-at-a-time loop survives only as the reference
//! the tests compare against.

use crate::{Result, StorageError, BLOCK_SIZE};

/// Bytes reserved at the end of every sealed block.
pub const PAGE_TRAILER_LEN: usize = 8;

/// Usable payload bytes in a sealed block.
pub const PAGE_PAYLOAD: usize = BLOCK_SIZE - PAGE_TRAILER_LEN;

/// Trailer magic, little-endian at bytes 4092..4094.
const TRAILER_MAGIC: u16 = 0x5043;

/// On-disk format version of the sealed page layout.
pub const PAGE_VERSION: u8 = 1;

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

/// CRC32 (IEEE) of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = !0u32;
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
    !crc
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
pub fn verify(block: &[u8; BLOCK_SIZE]) -> Result<()> {
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

    /// The one-byte-per-step loop the kernel replaced, kept as the oracle.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in data {
            crc = (crc >> 8) ^ SLICE[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        !crc
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

    #[test]
    fn crc32_known_vectors() {
        // Standard check value for the IEEE polynomial.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Every length on both sides of a slicing step, of the 4 x 1016
        /// lane threshold and of `PAGE_PAYLOAD`, a few that take the lane
        /// loop more than once, each at aligned and unaligned starts.
        #[test]
        fn crc32_matches_the_bytewise_reference(
            data in prop::collection::vec(any::<u8>(), 20_002..20_003),
        ) {
            let lengths = (0..=300).chain(4000..=4200).chain([8128, 8129, 12_200, 19_999]);
            for len in lengths {
                for offset in [0, 1, 3] {
                    let slice = &data[offset..offset + len];
                    prop_assert_eq!(
                        crc32(slice),
                        crc32_bytewise(slice),
                        "length {} at offset {}", len, offset
                    );
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
}
