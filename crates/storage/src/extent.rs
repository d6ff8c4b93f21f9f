//! Extent I/O: reading and writing runs of consecutive blocks.
//!
//! IR²-Tree and MIR²-Tree nodes keep the plain R-Tree's fanout but carry
//! signatures, so a node "typically requires two disk blocks" (or more for
//! long signatures). A node therefore occupies an *extent* — `n` consecutive
//! blocks — and accessing it costs one random block access plus `n − 1`
//! sequential ones. With a [`TrackedDevice`](crate::TrackedDevice)
//! underneath, these helpers produce exactly that accounting because they
//! touch blocks in ascending id order.

use crate::page::{self, PAGE_PAYLOAD, PAGE_TRAILER_LEN};
use crate::{BlockDevice, BlockId, Result, StorageError, BLOCK_SIZE};

/// Number of blocks needed to hold `bytes` bytes (at least 1).
#[inline]
pub fn blocks_for(bytes: usize) -> u32 {
    (bytes.max(1)).div_ceil(BLOCK_SIZE) as u32
}

/// Number of *sealed* blocks needed to hold `bytes` payload bytes — each
/// block only carries [`PAGE_PAYLOAD`] bytes, the rest being the checksum
/// trailer.
#[inline]
pub fn sealed_blocks_for(bytes: usize) -> u32 {
    (bytes.max(1)).div_ceil(PAGE_PAYLOAD) as u32
}

/// Reads a sealed extent, verifying every block's checksum, and returns the
/// concatenated payloads (`nblocks * PAGE_PAYLOAD` bytes).
pub fn read_extent_sealed(dev: &impl BlockDevice, first: BlockId, nblocks: u32) -> Result<Vec<u8>> {
    let mut out = Vec::new();
    read_extent_sealed_into(dev, first, nblocks, &mut out)?;
    Ok(out)
}

/// Appends the payloads of a sealed extent (`nblocks * PAGE_PAYLOAD` bytes)
/// to `buf`, verifying every block's checksum.
///
/// Each block is read straight into its final position and verified there:
/// its trailer lands where the next block's payload starts and is overwritten
/// by that block's read, and the last trailer is cut off at the end. On an
/// error `buf` is left as it was, so no partly read extent is ever visible.
pub fn read_extent_sealed_into(
    dev: &impl BlockDevice,
    first: BlockId,
    nblocks: u32,
    buf: &mut Vec<u8>,
) -> Result<()> {
    let base = buf.len();
    let payloads = nblocks as usize * PAGE_PAYLOAD;
    buf.resize(base + payloads + PAGE_TRAILER_LEN, 0);
    let read = (0..nblocks as usize).try_for_each(|i| {
        let at = base + i * PAGE_PAYLOAD;
        let id = first + i as u64;
        let block: &mut [u8; BLOCK_SIZE] = (&mut buf[at..at + BLOCK_SIZE])
            .try_into()
            .expect("exact block slice");
        dev.read_block(id, block)?;
        page::verify(block).map_err(|e| StorageError::Corrupt(format!("block {id}: {e}")))
    });
    buf.truncate(if read.is_ok() { base + payloads } else { base });
    read
}

/// Writes `data` over the extent starting at `first` as sealed blocks,
/// zero-padding the last payload and giving every block a checksum trailer.
/// Returns the number of blocks written.
///
/// Returns [`StorageError::Corrupt`] if `data` is empty.
pub fn write_extent_sealed(dev: &impl BlockDevice, first: BlockId, data: &[u8]) -> Result<u32> {
    if data.is_empty() {
        return Err(StorageError::Corrupt("empty extent write".into()));
    }
    let nblocks = sealed_blocks_for(data.len());
    let mut block = [0u8; BLOCK_SIZE];
    for i in 0..nblocks as usize {
        let start = i * PAGE_PAYLOAD;
        let end = ((i + 1) * PAGE_PAYLOAD).min(data.len());
        block[..end - start].copy_from_slice(&data[start..end]);
        block[end - start..PAGE_PAYLOAD].fill(0);
        page::seal(&mut block);
        dev.write_block(first + i as u64, &block)?;
    }
    Ok(nblocks)
}

/// Allocates a sealed extent for `data` and writes it, returning the first
/// block id and the block count.
pub fn append_extent_sealed(dev: &impl BlockDevice, data: &[u8]) -> Result<(BlockId, u32)> {
    let nblocks = sealed_blocks_for(data.len());
    let first = dev.allocate(nblocks as u64)?;
    write_extent_sealed(dev, first, data)?;
    Ok((first, nblocks))
}

/// Reads `nblocks` consecutive blocks starting at `first` into one buffer.
pub fn read_extent(dev: &impl BlockDevice, first: BlockId, nblocks: u32) -> Result<Vec<u8>> {
    let mut out = vec![0u8; nblocks as usize * BLOCK_SIZE];
    read_extent_into(dev, first, nblocks, &mut out)?;
    Ok(out)
}

/// Reads an extent into a caller-provided buffer (avoids allocation on hot
/// paths such as tree traversal).
///
/// # Panics
/// Panics if `buf` is shorter than `nblocks * BLOCK_SIZE`.
pub fn read_extent_into(
    dev: &impl BlockDevice,
    first: BlockId,
    nblocks: u32,
    buf: &mut [u8],
) -> Result<()> {
    assert!(
        buf.len() >= nblocks as usize * BLOCK_SIZE,
        "extent buffer too small"
    );
    for i in 0..nblocks as usize {
        let chunk: &mut [u8; BLOCK_SIZE] = (&mut buf[i * BLOCK_SIZE..(i + 1) * BLOCK_SIZE])
            .try_into()
            .expect("exact block slice");
        dev.read_block(first + i as u64, chunk)?;
    }
    Ok(())
}

/// Writes `data` over the extent starting at `first`, zero-padding the last
/// block. Returns the number of blocks written.
///
/// Returns [`StorageError::Corrupt`] if `data` is empty — writing an empty
/// extent is always a logic error in the callers.
pub fn write_extent(dev: &impl BlockDevice, first: BlockId, data: &[u8]) -> Result<u32> {
    if data.is_empty() {
        return Err(StorageError::Corrupt("empty extent write".into()));
    }
    let nblocks = blocks_for(data.len());
    let mut block = [0u8; BLOCK_SIZE];
    for i in 0..nblocks as usize {
        let start = i * BLOCK_SIZE;
        let end = ((i + 1) * BLOCK_SIZE).min(data.len());
        block[..end - start].copy_from_slice(&data[start..end]);
        block[end - start..].fill(0);
        dev.write_block(first + i as u64, &block)?;
    }
    Ok(nblocks)
}

/// Allocates an extent of `nblocks` and writes `data` into it, returning the
/// first block id.
pub fn append_extent(dev: &impl BlockDevice, data: &[u8]) -> Result<(BlockId, u32)> {
    let nblocks = blocks_for(data.len());
    let first = dev.allocate(nblocks as u64)?;
    write_extent(dev, first, data)?;
    Ok((first, nblocks))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::FlakyDevice;
    use crate::{MemDevice, TrackedDevice};

    #[test]
    fn blocks_for_rounds_up() {
        assert_eq!(blocks_for(0), 1);
        assert_eq!(blocks_for(1), 1);
        assert_eq!(blocks_for(BLOCK_SIZE), 1);
        assert_eq!(blocks_for(BLOCK_SIZE + 1), 2);
        assert_eq!(blocks_for(3 * BLOCK_SIZE), 3);
    }

    #[test]
    fn extent_roundtrip_with_padding() {
        let dev = MemDevice::new();
        let data: Vec<u8> = (0..(BLOCK_SIZE + 100)).map(|i| (i % 251) as u8).collect();
        let (first, n) = append_extent(&dev, &data).unwrap();
        assert_eq!(n, 2);
        let back = read_extent(&dev, first, n).unwrap();
        assert_eq!(&back[..data.len()], &data[..]);
        assert!(back[data.len()..].iter().all(|&b| b == 0));
    }

    #[test]
    fn overwrite_clears_stale_tail() {
        let dev = MemDevice::new();
        let (first, _) = append_extent(&dev, &[0xFFu8; 2000]).unwrap();
        write_extent(&dev, first, &[0x11u8; 100]).unwrap();
        let back = read_extent(&dev, first, 1).unwrap();
        assert!(back[..100].iter().all(|&b| b == 0x11));
        assert!(
            back[100..].iter().all(|&b| b == 0),
            "stale bytes must be zeroed"
        );
    }

    #[test]
    fn empty_write_is_rejected() {
        let dev = MemDevice::new();
        dev.allocate(1).unwrap();
        assert!(write_extent(&dev, 0, &[]).is_err());
    }

    #[test]
    fn sealed_extent_roundtrip() {
        let dev = MemDevice::new();
        let data: Vec<u8> = (0..(PAGE_PAYLOAD + 77)).map(|i| (i % 253) as u8).collect();
        let (first, n) = append_extent_sealed(&dev, &data).unwrap();
        assert_eq!(n, 2);
        let back = read_extent_sealed(&dev, first, n).unwrap();
        assert_eq!(&back[..data.len()], &data[..]);
        assert!(back[data.len()..].iter().all(|&b| b == 0));
    }

    /// The sealed-extent read as it was before blocks were read in place:
    /// device -> bounce block -> verify -> copy into a pre-zeroed buffer.
    fn read_extent_sealed_bounce(
        dev: &impl BlockDevice,
        first: BlockId,
        nblocks: u32,
    ) -> Result<Vec<u8>> {
        let mut out = vec![0u8; nblocks as usize * PAGE_PAYLOAD];
        let mut block = [0u8; BLOCK_SIZE];
        for i in 0..nblocks as usize {
            let id = first + i as u64;
            dev.read_block(id, &mut block)?;
            page::verify(&block).map_err(|e| StorageError::Corrupt(format!("block {id}: {e}")))?;
            out[i * PAGE_PAYLOAD..(i + 1) * PAGE_PAYLOAD].copy_from_slice(&block[..PAGE_PAYLOAD]);
        }
        Ok(out)
    }

    /// A sealed extent of `nblocks` blocks whose every payload byte differs
    /// from its neighbours', behind one unrelated block.
    fn patterned_extent(dev: &impl BlockDevice, nblocks: usize) -> (BlockId, u32) {
        dev.allocate(1).unwrap();
        let data: Vec<u8> = (0..nblocks * PAGE_PAYLOAD - 5)
            .map(|i| (i * 31 % 251) as u8)
            .collect();
        append_extent_sealed(dev, &data).unwrap()
    }

    #[test]
    fn in_place_read_equals_the_bounce_buffer_read() {
        for nblocks in [1, 2, 6] {
            let dev = MemDevice::new();
            let (first, n) = patterned_extent(&dev, nblocks);
            assert_eq!(n as usize, nblocks);
            let want = read_extent_sealed_bounce(&dev, first, n).unwrap();
            let got = read_extent_sealed(&dev, first, n).unwrap();
            assert_eq!(got, want, "{nblocks}-block extent");

            // Appending after bytes already in the buffer leaves them alone.
            let mut buf = b"head".to_vec();
            read_extent_sealed_into(&dev, first, n, &mut buf).unwrap();
            assert_eq!(&buf[..4], b"head");
            assert_eq!(&buf[4..], &want[..]);
        }
    }

    #[test]
    fn sealed_read_detects_flipped_byte_in_any_block() {
        let dev = MemDevice::new();
        let (first, n) = patterned_extent(&dev, 6);
        for victim in 0..n as u64 {
            let mut raw = crate::zeroed_block();
            dev.read_block(first + victim, &mut raw).unwrap();
            raw[100] ^= 0x01;
            dev.write_block(first + victim, &raw).unwrap();
            let mut buf = b"head".to_vec();
            match read_extent_sealed_into(&dev, first, n, &mut buf) {
                Err(StorageError::Corrupt(msg)) => assert!(
                    msg.starts_with(&format!("block {}: ", first + victim)),
                    "flip in block {victim} must name it: {msg}"
                ),
                other => panic!("flip in block {victim} must fail the read: {other:?}"),
            }
            assert_eq!(buf, b"head", "a failed read leaves the buffer as it was");
            raw[100] ^= 0x01; // restore for the next iteration
            dev.write_block(first + victim, &raw).unwrap();
        }
        read_extent_sealed(&dev, first, n).unwrap();
    }

    #[test]
    fn read_failing_mid_extent_leaves_the_buffer_as_it_was() {
        let dev = FlakyDevice::new(MemDevice::new(), u64::MAX);
        let (first, n) = patterned_extent(&dev, 6);
        for reads_allowed in 0..n as u64 {
            dev.refill(reads_allowed);
            let mut buf = b"head".to_vec();
            assert!(matches!(
                read_extent_sealed_into(&dev, first, n, &mut buf),
                Err(StorageError::Io { .. })
            ));
            assert_eq!(buf, b"head", "failure after {reads_allowed} blocks");
        }
        dev.refill(n as u64);
        assert_eq!(
            read_extent_sealed(&dev, first, n).unwrap().len(),
            n as usize * PAGE_PAYLOAD
        );
    }

    #[test]
    fn sealed_read_rejects_unsealed_blocks() {
        let dev = MemDevice::new();
        let first = dev.allocate(1).unwrap();
        write_extent(&dev, first, &[1u8; 64]).unwrap(); // plain, no trailer
        assert!(matches!(
            read_extent_sealed(&dev, first, 1),
            Err(StorageError::Corrupt(_))
        ));
    }

    #[test]
    fn extent_read_costs_one_random_plus_sequential() {
        let dev = TrackedDevice::new(MemDevice::new());
        let data = vec![7u8; 3 * BLOCK_SIZE];
        let (first, n) = append_extent(&dev, &data).unwrap();
        dev.stats().reset();

        read_extent(&dev, first, n).unwrap();
        let s = dev.stats().snapshot();
        assert_eq!(s.random_reads, 1, "first block of the extent seeks");
        assert_eq!(s.seq_reads, 2, "remaining blocks stream sequentially");
    }
}
