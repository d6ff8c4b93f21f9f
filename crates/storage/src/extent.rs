//! Extent I/O: reading and writing runs of consecutive blocks.
//!
//! IR²-Tree and MIR²-Tree nodes keep the plain R-Tree's fanout but carry
//! signatures, so a node "typically requires two disk blocks" (or more for
//! long signatures). A node therefore occupies an *extent* — `n` consecutive
//! blocks — and accessing it costs one random block access plus `n − 1`
//! sequential ones. With a [`TrackedDevice`](crate::TrackedDevice)
//! underneath, these helpers produce exactly that accounting because they
//! touch blocks in ascending id order.
//!
//! Every sealed read goes through [`with_sealed_payload`]: the block is
//! verified where the device holds it ([`BlockDevice::with_block`]) and its
//! payload is lent to the caller in the same lend, so a caller that keeps
//! the payload copies it once, out of a block the checksum has just pulled
//! into the CPU's cache, and a caller that only checks it copies nothing.
//! The tree's node read appends each filled block's payload this way into
//! a buffer the search owns; [`read_extent_sealed_into`] and
//! [`verify_extent_sealed`] are the same loop over a whole extent.

use crate::page::{self, PAGE_PAYLOAD};
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

/// Reads sealed block `id` (one block access), verifies its checksum where
/// the device holds it and, if it holds, lends the block's payload to `f`
/// and returns what `f` returns. A block that fails the check is
/// `Corrupt("block {id}: …")` and `f` never runs.
pub fn with_sealed_payload<T>(
    dev: &impl BlockDevice,
    id: BlockId,
    f: impl FnOnce(&[u8; PAGE_PAYLOAD]) -> T,
) -> Result<T> {
    let mut f = Some(f);
    let mut out = None;
    dev.with_block(id, &mut |block| {
        out = Some(page::verify(block).map(|()| {
            let payload = block.first_chunk::<PAGE_PAYLOAD>().expect("a payload");
            (f.take().expect("a block is lent once"))(payload)
        }));
    })?;
    out.expect("a successful read lends its block")
        .map_err(|e| StorageError::Corrupt(format!("block {id}: {e}")))
}

/// Reads a sealed extent, verifying every block's checksum, and returns the
/// concatenated payloads (`nblocks * PAGE_PAYLOAD` bytes).
pub fn read_extent_sealed(dev: &impl BlockDevice, first: BlockId, nblocks: u32) -> Result<Vec<u8>> {
    let mut out = Vec::new();
    read_extent_sealed_into(dev, first, nblocks, &mut out)?;
    Ok(out)
}

/// Appends the payloads of a sealed extent (`nblocks * PAGE_PAYLOAD` bytes)
/// to `buf`, verifying every block's checksum, in ascending order.
///
/// Each block is verified where the device holds it and its payload
/// appended in the same lend ([`with_sealed_payload`]); `buf` grows by one
/// exact reservation and nothing is zero-filled. On an error `buf` is left
/// as it was, so no partly read extent is ever visible.
pub fn read_extent_sealed_into(
    dev: &impl BlockDevice,
    first: BlockId,
    nblocks: u32,
    buf: &mut Vec<u8>,
) -> Result<()> {
    let base = buf.len();
    buf.reserve_exact(nblocks as usize * PAGE_PAYLOAD);
    let read = (first..first + nblocks as u64)
        .try_for_each(|id| with_sealed_payload(dev, id, |payload| buf.extend_from_slice(payload)));
    if read.is_err() {
        buf.truncate(base);
    }
    read
}

/// Verifies the `nblocks` sealed blocks starting at `first` where the device
/// holds them ([`BlockDevice::with_block`]), in ascending order, copying
/// nothing: the tail of an extent whose payload the caller does not need —
/// a node's padding past its last entry, whose intact blocks are the
/// [`SEALED_ZERO`](page::SEALED_ZERO) page and cost a comparison, not a
/// checksum. The reads and errors are those of
/// [`read_extent_sealed_into`].
pub fn verify_extent_sealed(dev: &impl BlockDevice, first: BlockId, nblocks: u32) -> Result<()> {
    (first..first + nblocks as u64).try_for_each(|id| with_sealed_payload(dev, id, |_| ()))
}

/// Writes `data` over the first blocks of the `nblocks`-block extent at
/// `first` as sealed blocks, zero-padding the last payload and giving every
/// block a checksum trailer, and the [`SEALED_ZERO`](page::SEALED_ZERO)
/// page over every block after those — what sealing zero payloads would
/// write, copied instead of checksummed.
///
/// Returns [`StorageError::Corrupt`] if `data` is empty or does not fit in
/// `nblocks` blocks.
pub fn write_extent_sealed(
    dev: &impl BlockDevice,
    first: BlockId,
    data: &[u8],
    nblocks: u32,
) -> Result<()> {
    let filled = sealed_blocks_for(data.len());
    if data.is_empty() || filled > nblocks {
        return Err(StorageError::Corrupt(format!(
            "extent write of {} bytes into {nblocks} blocks",
            data.len()
        )));
    }
    let mut block = [0u8; BLOCK_SIZE];
    for (i, chunk) in data.chunks(PAGE_PAYLOAD).enumerate() {
        block[..chunk.len()].copy_from_slice(chunk);
        block[chunk.len()..PAGE_PAYLOAD].fill(0);
        page::seal(&mut block);
        dev.write_block(first + i as u64, &block)?;
    }
    (filled..nblocks).try_for_each(|i| dev.write_block(first + i as u64, &page::SEALED_ZERO))
}

/// Allocates an extent of `nblocks` and writes `data` into it as plain,
/// unsealed blocks, zero-padding the last one; returns the first block id
/// and the block count.
///
/// Returns [`StorageError::Corrupt`] if `data` is empty — writing an empty
/// extent is always a logic error in the callers.
pub fn append_extent(dev: &impl BlockDevice, data: &[u8]) -> Result<(BlockId, u32)> {
    if data.is_empty() {
        return Err(StorageError::Corrupt("empty extent write".into()));
    }
    let nblocks = blocks_for(data.len());
    let first = dev.allocate(nblocks as u64)?;
    let mut block = [0u8; BLOCK_SIZE];
    for (i, chunk) in data.chunks(BLOCK_SIZE).enumerate() {
        block[..chunk.len()].copy_from_slice(chunk);
        block[chunk.len()..].fill(0);
        dev.write_block(first + i as u64, &block)?;
    }
    Ok((first, nblocks))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::FaultPlan;
    use crate::{MemDevice, TrackedDevice};

    #[test]
    fn blocks_for_rounds_up() {
        assert_eq!(blocks_for(0), 1);
        assert_eq!(blocks_for(1), 1);
        assert_eq!(blocks_for(BLOCK_SIZE), 1);
        assert_eq!(blocks_for(BLOCK_SIZE + 1), 2);
        assert_eq!(blocks_for(3 * BLOCK_SIZE), 3);
    }

    /// The raw bytes of `nblocks` blocks from `first`, one `read_block` each.
    fn read_raw(dev: &impl BlockDevice, first: BlockId, nblocks: u32) -> Vec<u8> {
        let mut block = crate::zeroed_block();
        (first..first + nblocks as u64)
            .flat_map(|id| {
                dev.read_block(id, &mut block).unwrap();
                *block
            })
            .collect()
    }

    /// Allocates a sealed extent for `data` and writes it.
    fn append_sealed(dev: &impl BlockDevice, data: &[u8]) -> (BlockId, u32) {
        let nblocks = sealed_blocks_for(data.len());
        let first = dev.allocate(nblocks as u64).unwrap();
        write_extent_sealed(dev, first, data, nblocks).unwrap();
        (first, nblocks)
    }

    #[test]
    fn extent_roundtrip_with_padding() {
        let dev = MemDevice::new();
        let data: Vec<u8> = (0..(BLOCK_SIZE + 100)).map(|i| (i % 251) as u8).collect();
        let (first, n) = append_extent(&dev, &data).unwrap();
        assert_eq!(n, 2);
        let back = read_raw(&dev, first, n);
        assert_eq!(&back[..data.len()], &data[..]);
        assert!(back[data.len()..].iter().all(|&b| b == 0));
    }

    #[test]
    fn overwrite_clears_stale_tail() {
        let dev = MemDevice::new();
        let (first, n) = append_sealed(&dev, &[0xFFu8; 2000]);
        write_extent_sealed(&dev, first, &[0x11u8; 100], n).unwrap();
        let back = read_extent_sealed(&dev, first, n).unwrap();
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
        assert!(write_extent_sealed(&dev, 0, &[], 1).is_err());
        assert!(append_extent(&dev, &[]).is_err());
    }

    #[test]
    fn sealed_extent_roundtrip() {
        let dev = MemDevice::new();
        let data: Vec<u8> = (0..(PAGE_PAYLOAD + 77)).map(|i| (i % 253) as u8).collect();
        let (first, n) = append_sealed(&dev, &data);
        assert_eq!(n, 2);
        let back = read_extent_sealed(&dev, first, n).unwrap();
        assert_eq!(&back[..data.len()], &data[..]);
        assert!(back[data.len()..].iter().all(|&b| b == 0));
    }

    /// The sealed-extent read at its plainest: device -> bounce block ->
    /// verify -> copy into a pre-zeroed buffer.
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
        append_sealed(dev, &data)
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
        let plan = FaultPlan::new();
        let dev = plan.wrap(MemDevice::new());
        let (first, n) = patterned_extent(&dev, 6);
        for reads_allowed in 0..n as u64 {
            plan.set_budget(reads_allowed);
            let mut buf = b"head".to_vec();
            assert!(matches!(
                read_extent_sealed_into(&dev, first, n, &mut buf),
                Err(StorageError::Io { .. })
            ));
            assert_eq!(buf, b"head", "failure after {reads_allowed} blocks");
        }
        plan.set_budget(n as u64);
        assert_eq!(
            read_extent_sealed(&dev, first, n).unwrap().len(),
            n as usize * PAGE_PAYLOAD
        );
    }

    #[test]
    fn a_padded_write_is_the_sealed_write_of_the_zero_padded_data() {
        for (len, nblocks) in [(1, 1), (100, 4), (PAGE_PAYLOAD, 2), (PAGE_PAYLOAD + 1, 5)] {
            let data: Vec<u8> = (0..len).map(|i| (i % 251) as u8 | 1).collect();
            let mut padded = data.clone();
            padded.resize(nblocks * PAGE_PAYLOAD, 0);
            let (want, got) = (MemDevice::new(), MemDevice::new());
            append_sealed(&want, &padded);
            let first = got.allocate(nblocks as u64).unwrap();
            write_extent_sealed(&got, first, &data, nblocks as u32).unwrap();
            assert!(
                crate::diff_blocks(&want, &got).unwrap().is_empty(),
                "{len} bytes into {nblocks} blocks"
            );
            verify_extent_sealed(&got, first, nblocks as u32).unwrap();
        }
        let dev = MemDevice::new();
        dev.allocate(2).unwrap();
        assert!(write_extent_sealed(&dev, 0, &[], 2).is_err());
        assert!(write_extent_sealed(&dev, 0, &[1; 2 * PAGE_PAYLOAD + 1], 2).is_err());
    }

    #[test]
    fn in_place_verify_names_the_bad_block_and_reads_in_order() {
        let dev = TrackedDevice::new(MemDevice::new());
        let (first, n) = patterned_extent(&dev, 4);
        dev.stats().reset();
        verify_extent_sealed(&dev, first, n).unwrap();
        let s = dev.stats().snapshot();
        assert_eq!((s.random_reads, s.seq_reads), (1, 3));
        let mut raw = crate::zeroed_block();
        dev.read_block(first + 2, &mut raw).unwrap();
        raw[7] ^= 0x10;
        dev.write_block(first + 2, &raw).unwrap();
        match verify_extent_sealed(&dev, first, n) {
            Err(StorageError::Corrupt(msg)) => {
                assert!(msg.starts_with(&format!("block {}: ", first + 2)), "{msg}")
            }
            other => panic!("a flipped block must fail the verify: {other:?}"),
        }
    }

    #[test]
    fn sealed_read_rejects_unsealed_blocks() {
        let dev = MemDevice::new();
        let (first, _) = append_extent(&dev, &[1u8; 64]).unwrap(); // plain, no trailer
        assert!(matches!(
            read_extent_sealed(&dev, first, 1),
            Err(StorageError::Corrupt(_))
        ));
    }

    #[test]
    fn extent_read_costs_one_random_plus_sequential() {
        let dev = TrackedDevice::new(MemDevice::new());
        let (first, n) = append_sealed(&dev, &[7u8; 3 * PAGE_PAYLOAD]);
        dev.stats().reset();

        read_extent_sealed(&dev, first, n).unwrap();
        let s = dev.stats().snapshot();
        assert_eq!(s.random_reads, 1, "first block of the extent seeks");
        assert_eq!(s.seq_reads, 2, "remaining blocks stream sequentially");
    }
}
