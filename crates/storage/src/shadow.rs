//! Atomic catalog storage via alternating shadow extents.
//!
//! A catalog that is rewritten in place at a fixed block is torn by any
//! crash mid-write. [`ShadowPair`] instead keeps **two** header blocks
//! (blocks 0 and 1) and writes each new catalog version to a payload extent
//! owned by the slot *not* holding the current version:
//!
//! ```text
//! block 0   header slot 0 (sealed): magic, epoch, payload location + CRC
//! block 1   header slot 1 (sealed): likewise
//! block 2+  payload extents, allocated as needed
//! ```
//!
//! A save writes the payload extent first, syncs, then writes the single
//! header block and syncs again; the header write is the commit point. On
//! open, both headers are read and the one with the **highest valid epoch**
//! whose payload also verifies wins. A crash anywhere in `save` therefore
//! leaves the previous version intact and discoverable: torn payload or
//! torn header blocks fail their checksums and the other slot is used. Only
//! if *neither* slot holds a valid version does open fail with
//! [`StorageError::Corrupt`].

use parking_lot::Mutex;

use crate::page::{self, crc32, PAGE_PAYLOAD};
use crate::{extent, BlockDevice, BlockId, Result, StorageError, BLOCK_SIZE};

const HEADER_MAGIC: &[u8; 4] = b"IR2S";

/// Header layout inside the sealed payload of a header block:
/// magic(4) epoch(8) payload_first(8) payload_nblocks(4) payload_len(8)
/// payload_crc(4) = 36 bytes; the rest of the payload is zero.
#[derive(Clone, Copy, Debug)]
struct Slot {
    epoch: u64,
    payload_first: BlockId,
    payload_nblocks: u32,
    payload_len: u64,
    payload_crc: u32,
}

impl Slot {
    fn encode(&self, block: &mut [u8; BLOCK_SIZE]) {
        block[..PAGE_PAYLOAD].fill(0);
        block[0..4].copy_from_slice(HEADER_MAGIC);
        block[4..12].copy_from_slice(&self.epoch.to_le_bytes());
        block[12..20].copy_from_slice(&self.payload_first.to_le_bytes());
        block[20..24].copy_from_slice(&self.payload_nblocks.to_le_bytes());
        block[24..32].copy_from_slice(&self.payload_len.to_le_bytes());
        block[32..36].copy_from_slice(&self.payload_crc.to_le_bytes());
        page::seal(block);
    }

    fn decode(block: &[u8; BLOCK_SIZE]) -> Result<Self> {
        page::verify(block)?;
        if &block[0..4] != HEADER_MAGIC {
            return Err(StorageError::Corrupt("bad shadow header magic".into()));
        }
        let u64_at = |o: usize| u64::from_le_bytes(block[o..o + 8].try_into().unwrap());
        let u32_at = |o: usize| u32::from_le_bytes(block[o..o + 4].try_into().unwrap());
        Ok(Slot {
            epoch: u64_at(4),
            payload_first: u64_at(12),
            payload_nblocks: u32_at(20),
            payload_len: u64_at(24),
            payload_crc: u32_at(32),
        })
    }
}

struct ShadowState {
    /// Epoch of the current durable version; the next save uses `epoch + 1`.
    epoch: u64,
    /// Payload extent owned by each slot (first block, capacity in blocks),
    /// reused across saves when large enough.
    extents: [Option<(BlockId, u32)>; 2],
}

/// Crash-safe versioned storage for one logical blob (the catalog).
pub struct ShadowPair<D> {
    dev: D,
    state: Mutex<ShadowState>,
}

impl<D: BlockDevice> ShadowPair<D> {
    /// Initializes a fresh device: allocates the two header blocks and
    /// writes epoch-0 headers pointing at no payload. `open` on a device in
    /// this state fails (no version saved yet); call [`save`](Self::save)
    /// first.
    pub fn create(dev: D) -> Result<Self> {
        if dev.num_blocks() != 0 {
            return Err(StorageError::Corrupt(
                "shadow create on non-empty device".into(),
            ));
        }
        dev.allocate(2)?;
        // Deliberately left unsealed: a slot that was never written is
        // indistinguishable from a torn one, and both are simply invalid.
        Ok(Self {
            dev,
            state: Mutex::new(ShadowState {
                epoch: 0,
                extents: [None, None],
            }),
        })
    }

    /// Opens an existing pair and returns the payload of the highest valid
    /// epoch. Fails with [`StorageError::Corrupt`] if neither slot holds a
    /// verifiable version.
    pub fn open(dev: D) -> Result<(Self, Vec<u8>)> {
        if dev.num_blocks() < 2 {
            return Err(StorageError::Corrupt(
                "shadow device too small for header pair".into(),
            ));
        }
        let mut slots: [Option<Slot>; 2] = [None, None];
        let mut block = [0u8; BLOCK_SIZE];
        for (i, stored) in slots.iter_mut().enumerate() {
            if dev.read_block(i as u64, &mut block).is_ok() {
                if let Ok(slot) = Slot::decode(&block) {
                    *stored = Some(slot);
                }
            }
        }
        // Try the higher epoch first, falling back to the other slot if its
        // payload does not verify (e.g. torn while being overwritten).
        let mut order: Vec<Slot> = slots.iter().flatten().copied().collect();
        order.sort_by_key(|s| std::cmp::Reverse(s.epoch));
        for slot in &order {
            match Self::load_payload(&dev, slot) {
                Ok(payload) => {
                    let extents = [
                        slots[0].map(|s| (s.payload_first, s.payload_nblocks)),
                        slots[1].map(|s| (s.payload_first, s.payload_nblocks)),
                    ];
                    return Ok((
                        Self {
                            dev,
                            state: Mutex::new(ShadowState {
                                epoch: slot.epoch,
                                extents,
                            }),
                        },
                        payload,
                    ));
                }
                Err(StorageError::Corrupt(_)) | Err(StorageError::OutOfBounds { .. }) => continue,
                Err(e) => return Err(e),
            }
        }
        Err(StorageError::Corrupt(
            "no valid catalog version in either shadow slot".into(),
        ))
    }

    fn load_payload(dev: &D, slot: &Slot) -> Result<Vec<u8>> {
        if slot.payload_nblocks == 0 {
            return Err(StorageError::Corrupt("shadow slot has no payload".into()));
        }
        let len = slot.payload_len as usize;
        if len > slot.payload_nblocks as usize * PAGE_PAYLOAD {
            return Err(StorageError::Corrupt(
                "shadow payload length exceeds its extent".into(),
            ));
        }
        let mut payload =
            extent::read_extent_sealed(dev, slot.payload_first, slot.payload_nblocks)?;
        payload.truncate(len);
        if crc32(&payload) != slot.payload_crc {
            return Err(StorageError::Corrupt(
                "shadow payload checksum mismatch".into(),
            ));
        }
        Ok(payload)
    }

    /// Atomically replaces the stored blob with `payload`.
    ///
    /// Ordering: payload extent (sealed) → sync → header block (sealed) →
    /// sync. The header write flips the epoch; until it lands, `open` still
    /// returns the previous version.
    pub fn save(&self, payload: &[u8]) -> Result<()> {
        if payload.is_empty() {
            return Err(StorageError::Corrupt("empty catalog payload".into()));
        }
        let mut state = self.state.lock();
        let epoch = state.epoch + 1;
        let slot_idx = (epoch % 2) as usize;
        let needed = extent::sealed_blocks_for(payload.len());
        // Reuse the slot's own extent when large enough — its current
        // contents belong to a version two epochs old, never the live one.
        let (first, cap) = match state.extents[slot_idx] {
            Some((first, cap)) if cap >= needed => (first, cap),
            _ => (self.dev.allocate(needed as u64)?, needed),
        };
        extent::write_extent_sealed(&self.dev, first, payload, needed)?;
        self.dev.sync()?;
        let slot = Slot {
            epoch,
            payload_first: first,
            payload_nblocks: needed,
            payload_len: payload.len() as u64,
            payload_crc: crc32(payload),
        };
        let mut block = [0u8; BLOCK_SIZE];
        slot.encode(&mut block);
        self.dev.write_block(slot_idx as u64, &block)?;
        self.dev.sync()?;
        state.epoch = epoch;
        state.extents[slot_idx] = Some((first, cap));
        Ok(())
    }

    /// Epoch of the current durable version (0 before the first save).
    pub fn epoch(&self) -> u64 {
        self.state.lock().epoch
    }

    /// The underlying device.
    pub fn device(&self) -> &D {
        &self.dev
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::FaultPlan;
    use crate::MemDevice;
    use std::sync::Arc;

    #[test]
    fn save_open_roundtrip_alternates_slots() {
        let dev = Arc::new(MemDevice::new());
        let pair = ShadowPair::create(Arc::clone(&dev)).unwrap();
        pair.save(b"version one").unwrap();
        pair.save(b"version two, a bit longer").unwrap();
        pair.save(b"v3").unwrap();
        assert_eq!(pair.epoch(), 3);
        drop(pair);
        let (pair, payload) = ShadowPair::open(Arc::clone(&dev)).unwrap();
        assert_eq!(payload, b"v3");
        assert_eq!(pair.epoch(), 3);
    }

    #[test]
    fn open_before_first_save_is_corrupt() {
        let dev = Arc::new(MemDevice::new());
        ShadowPair::create(Arc::clone(&dev)).unwrap();
        assert!(matches!(
            ShadowPair::open(dev).map(|_| ()),
            Err(StorageError::Corrupt(_))
        ));
    }

    #[test]
    fn torn_header_falls_back_to_previous_version() {
        let dev = Arc::new(MemDevice::new());
        let pair = ShadowPair::create(Arc::clone(&dev)).unwrap();
        pair.save(b"old").unwrap(); // epoch 1 → slot 1
        pair.save(b"new").unwrap(); // epoch 2 → slot 0
        drop(pair);
        // Garble the epoch-2 header (block 0): opener must fall back to "old".
        let mut block = crate::zeroed_block();
        dev.read_block(0, &mut block).unwrap();
        block[7] ^= 0xFF;
        dev.write_block(0, &block).unwrap();
        let (_, payload) = ShadowPair::open(Arc::clone(&dev)).unwrap();
        assert_eq!(payload, b"old");
    }

    #[test]
    fn torn_payload_falls_back_to_previous_version() {
        let dev = Arc::new(MemDevice::new());
        let pair = ShadowPair::create(Arc::clone(&dev)).unwrap();
        pair.save(&vec![1u8; 10_000]).unwrap(); // epoch 1
        pair.save(&vec![2u8; 10_000]).unwrap(); // epoch 2
                                                // Find epoch 2's payload extent from its header and garble a middle block.
        let mut header = crate::zeroed_block();
        dev.read_block(0, &mut header).unwrap();
        let slot = Slot::decode(&header).unwrap();
        assert_eq!(slot.epoch, 2);
        let mut victim = crate::zeroed_block();
        dev.read_block(slot.payload_first + 1, &mut victim).unwrap();
        victim[17] ^= 0x40;
        dev.write_block(slot.payload_first + 1, &victim).unwrap();
        drop(pair);
        let (pair, payload) = ShadowPair::open(Arc::clone(&dev)).unwrap();
        assert_eq!(payload, vec![1u8; 10_000]);
        // And the store keeps working: the next save must not resurrect v2.
        pair.save(b"after recovery").unwrap();
        drop(pair);
        let (_, payload) = ShadowPair::open(dev).unwrap();
        assert_eq!(payload, b"after recovery");
    }

    #[test]
    fn failed_save_leaves_previous_version_openable() {
        let dev = Arc::new(MemDevice::new());
        let pair = ShadowPair::create(Arc::clone(&dev)).unwrap();
        pair.save(b"durable").unwrap();
        drop(pair);
        // Every possible failure budget during a save of a 3-block payload:
        // reopen must always yield either the old or the new version.
        for budget in 0..12u64 {
            let snapshot = Arc::new(MemDevice::new());
            copy_device(&dev, &snapshot);
            let flaky = FaultPlan::budget(budget).wrap(Arc::clone(&snapshot));
            // The open itself may exhaust the budget; that writes nothing.
            if let Ok((pair, _)) = ShadowPair::open(&flaky) {
                let _ = pair.save(&vec![9u8; 2 * PAGE_PAYLOAD + 5]);
            }
            let (_, payload) = ShadowPair::open(Arc::clone(&snapshot)).unwrap();
            assert!(
                payload == b"durable" || payload == vec![9u8; 2 * PAGE_PAYLOAD + 5],
                "budget {budget}: unexpected payload of {} bytes",
                payload.len()
            );
        }
    }

    fn copy_device(src: &MemDevice, dst: &MemDevice) {
        let n = src.num_blocks();
        dst.allocate(n).unwrap();
        let mut block = crate::zeroed_block();
        for i in 0..n {
            src.read_block(i, &mut block).unwrap();
            dst.write_block(i, &block).unwrap();
        }
    }
}
