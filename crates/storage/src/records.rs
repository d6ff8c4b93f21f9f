//! Append-only record file over a block device.
//!
//! This is the paper's object file: "the spatial objects are stored in a
//! plain text file and the leaf nodes of the tree data structures store
//! pointers to the object locations in the file". A [`RecordPtr`] is such a
//! pointer (a byte offset); loading the object it points to costs one
//! random block access plus however many sequential accesses the record's
//! remaining blocks need — which is how the paper's "average # disk blocks
//! per object" (Table 1) enters the measurements.
//!
//! Layout: records are packed back to back; each record is an 8-byte
//! header — a 4-byte little-endian length followed by a CRC32 of the
//! payload — then the payload itself. The checksum is verified on every
//! [`read_with`](RecordFile::read_with) and [`scan`](RecordFile::scan), so
//! a torn or bit-flipped record surfaces as [`StorageError::Corrupt`]
//! instead of silently wrong object data. A header never straddles a block
//! boundary (the writer pads with zero bytes instead), so a reader can
//! always parse it from the first block it fetches — and a pointer into the
//! last seven bytes of a block is corrupt by definition. A zero length
//! marks padding, which is unambiguous because empty records are rejected.
//!
//! [`read_with`](RecordFile::read_with) is the one read of a record: it
//! lends the payload to a closure, out of the device's block when the
//! record ends inside its first block and out of the caller's reusable
//! buffer when it runs on, so the reader of many records — a search
//! checking candidates — allocates and copies nothing for the common one.

use parking_lot::Mutex;

use crate::page::crc32;
use crate::{BlockDevice, BlockId, Result, StorageError, BLOCK_SIZE};

/// Per-record header: length (u32 LE) + CRC32 of the payload (u32 LE).
pub const RECORD_HEADER_LEN: usize = 8;
const LEN_PREFIX: usize = RECORD_HEADER_LEN;

/// Pointer to a record: its byte offset in the record file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RecordPtr(pub u64);

impl RecordPtr {
    /// Encodes the pointer for storage inside index entries.
    pub fn to_le_bytes(self) -> [u8; 8] {
        self.0.to_le_bytes()
    }

    /// Decodes a pointer written by [`RecordPtr::to_le_bytes`].
    pub fn from_le_bytes(b: [u8; 8]) -> Self {
        Self(u64::from_le_bytes(b))
    }
}

struct Tail {
    /// Logical length of the file in bytes (including the in-memory tail).
    len: u64,
    /// Bytes past the last full block, not yet durable.
    tail: Vec<u8>,
    /// Block backing the current partial tail, if one was already allocated
    /// by an earlier flush.
    tail_block: Option<BlockId>,
    /// True when the in-memory tail has bytes not yet written to the device.
    tail_dirty: bool,
    records: u64,
}

/// Append-only record store.
///
/// Appends are buffered per block; full blocks are written immediately, the
/// partial tail on [`flush`](RecordFile::flush) (reads flush on demand, so
/// readers never observe a torn record).
///
/// ```
/// use ir2_storage::{MemDevice, RecordFile};
/// let file = RecordFile::create(MemDevice::new());
/// let ptr = file.append(b"hello spatial world")?;
/// assert_eq!(file.get(ptr)?, b"hello spatial world");
/// # Ok::<(), ir2_storage::StorageError>(())
/// ```
pub struct RecordFile<D> {
    dev: D,
    state: Mutex<Tail>,
}

impl<D: BlockDevice> RecordFile<D> {
    /// Creates an empty record file on a fresh device region.
    ///
    /// The file owns the device from block 0; callers that share a device
    /// should give the record file its own.
    pub fn create(dev: D) -> Self {
        Self {
            dev,
            state: Mutex::new(Tail {
                len: 0,
                tail: Vec::with_capacity(BLOCK_SIZE),
                tail_block: None,
                tail_dirty: false,
                records: 0,
            }),
        }
    }

    /// Reopens a record file previously persisted with
    /// [`flush`](RecordFile::flush): `len` is the logical byte length and
    /// `records` the record count, both obtained from
    /// [`state`](RecordFile::state) at save time (callers persist them in
    /// their own superblock).
    pub fn open(dev: D, len: u64, records: u64) -> Result<Self> {
        if len > dev.num_blocks() * BLOCK_SIZE as u64 {
            return Err(StorageError::Corrupt(format!(
                "record file length {len} exceeds device size"
            )));
        }
        // Rehydrate the partial tail so appends can continue.
        let tail_bytes = (len % BLOCK_SIZE as u64) as usize;
        let (tail, tail_block) = if tail_bytes > 0 {
            let block_id = len / BLOCK_SIZE as u64;
            let mut buf = crate::zeroed_block();
            dev.read_block(block_id, &mut buf)?;
            (buf[..tail_bytes].to_vec(), Some(block_id))
        } else {
            (Vec::with_capacity(BLOCK_SIZE), None)
        };
        Ok(Self {
            dev,
            state: Mutex::new(Tail {
                len,
                tail,
                tail_block,
                tail_dirty: false,
                records,
            }),
        })
    }

    /// `(logical_len_bytes, record_count)` — the superblock fields needed by
    /// [`open`](RecordFile::open).
    pub fn state(&self) -> (u64, u64) {
        let s = self.state.lock();
        (s.len, s.records)
    }

    /// Number of records appended.
    pub fn num_records(&self) -> u64 {
        self.state.lock().records
    }

    /// Logical file size in bytes.
    pub fn len_bytes(&self) -> u64 {
        self.state.lock().len
    }

    /// The underlying device.
    pub fn device(&self) -> &D {
        &self.dev
    }

    /// Appends a record, returning its pointer.
    ///
    /// Returns [`StorageError::Corrupt`] for empty records (a zero length is
    /// reserved as the padding marker).
    pub fn append(&self, data: &[u8]) -> Result<RecordPtr> {
        if data.is_empty() {
            return Err(StorageError::Corrupt("empty record".into()));
        }
        if data.len() > u32::MAX as usize {
            return Err(StorageError::Corrupt("record exceeds 4 GiB".into()));
        }
        let mut s = self.state.lock();

        // Keep the length prefix inside one block: pad to the next boundary
        // if fewer than 4 bytes remain in the current block.
        let in_block = (s.len % BLOCK_SIZE as u64) as usize;
        if in_block != 0 && BLOCK_SIZE - in_block < LEN_PREFIX {
            let pad = BLOCK_SIZE - in_block;
            s.tail_dirty = true;
            s.tail.extend(std::iter::repeat_n(0u8, pad));
            s.len += pad as u64;
            self.drain_full_blocks(&mut s)?;
        }

        let ptr = RecordPtr(s.len);
        s.tail_dirty = true;
        s.tail.extend_from_slice(&(data.len() as u32).to_le_bytes());
        s.tail.extend_from_slice(&crc32(data).to_le_bytes());
        s.tail.extend_from_slice(data);
        s.len += (LEN_PREFIX + data.len()) as u64;
        s.records += 1;
        self.drain_full_blocks(&mut s)?;
        Ok(ptr)
    }

    /// Writes every full block buffered in the tail.
    fn drain_full_blocks(&self, s: &mut Tail) -> Result<()> {
        while s.tail.len() >= BLOCK_SIZE {
            let block_id = match s.tail_block.take() {
                Some(id) => id,
                None => self.dev.allocate(1)?,
            };
            let chunk: &[u8; BLOCK_SIZE] = s.tail[..BLOCK_SIZE].try_into().expect("full block");
            self.dev.write_block(block_id, chunk)?;
            s.tail.drain(..BLOCK_SIZE);
        }
        Ok(())
    }

    /// Makes the partial tail durable. Idempotent.
    pub fn flush(&self) -> Result<()> {
        let mut s = self.state.lock();
        self.flush_locked(&mut s)
    }

    fn flush_locked(&self, s: &mut Tail) -> Result<()> {
        if s.tail.is_empty() || !s.tail_dirty {
            return Ok(());
        }
        let block_id = match s.tail_block {
            Some(id) => id,
            None => {
                let id = self.dev.allocate(1)?;
                s.tail_block = Some(id);
                id
            }
        };
        let mut block = [0u8; BLOCK_SIZE];
        block[..s.tail.len()].copy_from_slice(&s.tail);
        self.dev.write_block(block_id, &block)?;
        s.tail_dirty = false;
        Ok(())
    }

    /// Reads the record at `ptr` and lends its payload to `f` — the one
    /// record read; [`get`](RecordFile::get) is this with `to_vec`.
    ///
    /// A record that ends inside its first block is lent straight out of
    /// the device ([`BlockDevice::with_block`]): no buffer, no copy. A
    /// longer one is assembled in `scratch`, which a caller issuing many
    /// reads keeps, so steady state allocates nothing either way. `f` runs
    /// while the device lends the block and must not write to the device.
    /// Bounds and the payload's CRC are checked on every read, before `f`
    /// sees a byte.
    ///
    /// Costs `ceil(record_end/4096) - floor(ptr/4096)` block accesses: one
    /// random, the rest sequential.
    pub fn read_with<R>(
        &self,
        ptr: RecordPtr,
        scratch: &mut Vec<u8>,
        f: impl FnOnce(&[u8]) -> R,
    ) -> Result<R> {
        // Ensure every byte of the file is durable before reading blocks:
        // a record may begin in the durable region yet end inside the tail.
        // The file is append-only, so the length seen here still bounds the
        // record below: one lock per load.
        let file_len = {
            let mut s = self.state.lock();
            self.flush_locked(&mut s)?;
            s.len
        };
        let payload_start = match ptr.0.checked_add(LEN_PREFIX as u64) {
            Some(end) if end <= file_len => end,
            _ => {
                return Err(StorageError::Corrupt(format!(
                    "record pointer {ptr:?} beyond end of file ({file_len})"
                )))
            }
        };
        let first_block = ptr.0 / BLOCK_SIZE as u64;
        let off = (ptr.0 % BLOCK_SIZE as u64) as usize;
        if off + LEN_PREFIX > BLOCK_SIZE {
            // The writer pads instead; no valid pointer lands here.
            return Err(StorageError::Corrupt(format!(
                "record header at {ptr:?} straddles a block boundary"
            )));
        }

        let mut f = Some(f);
        let mut first = None;
        self.dev.with_block(first_block, &mut |block| {
            let word =
                |at: usize| u32::from_le_bytes(block[at..at + 4].try_into().expect("4 bytes"));
            let (len, crc) = (word(off) as usize, word(off + 4));
            let in_file = payload_start
                .checked_add(len as u64)
                .is_some_and(|end| end <= file_len);
            first = Some(if len == 0 {
                Err(StorageError::Corrupt(format!(
                    "record pointer {ptr:?} points at padding"
                )))
            } else if !in_file {
                Err(StorageError::Corrupt(format!(
                    "record at {ptr:?} claims length {len} beyond end of file"
                )))
            } else if let Some(payload) = block[off + LEN_PREFIX..].get(..len) {
                let f = f.take().expect("with_block lends once");
                verify(ptr, payload, crc).map(|()| FirstBlock::Whole(f(payload)))
            } else {
                scratch.clear();
                scratch.extend_from_slice(&block[off + LEN_PREFIX..]);
                Ok(FirstBlock::Head { len, crc })
            });
        })?;
        let (len, crc) = match first.expect("with_block lends on success")? {
            FirstBlock::Whole(r) => return Ok(r),
            FirstBlock::Head { len, crc } => (len, crc),
        };
        let mut next_block = first_block + 1;
        while scratch.len() < len {
            let take = (len - scratch.len()).min(BLOCK_SIZE);
            self.dev.with_block(next_block, &mut |block| {
                scratch.extend_from_slice(&block[..take]);
            })?;
            next_block += 1;
        }
        verify(ptr, scratch, crc)?;
        Ok(f.take().expect("not called on a record's head")(scratch))
    }

    /// Loads the record at `ptr` into a `Vec` of its own.
    pub fn get(&self, ptr: RecordPtr) -> Result<Vec<u8>> {
        self.read_with(ptr, &mut Vec::new(), <[u8]>::to_vec)
    }

    /// Number of blocks the record at `ptr` spans (the paper's per-object
    /// block cost).
    pub fn record_blocks(&self, ptr: RecordPtr) -> Result<u32> {
        let len = self.read_with(ptr, &mut Vec::new(), <[u8]>::len)?;
        let end = ptr.0 + (LEN_PREFIX + len) as u64;
        Ok((end.div_ceil(BLOCK_SIZE as u64) - ptr.0 / BLOCK_SIZE as u64) as u32)
    }

    /// Sequentially scans every record, invoking `f(ptr, payload)`.
    ///
    /// Used for index construction; with a tracked device this produces the
    /// expected 1 random + N−1 sequential access pattern.
    pub fn scan(&self, mut f: impl FnMut(RecordPtr, &[u8]) -> Result<()>) -> Result<()> {
        self.flush()?;
        let len = self.state.lock().len;
        let mut block = crate::zeroed_block();
        let mut loaded_block: Option<u64> = None;
        let mut pos: u64 = 0;
        let mut payload = Vec::new();

        while pos + LEN_PREFIX as u64 <= len {
            let block_id = pos / BLOCK_SIZE as u64;
            let off = (pos % BLOCK_SIZE as u64) as usize;
            // Padding rule: a length prefix never straddles blocks.
            if BLOCK_SIZE - off < LEN_PREFIX {
                pos = (block_id + 1) * BLOCK_SIZE as u64;
                continue;
            }
            if loaded_block != Some(block_id) {
                self.dev.read_block(block_id, &mut block)?;
                loaded_block = Some(block_id);
            }
            let rec_len =
                u32::from_le_bytes(block[off..off + 4].try_into().expect("4 bytes")) as usize;
            let rec_crc = u32::from_le_bytes(block[off + 4..off + 8].try_into().expect("4 bytes"));
            if rec_len == 0 {
                // Padding: skip to the next block boundary.
                pos = (block_id + 1) * BLOCK_SIZE as u64;
                continue;
            }
            let ptr = RecordPtr(pos);
            payload.clear();
            payload.reserve(rec_len);
            let mut cursor = pos + LEN_PREFIX as u64;
            while payload.len() < rec_len {
                let b = cursor / BLOCK_SIZE as u64;
                let o = (cursor % BLOCK_SIZE as u64) as usize;
                if loaded_block != Some(b) {
                    self.dev.read_block(b, &mut block)?;
                    loaded_block = Some(b);
                }
                let take = (rec_len - payload.len()).min(BLOCK_SIZE - o);
                payload.extend_from_slice(&block[o..o + take]);
                cursor += take as u64;
            }
            verify(ptr, &payload, rec_crc)?;
            f(ptr, &payload)?;
            pos = cursor;
        }
        Ok(())
    }
}

/// What the first block of a record gave [`RecordFile::read_with`].
enum FirstBlock<R> {
    /// The record ended inside it: the caller's result on the lent bytes.
    Whole(R),
    /// The record runs on: its head is in `scratch`, this much is owed.
    Head { len: usize, crc: u32 },
}

/// The checksum test of every read path.
fn verify(ptr: RecordPtr, payload: &[u8], stored_crc: u32) -> Result<()> {
    if crc32(payload) != stored_crc {
        return Err(StorageError::Corrupt(format!(
            "record at {ptr:?} failed its checksum"
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MemDevice, TrackedDevice};

    #[test]
    fn append_get_roundtrip() {
        let rf = RecordFile::create(MemDevice::new());
        let a = rf.append(b"hello").unwrap();
        let b = rf.append(b"world, this is a longer record").unwrap();
        assert_eq!(rf.get(a).unwrap(), b"hello");
        assert_eq!(rf.get(b).unwrap(), b"world, this is a longer record");
        assert_eq!(rf.num_records(), 2);
    }

    #[test]
    fn rejects_empty_records() {
        let rf = RecordFile::create(MemDevice::new());
        assert!(rf.append(b"").is_err());
    }

    #[test]
    fn records_spanning_blocks() {
        let rf = RecordFile::create(MemDevice::new());
        let big = vec![0x42u8; 3 * BLOCK_SIZE + 17];
        let small = b"tiny".to_vec();
        let p1 = rf.append(&big).unwrap();
        let p2 = rf.append(&small).unwrap();
        assert_eq!(rf.get(p1).unwrap(), big);
        assert_eq!(rf.get(p2).unwrap(), small);
        assert_eq!(rf.record_blocks(p1).unwrap(), 4);
    }

    #[test]
    fn header_never_straddles_blocks() {
        let rf = RecordFile::create(MemDevice::new());
        // Leave exactly 3 bytes free in the first block:
        // 8 (header) + payload = BLOCK_SIZE - 3  =>  payload = BLOCK_SIZE - 11.
        let filler = vec![1u8; BLOCK_SIZE - 11];
        rf.append(&filler).unwrap();
        let p = rf.append(b"next").unwrap();
        // The pointer must have been pushed to the block boundary.
        assert_eq!(p.0 % BLOCK_SIZE as u64, 0);
        assert_eq!(rf.get(p).unwrap(), b"next");
    }

    #[test]
    fn get_costs_one_random_plus_sequential() {
        let tracked = TrackedDevice::new(MemDevice::new());
        let stats = tracked.stats();
        let rf = RecordFile::create(tracked);
        // One record lent out of its block, one assembled from three.
        let lent = rf.append(&[3u8; 100]).unwrap();
        let assembled = rf.append(&vec![7u8; 2 * BLOCK_SIZE]).unwrap();
        rf.flush().unwrap();

        for (ptr, seq_reads) in [(lent, 0), (assembled, 2)] {
            stats.reset();
            let scope = crate::IoScope::enter();
            rf.get(ptr).unwrap();
            for s in [scope.finish().for_stats(&stats), stats.snapshot()] {
                assert_eq!((s.random_reads, s.seq_reads), (1, seq_reads));
                assert_eq!(s.random_writes + s.seq_writes, 0);
            }
        }
    }

    /// `read_with` lends what `append` took wherever the record lies, from
    /// the device's own bytes when the record ends inside its first block
    /// (`scratch` untouched) and from `scratch` when it runs on.
    #[test]
    fn read_with_lends_every_layout() {
        let rf = RecordFile::create(MemDevice::new());
        let mut records = Vec::new();
        let mut append = |data: Vec<u8>, in_place: bool, blocks: u32| {
            let ptr = rf.append(&data).unwrap();
            records.push((ptr, data, in_place, blocks));
            ptr
        };
        // Ends exactly at the first block's boundary.
        append(vec![1; BLOCK_SIZE - LEN_PREFIX], true, 1);
        // Spans two, three and four blocks.
        append(vec![2; BLOCK_SIZE], false, 2);
        append(vec![3; 2 * BLOCK_SIZE], false, 3);
        append(vec![4; 3 * BLOCK_SIZE - 5], false, 4);
        // Fill the current block to 5 bytes short of its end: the next
        // header does not fit there and is pushed over the boundary.
        let at = (rf.len_bytes() % BLOCK_SIZE as u64) as usize;
        append(vec![5; BLOCK_SIZE - 5 - LEN_PREFIX - at], true, 1);
        let padded = append(b"after the padding".to_vec(), true, 1);
        assert_eq!(padded.0 % BLOCK_SIZE as u64, 0);
        rf.flush().unwrap();
        // In the tail, not yet on the device.
        append(b"in the dirty tail".to_vec(), true, 1);

        for (ptr, data, in_place, blocks) in &records {
            let mut scratch = Vec::new();
            let mut calls = 0;
            let lent = rf
                .read_with(*ptr, &mut scratch, |payload| {
                    calls += 1;
                    payload.to_vec()
                })
                .unwrap();
            assert_eq!((&lent, calls), (data, 1), "{ptr:?}");
            assert_eq!(scratch.is_empty(), *in_place, "{ptr:?}");
            assert!(*in_place || scratch == *data, "{ptr:?}");
            assert_eq!(&rf.get(*ptr).unwrap(), data);
            assert_eq!(rf.record_blocks(*ptr).unwrap(), *blocks);
        }
        // One scratch serves every record, whatever it held before.
        let mut scratch = vec![0xEE; 17];
        for (ptr, data, ..) in records.iter().rev() {
            let same = rf.read_with(*ptr, &mut scratch, |payload| payload == &data[..]);
            assert!(same.unwrap(), "{ptr:?}");
        }
    }

    #[test]
    fn scan_visits_all_records_in_order() {
        let rf = RecordFile::create(MemDevice::new());
        let mut expected = Vec::new();
        for i in 0..200u32 {
            let data = vec![i as u8; (i as usize % 700) + 1];
            let ptr = rf.append(&data).unwrap();
            expected.push((ptr, data));
        }
        let mut seen = Vec::new();
        rf.scan(|ptr, data| {
            seen.push((ptr, data.to_vec()));
            Ok(())
        })
        .unwrap();
        assert_eq!(seen, expected);
    }

    #[test]
    fn reopen_continues_appending() {
        let dev = std::sync::Arc::new(MemDevice::new());
        let (p1, state) = {
            let rf = RecordFile::create(std::sync::Arc::clone(&dev));
            let p1 = rf.append(b"persisted").unwrap();
            rf.flush().unwrap();
            (p1, rf.state())
        };
        let rf = RecordFile::open(std::sync::Arc::clone(&dev), state.0, state.1).unwrap();
        assert_eq!(rf.get(p1).unwrap(), b"persisted");
        let p2 = rf.append(b"appended after reopen").unwrap();
        assert_eq!(rf.get(p2).unwrap(), b"appended after reopen");
        assert_eq!(rf.num_records(), 2);
        // Original record still intact.
        assert_eq!(rf.get(p1).unwrap(), b"persisted");
    }

    #[test]
    fn flipped_byte_fails_get_and_scan() {
        let dev = std::sync::Arc::new(MemDevice::new());
        let rf = RecordFile::create(std::sync::Arc::clone(&dev));
        let p = rf.append(&vec![0x5Au8; 600]).unwrap();
        rf.flush().unwrap();
        // Garble one payload byte on the device, past the header.
        let mut block = crate::zeroed_block();
        dev.read_block(0, &mut block).unwrap();
        block[100] ^= 0x08;
        dev.write_block(0, &block).unwrap();
        assert!(matches!(rf.get(p), Err(StorageError::Corrupt(_))));
        assert!(matches!(
            rf.scan(|_, _| Ok(())),
            Err(StorageError::Corrupt(_))
        ));
    }

    #[test]
    fn get_detects_bad_pointers() {
        let rf = RecordFile::create(MemDevice::new());
        rf.append(b"only").unwrap();
        assert!(rf.get(RecordPtr(9999)).is_err());
        // Pointer into the middle of a record: length bytes will be garbage
        // or padding; either way it must not panic.
        let _ = rf.get(RecordPtr(2));

        // A header cannot begin in the last 7 bytes of a block (the writer
        // pads), and offset arithmetic on a wild pointer must not overflow.
        rf.append(&vec![9u8; 2 * BLOCK_SIZE]).unwrap();
        let corrupt = |ptr: u64| match rf.get(RecordPtr(ptr)) {
            Err(StorageError::Corrupt(msg)) => msg,
            other => panic!("pointer {ptr}: {other:?}"),
        };
        for ptr in BLOCK_SIZE as u64 - 7..BLOCK_SIZE as u64 {
            assert!(corrupt(ptr).contains("straddles a block boundary"));
        }
        for ptr in [u64::MAX, u64::MAX - LEN_PREFIX as u64, u64::MAX - 4096] {
            assert!(corrupt(ptr).contains("beyond end of file"));
        }
    }
}
