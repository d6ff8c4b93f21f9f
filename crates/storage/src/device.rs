//! Block devices: the 4096-byte-block disk abstraction.

use std::fs::{File, OpenOptions};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::RwLock;

use crate::{BlockId, IoOp, Result, StorageError, BLOCK_SIZE};

/// A device of fixed-size (4096-byte) blocks.
///
/// Every index structure in the workspace is stored on a `BlockDevice`, so
/// that each structure's footprint (Table 2 of the paper) and each query's
/// block accesses (Figures 9–14) can be measured independently. All methods
/// take `&self`; implementations are internally synchronized.
pub trait BlockDevice: Send + Sync {
    /// Reads block `id` into `buf`.
    fn read_block(&self, id: BlockId, buf: &mut [u8; BLOCK_SIZE]) -> Result<()>;

    /// Reads block `id` and lends it to `f`: one block access, counted,
    /// retried and faulted exactly like [`read_block`](Self::read_block),
    /// without the caller owning a 4 KB buffer. `f` runs exactly once when
    /// the read succeeds and never when it fails.
    ///
    /// The default reads into a buffer of its own, so every wrapper is
    /// correct without knowing about this method. A device that holds the
    /// block in memory lends its own bytes instead — [`MemDevice`] does,
    /// under its read lock, so `f` must not write to the device it reads.
    fn with_block(&self, id: BlockId, f: &mut dyn FnMut(&[u8; BLOCK_SIZE])) -> Result<()> {
        let mut buf = [0u8; BLOCK_SIZE];
        self.read_block(id, &mut buf)?;
        f(&buf);
        Ok(())
    }

    /// Writes `data` as the full contents of block `id`.
    fn write_block(&self, id: BlockId, data: &[u8; BLOCK_SIZE]) -> Result<()>;

    /// Extends the device by `n` zeroed blocks, returning the id of the
    /// first new block. The `n` blocks are consecutive.
    fn allocate(&self, n: u64) -> Result<BlockId>;

    /// Number of blocks currently allocated.
    fn num_blocks(&self) -> u64;

    /// Total allocated size in bytes.
    fn size_bytes(&self) -> u64 {
        self.num_blocks() * BLOCK_SIZE as u64
    }

    /// Flushes buffered state to durable storage, where applicable.
    fn sync(&self) -> Result<()> {
        Ok(())
    }
}

/// Blanket impl so `Arc<D>`, `&D`, `Box<D>` are devices too.
impl<D: BlockDevice + ?Sized, P: std::ops::Deref<Target = D> + Send + Sync> BlockDevice for P {
    fn read_block(&self, id: BlockId, buf: &mut [u8; BLOCK_SIZE]) -> Result<()> {
        (**self).read_block(id, buf)
    }
    fn with_block(&self, id: BlockId, f: &mut dyn FnMut(&[u8; BLOCK_SIZE])) -> Result<()> {
        (**self).with_block(id, f)
    }
    fn write_block(&self, id: BlockId, data: &[u8; BLOCK_SIZE]) -> Result<()> {
        (**self).write_block(id, data)
    }
    fn allocate(&self, n: u64) -> Result<BlockId> {
        (**self).allocate(n)
    }
    fn num_blocks(&self) -> u64 {
        (**self).num_blocks()
    }
    fn sync(&self) -> Result<()> {
        (**self).sync()
    }
}

/// Volatile in-memory block device.
///
/// Used by the experiment harness: contents live in RAM while the
/// [`TrackedDevice`](crate::TrackedDevice) wrapper plus
/// [`CostModel`](crate::CostModel) *simulate* the disk the paper measured.
/// This keeps experiments deterministic and independent of the host's
/// actual storage hardware.
#[derive(Default)]
pub struct MemDevice {
    blocks: RwLock<Vec<u8>>,
}

impl MemDevice {
    /// Creates an empty device.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a device with `n` zeroed blocks pre-allocated.
    pub fn with_blocks(n: u64) -> Self {
        Self {
            blocks: RwLock::new(vec![0u8; n as usize * BLOCK_SIZE]),
        }
    }

    /// The byte offset of block `id` in a buffer of `len_bytes`. The id is
    /// compared with the block count before any arithmetic, so an id past
    /// the address space is out of bounds, never an alias of a real block.
    #[inline]
    fn check(&self, id: BlockId, len_bytes: usize) -> Result<usize> {
        let blocks = len_bytes / BLOCK_SIZE;
        match usize::try_from(id) {
            Ok(index) if index < blocks => Ok(index * BLOCK_SIZE),
            _ => Err(StorageError::OutOfBounds {
                block: id,
                len: blocks as u64,
            }),
        }
    }
}

impl BlockDevice for MemDevice {
    fn read_block(&self, id: BlockId, buf: &mut [u8; BLOCK_SIZE]) -> Result<()> {
        let blocks = self.blocks.read();
        let off = self.check(id, blocks.len())?;
        buf.copy_from_slice(&blocks[off..off + BLOCK_SIZE]);
        Ok(())
    }

    fn with_block(&self, id: BlockId, f: &mut dyn FnMut(&[u8; BLOCK_SIZE])) -> Result<()> {
        let blocks = self.blocks.read();
        let off = self.check(id, blocks.len())?;
        f(blocks[off..off + BLOCK_SIZE]
            .try_into()
            .expect("a block-sized slice"));
        Ok(())
    }

    fn write_block(&self, id: BlockId, data: &[u8; BLOCK_SIZE]) -> Result<()> {
        let mut blocks = self.blocks.write();
        let off = self.check(id, blocks.len())?;
        blocks[off..off + BLOCK_SIZE].copy_from_slice(data);
        Ok(())
    }

    fn allocate(&self, n: u64) -> Result<BlockId> {
        let mut blocks = self.blocks.write();
        let first = (blocks.len() / BLOCK_SIZE) as u64;
        let new_len = blocks.len() + n as usize * BLOCK_SIZE;
        blocks.resize(new_len, 0);
        Ok(first)
    }

    fn num_blocks(&self) -> u64 {
        (self.blocks.read().len() / BLOCK_SIZE) as u64
    }
}

/// Durable file-backed block device.
///
/// Block `i` lives at byte offset `i * 4096` of the file. Demonstrates that
/// every structure in the workspace genuinely operates disk-resident; the
/// persistence integration tests build an index on a `FileDevice`, reopen
/// the file, and query it.
pub struct FileDevice {
    file: File,
    len_blocks: AtomicU64,
}

impl FileDevice {
    /// Creates (truncating) a new device file at `path`.
    pub fn create<P: AsRef<Path>>(path: P) -> Result<Self> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        Ok(Self {
            file,
            len_blocks: AtomicU64::new(0),
        })
    }

    /// Opens an existing device file at `path`.
    ///
    /// Returns [`StorageError::Corrupt`] if the file length is not a
    /// multiple of the block size.
    pub fn open<P: AsRef<Path>>(path: P) -> Result<Self> {
        let file = OpenOptions::new().read(true).write(true).open(path)?;
        let len = file.metadata()?.len();
        if len % BLOCK_SIZE as u64 != 0 {
            return Err(StorageError::Corrupt(format!(
                "device file length {len} is not a multiple of {BLOCK_SIZE}"
            )));
        }
        Ok(Self {
            file,
            len_blocks: AtomicU64::new(len / BLOCK_SIZE as u64),
        })
    }

    #[inline]
    fn check(&self, id: BlockId) -> Result<u64> {
        let len = self.len_blocks.load(Ordering::Acquire);
        if id >= len {
            return Err(StorageError::OutOfBounds { block: id, len });
        }
        Ok(id * BLOCK_SIZE as u64)
    }
}

impl BlockDevice for FileDevice {
    fn read_block(&self, id: BlockId, buf: &mut [u8; BLOCK_SIZE]) -> Result<()> {
        use std::os::unix::fs::FileExt;
        let off = self.check(id)?;
        self.file
            .read_exact_at(buf, off)
            .map_err(|e| StorageError::io(IoOp::Read, Some(id), e))?;
        Ok(())
    }

    fn write_block(&self, id: BlockId, data: &[u8; BLOCK_SIZE]) -> Result<()> {
        use std::os::unix::fs::FileExt;
        let off = self.check(id)?;
        self.file
            .write_all_at(data, off)
            .map_err(|e| StorageError::io(IoOp::Write, Some(id), e))?;
        Ok(())
    }

    fn allocate(&self, n: u64) -> Result<BlockId> {
        // Serialize allocations through a compare-free critical section:
        // fetch_add reserves the range, set_len grows the file. Concurrent
        // allocations may call set_len out of order; set_len to a smaller
        // value than another thread already set would shrink, so grow to the
        // max we know about.
        let first = self.len_blocks.fetch_add(n, Ordering::AcqRel);
        let new_len = (first + n) * BLOCK_SIZE as u64;
        let alloc_err = |e| StorageError::io(IoOp::Allocate, None, e);
        let cur = self.file.metadata().map_err(alloc_err)?.len();
        if new_len > cur {
            self.file.set_len(new_len).map_err(alloc_err)?;
        }
        Ok(first)
    }

    fn num_blocks(&self) -> u64 {
        self.len_blocks.load(Ordering::Acquire)
    }

    fn sync(&self) -> Result<()> {
        self.file
            .sync_data()
            .map_err(|e| StorageError::io(IoOp::Sync, None, e))?;
        Ok(())
    }
}

/// Copies every block of `src` onto `dst`, extending `dst` as needed, and
/// returns the number of blocks copied. Blocks `dst` already holds are
/// overwritten in place — after the call the first `src.num_blocks()`
/// blocks of the two devices are byte-identical (the replication layer
/// byte-verifies this separately with [`diff_blocks`]).
pub fn copy_blocks<S, D>(src: &S, dst: &D) -> Result<u64>
where
    S: BlockDevice + ?Sized,
    D: BlockDevice + ?Sized,
{
    let n = src.num_blocks();
    if dst.num_blocks() < n {
        dst.allocate(n - dst.num_blocks())?;
    }
    let mut buf = crate::zeroed_block();
    for id in 0..n {
        src.read_block(id, &mut buf)?;
        dst.write_block(id, &buf)?;
    }
    dst.sync()?;
    Ok(n)
}

/// Compares two devices block-for-block and returns the ids of differing
/// blocks. A length mismatch counts every block past the shorter device's
/// end as differing — a truncated replica is corrupt, not merely short.
pub fn diff_blocks<A, B>(a: &A, b: &B) -> Result<Vec<BlockId>>
where
    A: BlockDevice + ?Sized,
    B: BlockDevice + ?Sized,
{
    let (na, nb) = (a.num_blocks(), b.num_blocks());
    let shared = na.min(nb);
    let mut diffs = Vec::new();
    let mut ba = crate::zeroed_block();
    let mut bb = crate::zeroed_block();
    for id in 0..shared {
        a.read_block(id, &mut ba)?;
        b.read_block(id, &mut bb)?;
        if ba != bb {
            diffs.push(id);
        }
    }
    diffs.extend(shared..na.max(nb));
    Ok(diffs)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(dev: &impl BlockDevice) {
        let first = dev.allocate(3).unwrap();
        let mut block = crate::zeroed_block();
        block[0] = 0xAB;
        block[BLOCK_SIZE - 1] = 0xCD;
        dev.write_block(first + 2, &block).unwrap();

        let mut out = crate::zeroed_block();
        dev.read_block(first + 2, &mut out).unwrap();
        assert_eq!(out[0], 0xAB);
        assert_eq!(out[BLOCK_SIZE - 1], 0xCD);

        // Unwritten blocks read back zeroed.
        dev.read_block(first, &mut out).unwrap();
        assert!(out.iter().all(|&b| b == 0));
    }

    #[test]
    fn mem_device_roundtrip() {
        roundtrip(&MemDevice::new());
    }

    #[test]
    fn mem_device_out_of_bounds() {
        let dev = MemDevice::new();
        let mut buf = crate::zeroed_block();
        assert!(matches!(
            dev.read_block(0, &mut buf),
            Err(StorageError::OutOfBounds { .. })
        ));
        dev.allocate(1).unwrap();
        assert!(dev.read_block(0, &mut buf).is_ok());
        assert!(matches!(
            dev.write_block(1, &buf),
            Err(StorageError::OutOfBounds { .. })
        ));
    }

    #[test]
    fn allocation_is_consecutive() {
        let dev = MemDevice::new();
        assert_eq!(dev.allocate(2).unwrap(), 0);
        assert_eq!(dev.allocate(5).unwrap(), 2);
        assert_eq!(dev.allocate(1).unwrap(), 7);
        assert_eq!(dev.num_blocks(), 8);
        assert_eq!(dev.size_bytes(), 8 * BLOCK_SIZE as u64);
    }

    #[test]
    fn file_device_roundtrip_and_reopen() {
        let dir = std::env::temp_dir().join(format!("ir2-storage-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("dev.blocks");

        {
            let dev = FileDevice::create(&path).unwrap();
            roundtrip(&dev);
            dev.sync().unwrap();
        }
        {
            let dev = FileDevice::open(&path).unwrap();
            assert_eq!(dev.num_blocks(), 3);
            let mut out = crate::zeroed_block();
            dev.read_block(2, &mut out).unwrap();
            assert_eq!(out[0], 0xAB);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn file_device_rejects_misaligned_file() {
        let dir = std::env::temp_dir().join(format!("ir2-storage-mis-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.blocks");
        std::fs::write(&path, [0u8; 100]).unwrap();
        assert!(matches!(
            FileDevice::open(&path),
            Err(StorageError::Corrupt(_))
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn arc_is_a_device() {
        let dev = std::sync::Arc::new(MemDevice::new());
        dev.allocate(1).unwrap();
        let mut buf = crate::zeroed_block();
        assert!(dev.read_block(0, &mut buf).is_ok());
    }

    /// A device that implements only what the trait requires, so
    /// `with_block` is the trait's default.
    struct Plain(MemDevice);

    impl BlockDevice for Plain {
        fn read_block(&self, id: BlockId, buf: &mut [u8; BLOCK_SIZE]) -> Result<()> {
            self.0.read_block(id, buf)
        }
        fn write_block(&self, id: BlockId, data: &[u8; BLOCK_SIZE]) -> Result<()> {
            self.0.write_block(id, data)
        }
        fn allocate(&self, n: u64) -> Result<BlockId> {
            self.0.allocate(n)
        }
        fn num_blocks(&self) -> u64 {
            self.0.num_blocks()
        }
    }

    #[test]
    fn with_block_lends_what_read_block_reads() {
        let devices: [Box<dyn BlockDevice>; 3] = [
            Box::new(Plain(MemDevice::new())),
            Box::new(MemDevice::new()),
            Box::new(std::sync::Arc::new(MemDevice::new())),
        ];
        for dev in &devices {
            let first = dev.allocate(2).unwrap();
            let mut block = crate::zeroed_block();
            block
                .iter_mut()
                .enumerate()
                .for_each(|(i, b)| *b = (i % 251) as u8);
            dev.write_block(first + 1, &block).unwrap();

            let mut calls = 0;
            dev.with_block(first + 1, &mut |lent| {
                calls += 1;
                assert_eq!(lent, &*block);
            })
            .unwrap();
            assert_eq!(calls, 1, "lent exactly once on success");

            let missing = dev.with_block(first + 2, &mut |_| calls += 1);
            assert!(matches!(missing, Err(StorageError::OutOfBounds { .. })));
            assert_eq!(calls, 1, "and never on an error");
        }
    }

    /// Ids whose byte offset passes `usize::MAX` must be refused by every
    /// block call, not wrapped onto a block the device holds.
    #[test]
    fn an_id_past_the_address_space_is_out_of_bounds() {
        let dir = std::env::temp_dir().join(format!("ir2-storage-far-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let devices: [Box<dyn BlockDevice>; 2] = [
            Box::new(MemDevice::new()),
            Box::new(FileDevice::create(dir.join("far.blocks")).unwrap()),
        ];
        for dev in &devices {
            dev.allocate(2).unwrap();
            dev.write_block(0, &[0x11; BLOCK_SIZE]).unwrap();
            dev.write_block(1, &[0x22; BLOCK_SIZE]).unwrap();
            for id in [1 << 52, (1 << 52) + 1, u64::MAX] {
                let out_of_bounds = |r: Result<()>| matches!(r, Err(StorageError::OutOfBounds { block, len: 2 }) if block == id);
                let mut buf = crate::zeroed_block();
                assert!(
                    out_of_bounds(dev.read_block(id, &mut buf)),
                    "read_block({id})"
                );
                let mut lent = 0;
                assert!(
                    out_of_bounds(dev.with_block(id, &mut |_| lent += 1)),
                    "with_block({id})"
                );
                assert_eq!(lent, 0, "with_block({id}) lent a block");
                assert!(
                    out_of_bounds(dev.write_block(id, &[0xEE; BLOCK_SIZE])),
                    "write_block({id})"
                );
            }
            for (id, byte) in [(0, 0x11), (1, 0x22)] {
                let mut out = crate::zeroed_block();
                dev.read_block(id, &mut out).unwrap();
                assert!(out.iter().all(|&b| b == byte), "block {id} was overwritten");
            }
        }
        drop(devices);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn copy_and_diff_roundtrip() {
        let src = MemDevice::new();
        src.allocate(3).unwrap();
        for i in 0..3 {
            src.write_block(i, &[i as u8 + 1; BLOCK_SIZE]).unwrap();
        }
        let dst = MemDevice::new();
        assert_eq!(copy_blocks(&src, &dst).unwrap(), 3);
        assert!(diff_blocks(&src, &dst).unwrap().is_empty());

        // A flipped byte and a length mismatch are both reported.
        let mut torn = crate::zeroed_block();
        dst.read_block(1, &mut torn).unwrap();
        torn[77] ^= 0xFF;
        dst.write_block(1, &torn).unwrap();
        dst.allocate(1).unwrap();
        assert_eq!(diff_blocks(&src, &dst).unwrap(), vec![1, 3]);

        // Re-copying repairs the flipped block (the extra block remains —
        // file-level repair handles truncation).
        copy_blocks(&src, &dst).unwrap();
        assert_eq!(diff_blocks(&src, &dst).unwrap(), vec![3]);
    }

    #[test]
    fn copy_into_prefilled_overwrites() {
        let src = MemDevice::new();
        src.allocate(2).unwrap();
        src.write_block(0, &[0x5A; BLOCK_SIZE]).unwrap();
        let dst = MemDevice::new();
        dst.allocate(2).unwrap();
        dst.write_block(0, &[0xA5; BLOCK_SIZE]).unwrap();
        copy_blocks(&src, &dst).unwrap();
        let mut out = crate::zeroed_block();
        dst.read_block(0, &mut out).unwrap();
        assert!(out.iter().all(|&b| b == 0x5A));
    }
}
