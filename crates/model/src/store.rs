//! The disk-resident object file.

use std::sync::atomic::{AtomicU64, Ordering};

use ir2_storage::{BlockDevice, RecordFile, Result, StorageError};

use crate::{ObjPtr, SpatialObject};

/// Annotates a decode failure with the record pointer it happened at —
/// `SpatialObject::decode` sees only bytes, so without this a corrupt
/// record reports *what* is wrong but not *where* (the same pattern the
/// R-Tree uses to prefix node errors with the node id).
fn at_ptr<T>(ptr: ObjPtr, decoded: Result<T>) -> Result<T> {
    decoded.map_err(|e| match e {
        StorageError::Corrupt(msg) => {
            StorageError::Corrupt(format!("object at offset {}: {msg}", ptr.0))
        }
        other => other,
    })
}

/// Anything that can load a [`SpatialObject`] by pointer.
///
/// The query algorithms (`LoadObject(ObjPtr)` in the paper's pseudo-code)
/// and the MIR²-Tree's signature recomputation depend on this trait rather
/// than the concrete store. Implementations count loads so experiments can
/// report the paper's *object accesses* metric.
pub trait ObjectSource<const N: usize>: Send + Sync {
    /// Loads the object at `ptr` (the paper's `LoadObject`).
    fn load(&self, ptr: ObjPtr) -> Result<SpatialObject<N>>;

    /// `IR2TopK` lines 20–21 as one call: loads the candidate at `ptr` and
    /// keeps it only if its text contains all `keywords` (lower-cased, as a
    /// query's are). `Ok(None)` is a signature false positive.
    ///
    /// The verdict, the errors and the load count are exactly those of
    /// [`load`](Self::load) followed by
    /// [`contains_all`](SpatialObject::contains_all) — which is the default.
    /// A source that holds records as bytes checks them where they lie and
    /// builds no object on a miss; `scratch` is the buffer a record that
    /// spans blocks is assembled in, owned by the search so that one
    /// query's candidates share it.
    fn load_if_contains_all(
        &self,
        ptr: ObjPtr,
        keywords: &[String],
        scratch: &mut Vec<u8>,
    ) -> Result<Option<SpatialObject<N>>> {
        let _ = scratch;
        let obj = self.load(ptr)?;
        Ok(obj.contains_all(keywords).then_some(obj))
    }

    /// Number of loads performed so far.
    fn loads(&self) -> u64;
}

/// The object file: spatial objects serialized into a [`RecordFile`] on
/// their own block device.
///
/// Leaf entries of every index store [`ObjPtr`]s into this file; an index
/// never duplicates object data (the R-Tree baseline's whole disadvantage
/// is having to come here for every candidate).
pub struct ObjectStore<const N: usize, D> {
    file: RecordFile<D>,
    loads: AtomicU64,
}

impl<const N: usize, D: BlockDevice> ObjectStore<N, D> {
    /// Creates an empty store on `dev`.
    pub fn create(dev: D) -> Self {
        Self {
            file: RecordFile::create(dev),
            loads: AtomicU64::new(0),
        }
    }

    /// Reopens a store persisted earlier; `len`/`records` come from
    /// [`state`](ObjectStore::state) via the caller's superblock.
    pub fn open(dev: D, len: u64, records: u64) -> Result<Self> {
        Ok(Self {
            file: RecordFile::open(dev, len, records)?,
            loads: AtomicU64::new(0),
        })
    }

    /// `(logical_len_bytes, record_count)` for the caller's superblock.
    pub fn state(&self) -> (u64, u64) {
        self.file.state()
    }

    /// Appends an object, returning its pointer.
    pub fn append(&self, obj: &SpatialObject<N>) -> Result<ObjPtr> {
        self.file.append(&obj.encode())
    }

    /// Flushes buffered appends to the device.
    pub fn flush(&self) -> Result<()> {
        self.file.flush()
    }

    /// Number of stored objects.
    pub fn len(&self) -> u64 {
        self.file.num_records()
    }

    /// True if no objects are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total file size in bytes (Table 1's dataset size).
    pub fn size_bytes(&self) -> u64 {
        self.file.len_bytes()
    }

    /// The underlying device (for I/O statistics and sizing).
    pub fn device(&self) -> &D {
        self.file.device()
    }

    /// Sequentially scans all objects in file order — used to build every
    /// index structure.
    pub fn scan(&self, mut f: impl FnMut(ObjPtr, SpatialObject<N>) -> Result<()>) -> Result<()> {
        self.file
            .scan(|ptr, bytes| f(ptr, at_ptr(ptr, SpatialObject::decode(bytes))?))
    }

    /// Resets the load counter (between experiment runs).
    pub fn reset_loads(&self) {
        self.loads.store(0, Ordering::Relaxed);
    }
}

impl<const N: usize, D: BlockDevice> ObjectSource<N> for ObjectStore<N, D> {
    fn load(&self, ptr: ObjPtr) -> Result<SpatialObject<N>> {
        self.loads.fetch_add(1, Ordering::Relaxed);
        let decoded = self
            .file
            .read_with(ptr, &mut Vec::new(), SpatialObject::decode)?;
        at_ptr(ptr, decoded)
    }

    fn load_if_contains_all(
        &self,
        ptr: ObjPtr,
        keywords: &[String],
        scratch: &mut Vec<u8>,
    ) -> Result<Option<SpatialObject<N>>> {
        self.loads.fetch_add(1, Ordering::Relaxed);
        let decoded = self.file.read_with(ptr, scratch, |record| {
            SpatialObject::decode_if_contains_all(record, keywords)
        })?;
        at_ptr(ptr, decoded)
    }

    fn loads(&self) -> u64 {
        self.loads.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ir2_storage::{BlockDevice, IoSnapshot, MemDevice, TrackedDevice};

    fn sample(i: u64) -> SpatialObject<2> {
        SpatialObject::new(
            i,
            [i as f64, -(i as f64)],
            format!("object number {i} pool"),
        )
    }

    #[test]
    fn append_load_roundtrip() {
        let store = ObjectStore::<2, _>::create(MemDevice::new());
        let ptrs: Vec<ObjPtr> = (0..10).map(|i| store.append(&sample(i)).unwrap()).collect();
        for (i, &p) in ptrs.iter().enumerate() {
            assert_eq!(store.load(p).unwrap(), sample(i as u64));
        }
        assert_eq!(store.len(), 10);
        assert_eq!(store.loads(), 10);
    }

    #[test]
    fn scan_preserves_insertion_order() {
        let store = ObjectStore::<2, _>::create(MemDevice::new());
        for i in 0..25 {
            store.append(&sample(i)).unwrap();
        }
        let mut ids = Vec::new();
        store
            .scan(|_, obj| {
                ids.push(obj.id);
                Ok(())
            })
            .unwrap();
        assert_eq!(ids, (0..25).collect::<Vec<_>>());
    }

    #[test]
    fn loads_cost_tracked_block_accesses() {
        let tracked = TrackedDevice::new(MemDevice::new());
        let stats = tracked.stats();
        let store = ObjectStore::<2, _>::create(tracked);
        // A large object spanning several blocks.
        let big = SpatialObject::<2>::new(1, [0.0, 0.0], "x".repeat(10_000));
        let p = store.append(&big).unwrap();
        store.flush().unwrap();
        stats.reset();

        store.load(p).unwrap();
        let s: IoSnapshot = stats.snapshot();
        assert_eq!(s.random_reads, 1);
        assert!(s.seq_reads >= 2, "10 KB object spans ≥3 blocks");
    }

    #[test]
    fn decode_errors_name_the_record_offset() {
        let dev = std::sync::Arc::new(MemDevice::new());
        // Write a record too short to be an object through the raw record
        // file, then read it back as an object.
        let file = RecordFile::create(std::sync::Arc::clone(&dev));
        let ptr = file.append(&[1, 2, 3]).unwrap();
        file.flush().unwrap();
        let (len, records) = file.state();
        let store = ObjectStore::<2, _>::open(dev, len, records).unwrap();
        let msg = store.load(ptr).unwrap_err().to_string();
        assert!(msg.contains(&format!("offset {}", ptr.0)), "{msg}");
        assert!(msg.contains("too short"), "{msg}");
    }

    /// Only the required methods: `load_if_contains_all` is the default.
    struct LoadOnly<'a>(&'a ObjectStore<2, std::sync::Arc<MemDevice>>);

    impl ObjectSource<2> for LoadOnly<'_> {
        fn load(&self, ptr: ObjPtr) -> Result<SpatialObject<2>> {
            self.0.load(ptr)
        }
        fn loads(&self) -> u64 {
            self.0.loads()
        }
    }

    #[test]
    fn the_verdict_call_is_load_then_contains_all() {
        let dev = std::sync::Arc::new(MemDevice::new());
        let store = ObjectStore::<2, _>::create(std::sync::Arc::clone(&dev));
        let words = [
            "pool",
            "Spa",
            "café",
            "WIFI",
            "bar24",
            "İstanbul",
            "golf-course",
        ];
        let ptrs: Vec<ObjPtr> = (0..120u64)
            .map(|i| {
                // Every third object is long enough to span blocks.
                let n = if i % 3 == 0 { 900 } else { 1 + i as usize % 6 };
                let text: Vec<&str> = (0..n).map(|j| words[(i as usize + j * j) % 7]).collect();
                let obj = SpatialObject::new(i, [i as f64, 1.0], text.join(", "));
                store.append(&obj).unwrap()
            })
            .collect();
        let sweep: Vec<Vec<String>> = [
            &[][..],
            &["pool"],
            &["spa", "wifi"],
            &["café"],
            &["cafe"],
            &["i̇stanbul", "pool"],
            &["golf", "course", "bar24"],
            &["golf-course"],
            &["Spa"],
            &["absent", "pool"],
        ]
        .iter()
        .map(|kws| kws.iter().map(|w| w.to_string()).collect())
        .collect();

        let mut scratch = Vec::new();
        let mut kept = 0;
        for &ptr in &ptrs {
            for keywords in &sweep {
                let before = store.loads();
                let obj = store.load(ptr).unwrap();
                assert_eq!(store.loads(), before + 1);
                let expected = obj.contains_all(keywords).then_some(obj);
                let verdict = store
                    .load_if_contains_all(ptr, keywords, &mut scratch)
                    .unwrap();
                assert_eq!(store.loads(), before + 2, "a verdict is one load");
                assert_eq!(verdict, expected, "{ptr:?} {keywords:?}");
                let default = LoadOnly(&store)
                    .load_if_contains_all(ptr, keywords, &mut scratch)
                    .unwrap();
                assert_eq!(default, expected, "{ptr:?} {keywords:?}");
                kept += usize::from(expected.is_some());
            }
        }
        assert!(kept > 100 && kept < ptrs.len() * sweep.len() - 100);
    }

    #[test]
    fn a_corrupt_record_is_refused_alike_match_or_not() {
        let dev = std::sync::Arc::new(MemDevice::new());
        let file = RecordFile::create(std::sync::Arc::clone(&dev));
        let good = SpatialObject::<2>::new(1, [0.0, 0.0], "pool spa");
        let flipped = file.append(&good.encode()).unwrap();
        // Text that stops being UTF-8 at its last byte, and one too short.
        let mut torn = good.encode();
        torn.push(0xFF);
        let torn = file.append(&torn).unwrap();
        let short = file.append(&[1, 2, 3]).unwrap();
        file.append(&vec![b'x'; 2 * ir2_storage::BLOCK_SIZE])
            .unwrap();
        file.flush().unwrap();
        // Flip one payload byte of the first record on the device.
        let mut block = ir2_storage::zeroed_block();
        dev.read_block(0, &mut block).unwrap();
        block[ir2_storage::RECORD_HEADER_LEN + 30] ^= 0x20;
        dev.write_block(0, &block).unwrap();
        let (len, records) = file.state();
        let store = ObjectStore::<2, _>::open(dev, len, records).unwrap();

        let cases = [
            (flipped, "failed its checksum"),
            (torn, "not utf-8"),
            (short, "too short"),
            // No header begins in the last 7 bytes of a block; a wild
            // pointer overflows nothing.
            (
                ObjPtr(ir2_storage::BLOCK_SIZE as u64 - 3),
                "straddles a block boundary",
            ),
            (ObjPtr(u64::MAX), "beyond end of file"),
        ];
        for (ptr, what) in cases {
            let loaded = store.load(ptr).unwrap_err().to_string();
            assert!(loaded.contains(what), "{loaded}");
            // "spa" would match the intact text, "golf" would not.
            for keyword in ["spa", "golf"] {
                let checked = store
                    .load_if_contains_all(ptr, &[keyword.to_string()], &mut Vec::new())
                    .unwrap_err()
                    .to_string();
                assert_eq!(checked, loaded);
            }
        }
        for ptr in [torn, short] {
            let msg = store.load(ptr).unwrap_err().to_string();
            assert!(msg.contains(&format!("offset {}", ptr.0)), "{msg}");
        }
    }

    #[test]
    fn reopen_preserves_objects() {
        let dev = std::sync::Arc::new(MemDevice::new());
        let (p, state) = {
            let store = ObjectStore::<2, _>::create(std::sync::Arc::clone(&dev));
            let p = store.append(&sample(3)).unwrap();
            store.flush().unwrap();
            (p, store.state())
        };
        let store = ObjectStore::<2, _>::open(dev, state.0, state.1).unwrap();
        assert_eq!(store.load(p).unwrap(), sample(3));
        assert_eq!(store.len(), 1);
    }
}
