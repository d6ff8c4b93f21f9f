//! The sequential signature file structure and its query.

use ir2_model::{DistanceFirstQuery, ObjPtr, ObjectSource, SpatialObject, TopK};
use ir2_sigfile::{payload_contains, Signature, SignatureScheme};
use ir2_storage::{BlockDevice, Result, StorageError};

/// Traversal counters of one SSF query.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SsfCounters {
    /// Signature entries scanned (always = number of indexed objects).
    pub signatures_scanned: u64,
    /// Candidates whose signature matched (loaded and verified).
    pub candidates_checked: u64,
    /// Candidates that failed verification (false positives).
    pub false_positives: u64,
}

/// A disk-resident sequential signature file.
///
/// Layout: a header block, then fixed-size entries packed into blocks —
/// each entry is an object pointer (8 bytes) plus the object's signature
/// (`scheme.byte_len()` bytes). Entries never straddle blocks, so the scan
/// is pure block-sequential I/O.
pub struct SignatureFile<D> {
    dev: D,
    scheme: SignatureScheme,
    count: u64,
    entries_per_block: usize,
}

const HEADER_BLOCKS: u64 = 1;
const MAGIC: &[u8; 4] = b"ISSF";

impl<D: BlockDevice> SignatureFile<D> {
    /// Builds the file over `(pointer, distinct terms)` pairs.
    pub fn build<'a>(
        dev: D,
        scheme: SignatureScheme,
        items: impl IntoIterator<Item = (ObjPtr, &'a [String])>,
    ) -> Result<Self> {
        let entry_len = 8 + scheme.byte_len();
        let entries_per_block = ir2_storage::BLOCK_SIZE / entry_len;
        if entries_per_block == 0 {
            return Err(StorageError::Corrupt(format!(
                "signature of {} bytes cannot fit a block entry",
                scheme.byte_len()
            )));
        }
        dev.allocate(HEADER_BLOCKS)?;

        // Entry blocks are allocated in order right after the header, so
        // block b of the file is device block HEADER_BLOCKS + b and the
        // scan streams sequentially.
        let mut block = ir2_storage::zeroed_block();
        let mut in_block = 0usize;
        let mut count = 0u64;
        for (ptr, terms) in items {
            let off = in_block * entry_len;
            block[off..off + 8].copy_from_slice(&ptr.to_le_bytes());
            // The block is zeroed between flushes, so signing in place
            // writes exactly the entry's signature.
            scheme.sign_into(&mut block[off + 8..off + entry_len], terms);
            in_block += 1;
            count += 1;
            if in_block == entries_per_block {
                let id = dev.allocate(1)?;
                dev.write_block(id, &block)?;
                block.fill(0);
                in_block = 0;
            }
        }
        if in_block > 0 {
            let id = dev.allocate(1)?;
            dev.write_block(id, &block)?;
        }

        // Header: magic | count | scheme bits | k | seed.
        let mut header = ir2_storage::zeroed_block();
        header[..4].copy_from_slice(MAGIC);
        header[4..12].copy_from_slice(&count.to_le_bytes());
        header[12..20].copy_from_slice(&(scheme.bits() as u64).to_le_bytes());
        header[20..24].copy_from_slice(&scheme.k().to_le_bytes());
        header[24..32].copy_from_slice(&scheme.seed().to_le_bytes());
        dev.write_block(0, &header)?;

        Ok(Self {
            dev,
            scheme,
            count,
            entries_per_block,
        })
    }

    /// Reopens a persisted signature file.
    pub fn open(dev: D) -> Result<Self> {
        let mut header = ir2_storage::zeroed_block();
        dev.read_block(0, &mut header)?;
        if &header[..4] != MAGIC {
            return Err(StorageError::Corrupt("bad signature-file magic".into()));
        }
        let count = u64::from_le_bytes(header[4..12].try_into().expect("8 bytes"));
        let bits = u64::from_le_bytes(header[12..20].try_into().expect("8 bytes")) as usize;
        let k = u32::from_le_bytes(header[20..24].try_into().expect("4 bytes"));
        let seed = u64::from_le_bytes(header[24..32].try_into().expect("8 bytes"));
        let scheme = SignatureScheme::new(bits, k, seed);
        let entries_per_block = ir2_storage::BLOCK_SIZE / (8 + scheme.byte_len());
        Ok(Self {
            dev,
            scheme,
            count,
            entries_per_block,
        })
    }

    /// Number of indexed objects.
    pub fn len(&self) -> u64 {
        self.count
    }

    /// True if no objects are indexed.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Total footprint in bytes.
    pub fn size_bytes(&self) -> u64 {
        self.dev.size_bytes()
    }

    /// The underlying device (for I/O statistics).
    pub fn device(&self) -> &D {
        &self.dev
    }

    /// Scans every signature, invoking `f(ptr)` for each entry whose
    /// signature contains `query` — the classic SSF probe. Pure sequential
    /// I/O over `ceil(n / entries_per_block)` blocks.
    pub fn scan_matches(&self, query: &Signature, mut f: impl FnMut(ObjPtr)) -> Result<u64> {
        let entry_len = 8 + self.scheme.byte_len();
        let nblocks = (self.count as usize).div_ceil(self.entries_per_block) as u32;
        if nblocks == 0 {
            return Ok(0);
        }
        let mut scanned = 0u64;
        let mut block = ir2_storage::zeroed_block();
        for b in 0..nblocks as u64 {
            self.dev.read_block(HEADER_BLOCKS + b, &mut block)?;
            for e in 0..self.entries_per_block {
                if scanned == self.count {
                    break;
                }
                scanned += 1;
                let off = e * entry_len;
                // Zero-copy containment straight against the page-resident
                // bytes — no per-signature heap decode.
                if payload_contains(&block[off + 8..off + entry_len], query) {
                    let ptr = u64::from_le_bytes(block[off..off + 8].try_into().expect("8 bytes"));
                    f(ObjPtr(ptr));
                }
            }
        }
        Ok(scanned)
    }

    /// Answers a distance-first top-k spatial keyword query: scan all
    /// signatures, verify matching candidates, keep the k nearest.
    pub fn topk<S: ObjectSource<2> + ?Sized>(
        &self,
        objects: &S,
        query: &DistanceFirstQuery<2>,
    ) -> Result<(Vec<(SpatialObject<2>, f64)>, SsfCounters)>
    where
        D: BlockDevice,
    {
        let mut counters = SsfCounters::default();
        if query.k == 0 {
            return Ok((Vec::new(), counters));
        }
        let qsig = self
            .scheme
            .sign_terms(query.keywords.iter().map(String::as_str));
        let mut candidates = Vec::new();
        counters.signatures_scanned = self.scan_matches(&qsig, |ptr| candidates.push(ptr))?;

        let mut topk = TopK::new(query.k);
        let mut scratch = Vec::new();
        for ptr in candidates {
            counters.candidates_checked += 1;
            let Some(obj) = objects.load_if_contains_all(ptr, &query.keywords, &mut scratch)?
            else {
                counters.false_positives += 1;
                continue;
            };
            let d = obj.point.distance(&query.point);
            topk.insert(obj, d);
        }
        Ok((topk.into_sorted(), counters))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ir2_model::ObjectStore;
    use ir2_storage::{MemDevice, TrackedDevice};
    use ir2_text::tokenize;
    use std::sync::Arc;

    fn fixture(
        n: u64,
    ) -> (
        Arc<ObjectStore<2, MemDevice>>,
        SignatureFile<TrackedDevice<MemDevice>>,
        Vec<SpatialObject<2>>,
    ) {
        let themes = ["cafe wifi", "grill diner", "cafe books", "bar pool"];
        let store = Arc::new(ObjectStore::<2, _>::create(MemDevice::new()));
        let mut objs = Vec::new();
        let mut items: Vec<(ObjPtr, Vec<String>)> = Vec::new();
        for i in 0..n {
            let obj = SpatialObject::new(
                i,
                [(i % 13) as f64, (i / 13) as f64],
                themes[i as usize % themes.len()],
            );
            let ptr = store.append(&obj).unwrap();
            let mut terms: Vec<String> = tokenize(&obj.text).collect();
            terms.sort_unstable();
            terms.dedup();
            items.push((ptr, terms));
            objs.push(obj);
        }
        store.flush().unwrap();
        let ssf = SignatureFile::build(
            TrackedDevice::new(MemDevice::new()),
            SignatureScheme::from_bytes_len(8, 3, 2),
            items.iter().map(|(p, t)| (*p, t.as_slice())),
        )
        .unwrap();
        (store, ssf, objs)
    }

    #[test]
    fn topk_matches_brute_force() {
        let (store, ssf, objs) = fixture(500);
        for (kw, k) in [
            (vec!["cafe"], 7),
            (vec!["cafe", "wifi"], 3),
            (vec!["pool"], 100),
        ] {
            let q = DistanceFirstQuery::new([5.0, 5.0], &kw, k);
            let (got, counters) = ssf.topk(store.as_ref(), &q).unwrap();
            let mut want: Vec<(u64, f64)> = objs
                .iter()
                .filter(|o| o.token_set().contains_all(&q.keywords))
                .map(|o| (o.id, o.point.distance(&q.point)))
                .collect();
            want.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
            want.truncate(k);
            assert_eq!(got.len(), want.len(), "{kw:?}");
            for ((_, d), (_, wd)) in got.iter().zip(want.iter()) {
                assert!((d - wd).abs() < 1e-9);
            }
            assert_eq!(
                counters.signatures_scanned, 500,
                "SSF always scans everything"
            );
        }
    }

    #[test]
    fn scan_is_sequential_io() {
        let (_, ssf, _) = fixture(3000);
        let stats = ssf.device().stats();
        stats.reset();
        let q = ssf.scheme.sign_term("cafe");
        ssf.scan_matches(&q, |_| {}).unwrap();
        let s = stats.snapshot();
        assert_eq!(s.random_reads, 1, "one seek to the start of the file");
        assert!(s.seq_reads > 5, "the rest streams sequentially");
    }

    #[test]
    fn reopen_preserves_everything() {
        let themes = ["solo cafe"];
        let dev = Arc::new(MemDevice::new());
        let store = Arc::new(ObjectStore::<2, _>::create(MemDevice::new()));
        let obj = SpatialObject::new(1, [1.0, 1.0], themes[0]);
        let ptr = store.append(&obj).unwrap();
        store.flush().unwrap();
        let terms: Vec<String> = tokenize(themes[0]).collect();
        {
            SignatureFile::build(
                Arc::clone(&dev),
                SignatureScheme::from_bytes_len(4, 2, 7),
                [(ptr, terms.as_slice())],
            )
            .unwrap();
        }
        let ssf = SignatureFile::open(Arc::clone(&dev)).unwrap();
        assert_eq!(ssf.len(), 1);
        let q = DistanceFirstQuery::new([0.0, 0.0], &["cafe"], 5);
        let (got, _) = ssf.topk(store.as_ref(), &q).unwrap();
        assert_eq!(got.len(), 1);
    }

    #[test]
    fn empty_and_oversized_signature() {
        let ssf = SignatureFile::build(
            MemDevice::new(),
            SignatureScheme::from_bytes_len(4, 2, 7),
            std::iter::empty::<(ObjPtr, &[String])>(),
        )
        .unwrap();
        assert!(ssf.is_empty());
        let q = ssf.scheme.sign_term("anything");
        assert_eq!(ssf.scan_matches(&q, |_| {}).unwrap(), 0);

        // A signature longer than a block cannot be block-packed.
        assert!(SignatureFile::build(
            MemDevice::new(),
            SignatureScheme::from_bytes_len(5000, 2, 7),
            std::iter::empty::<(ObjPtr, &[String])>(),
        )
        .is_err());
    }

    #[test]
    fn no_false_negatives_ever() {
        let (store, ssf, objs) = fixture(200);
        let q = DistanceFirstQuery::new([0.0, 0.0], &["books"], 1000);
        let (got, _) = ssf.topk(store.as_ref(), &q).unwrap();
        let want = objs
            .iter()
            .filter(|o| o.token_set().contains("books"))
            .count();
        assert_eq!(got.len(), want);
    }
}
