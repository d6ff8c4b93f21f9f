//! The uniform grid index.

use ir2_geo::{Point, Rect};
use ir2_model::{DistanceFirstQuery, ObjPtr, ObjectSource, SpatialObject, TopK};
use ir2_sigfile::{kernel_contains, Signature, SignatureScheme};
use ir2_storage::{BlockDevice, RecordFile, RecordPtr, Result, StorageError};

/// Grid shape parameters.
#[derive(Debug, Clone, Copy)]
pub struct GridConfig {
    /// Cells per axis (`G`); the grid has `G²` cells.
    pub cells_per_axis: usize,
    /// Signature scheme for cell summaries (use the IR²-Tree's scheme for
    /// apples-to-apples ablations).
    pub scheme: SignatureScheme,
}

impl GridConfig {
    /// Picks `G` so the average occupied cell holds roughly
    /// `target_per_cell` objects under a uniform distribution.
    pub fn for_objects(n: usize, target_per_cell: usize, scheme: SignatureScheme) -> Self {
        let cells = (n as f64 / target_per_cell.max(1) as f64).max(1.0);
        Self {
            cells_per_axis: (cells.sqrt().ceil() as usize).max(1),
            scheme,
        }
    }
}

/// Traversal counters of one grid query.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct GridQueryCounters {
    /// Cells whose records were read.
    pub cells_read: u64,
    /// Cells skipped by their signature.
    pub cells_pruned: u64,
    /// Candidate objects loaded and verified.
    pub candidates_checked: u64,
    /// Candidates that failed verification (signature false positives).
    pub false_positives: u64,
}

struct Cell {
    record: RecordPtr,
    len: u32,
    sig: Signature,
}

/// A disk-resident uniform grid with per-cell signatures.
///
/// Two-dimensional (the grid family of the related work is; the IR²-Tree
/// in this workspace is `N`-dimensional).
pub struct GridIndex<D> {
    records: RecordFile<D>,
    cfg: GridConfig,
    bbox: Rect<2>,
    /// Row-major `G × G`; `None` for empty cells.
    cells: Vec<Option<Cell>>,
    sig_bytes_total: u64,
}

/// Bytes per object entry inside a cell record: pointer + point.
const ENTRY_LEN: usize = 8 + 16;

impl<D: BlockDevice> GridIndex<D> {
    /// Builds the grid over `(pointer, location, distinct terms)` items.
    ///
    /// Returns an error for an empty collection (a grid needs a bounding
    /// box).
    pub fn build(
        dev: D,
        cfg: GridConfig,
        items: &[(ObjPtr, Point<2>, Vec<String>)],
    ) -> Result<Self> {
        if items.is_empty() {
            return Err(StorageError::Corrupt(
                "cannot grid an empty collection".into(),
            ));
        }
        let mut bbox = Rect::from_point(items[0].1);
        for (_, p, _) in items {
            bbox.union_in_place(&Rect::from_point(*p));
        }
        let g = cfg.cells_per_axis;
        let mut buckets: Vec<Vec<usize>> = vec![Vec::new(); g * g];
        for (i, (_, p, _)) in items.iter().enumerate() {
            buckets[cell_of(&bbox, g, p)].push(i);
        }

        let records = RecordFile::create(dev);
        let mut cells = Vec::with_capacity(g * g);
        let mut sig_bytes_total = 0u64;
        for bucket in &buckets {
            if bucket.is_empty() {
                cells.push(None);
                continue;
            }
            let mut sig = cfg.scheme.empty();
            let mut rec = Vec::with_capacity(bucket.len() * ENTRY_LEN);
            for &i in bucket {
                let (ptr, p, terms) = &items[i];
                rec.extend_from_slice(&ptr.to_le_bytes());
                let mut pb = [0u8; 16];
                p.encode(&mut pb);
                rec.extend_from_slice(&pb);
                sig.or_assign(&cfg.scheme.sign_terms(terms.iter().map(String::as_str)));
            }
            let record = records.append(&rec)?;
            sig_bytes_total += sig.byte_len() as u64;
            cells.push(Some(Cell {
                record,
                len: bucket.len() as u32,
                sig,
            }));
        }
        records.flush()?;
        Ok(Self {
            records,
            cfg,
            bbox,
            cells,
            sig_bytes_total,
        })
    }

    /// Total footprint: cell records plus the in-memory directory
    /// (signatures + cell table), for size comparisons.
    pub fn size_bytes(&self) -> u64 {
        self.records.device().size_bytes() + self.sig_bytes_total + (self.cells.len() * 16) as u64
    }

    /// The grid's device (for I/O statistics).
    pub fn device(&self) -> &D {
        self.records.device()
    }

    /// Answers a distance-first top-k spatial keyword query by ring
    /// expansion with signature pruning.
    pub fn topk<S: ObjectSource<2> + ?Sized>(
        &self,
        objects: &S,
        query: &DistanceFirstQuery<2>,
    ) -> Result<(Vec<(SpatialObject<2>, f64)>, GridQueryCounters)> {
        let mut counters = GridQueryCounters::default();
        if query.k == 0 {
            return Ok((Vec::new(), counters));
        }
        let qsig = self
            .cfg
            .scheme
            .sign_terms(query.keywords.iter().map(String::as_str));
        let g = self.cfg.cells_per_axis as isize;
        let (qcx, qcy) = cell_coords(&self.bbox, self.cfg.cells_per_axis, &query.point);

        // Candidates verified so far, keyed by the canonical `(distance,
        // id)` order every engine shares.
        let mut topk = TopK::new(query.k);

        let mut scratch = Vec::new();
        let mut ring = 0isize;
        loop {
            // Termination: once k results are held and even the nearest
            // point of the next ring is farther than the k-th best, no
            // closer result can exist.
            if topk.is_full()
                && ring > 0
                && self.ring_min_dist(qcx, qcy, ring, &query.point) > topk.threshold()
            {
                break;
            }
            let mut any_cell_in_range = false;
            for (cx, cy) in ring_cells(qcx, qcy, ring) {
                if cx < 0 || cy < 0 || cx >= g || cy >= g {
                    continue;
                }
                any_cell_in_range = true;
                let idx = (cy * g + cx) as usize;
                let Some(cell) = &self.cells[idx] else {
                    continue;
                };
                if !kernel_contains(&cell.sig, &qsig) {
                    counters.cells_pruned += 1;
                    continue;
                }
                counters.cells_read += 1;
                let bytes = self.records.get(cell.record)?;
                if bytes.len() != cell.len as usize * ENTRY_LEN {
                    return Err(StorageError::Corrupt("grid cell record length".into()));
                }
                for entry in bytes.chunks_exact(ENTRY_LEN) {
                    let ptr = u64::from_le_bytes(entry[..8].try_into().expect("8 bytes"));
                    let p = Point::<2>::decode(&entry[8..24]);
                    let d = p.distance(&query.point);
                    // Candidate only if it could enter the top-k.
                    if d > topk.threshold() {
                        continue;
                    }
                    counters.candidates_checked += 1;
                    let Some(obj) =
                        objects.load_if_contains_all(ObjPtr(ptr), &query.keywords, &mut scratch)?
                    else {
                        counters.false_positives += 1;
                        continue;
                    };
                    topk.insert(obj, d);
                }
            }
            if !any_cell_in_range && ring > g {
                break; // the ring left the grid entirely
            }
            ring += 1;
        }

        Ok((topk.into_sorted(), counters))
    }

    /// Conservative lower bound on the distance from the query point to
    /// anything in a cell at Chebyshev ring `ring` or beyond: the query
    /// point lies somewhere in its own cell, so at least `ring − 1`
    /// complete cells separate it from ring-`ring` cells along some axis.
    /// A lower bound may be loose (costing extra ring scans) but must
    /// never overestimate, or results would be missed.
    fn ring_min_dist(&self, _qcx: isize, _qcy: isize, ring: isize, _q: &Point<2>) -> f64 {
        let g = self.cfg.cells_per_axis as f64;
        let w = (self.bbox.hi().coord(0) - self.bbox.lo().coord(0)).max(f64::MIN_POSITIVE) / g;
        let h = (self.bbox.hi().coord(1) - self.bbox.lo().coord(1)).max(f64::MIN_POSITIVE) / g;
        ((ring - 1).max(0)) as f64 * w.min(h)
    }
}

/// Cell coordinates of a point (clamped into the grid).
fn cell_coords(bbox: &Rect<2>, g: usize, p: &Point<2>) -> (isize, isize) {
    let fx = (p.coord(0) - bbox.lo().coord(0))
        / (bbox.hi().coord(0) - bbox.lo().coord(0)).max(f64::MIN_POSITIVE);
    let fy = (p.coord(1) - bbox.lo().coord(1))
        / (bbox.hi().coord(1) - bbox.lo().coord(1)).max(f64::MIN_POSITIVE);
    let cx = ((fx * g as f64) as isize).clamp(0, g as isize - 1);
    let cy = ((fy * g as f64) as isize).clamp(0, g as isize - 1);
    (cx, cy)
}

fn cell_of(bbox: &Rect<2>, g: usize, p: &Point<2>) -> usize {
    let (cx, cy) = cell_coords(bbox, g, p);
    (cy * g as isize + cx) as usize
}

/// The cells of the square ring at Chebyshev radius `ring` around
/// `(cx, cy)` (radius 0 = the cell itself).
fn ring_cells(cx: isize, cy: isize, ring: isize) -> Vec<(isize, isize)> {
    if ring == 0 {
        return vec![(cx, cy)];
    }
    let mut out = Vec::with_capacity((8 * ring) as usize);
    for dx in -ring..=ring {
        out.push((cx + dx, cy - ring));
        out.push((cx + dx, cy + ring));
    }
    for dy in (-ring + 1)..ring {
        out.push((cx - ring, cy + dy));
        out.push((cx + ring, cy + dy));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ir2_model::ObjectStore;
    use ir2_storage::MemDevice;
    use ir2_text::tokenize;
    use std::sync::Arc;

    fn build_fixture(
        n: u64,
    ) -> (
        Arc<ObjectStore<2, MemDevice>>,
        GridIndex<MemDevice>,
        Vec<SpatialObject<2>>,
    ) {
        let themes = ["cafe wifi", "diner grill", "cafe books", "bar snooker"];
        let store = Arc::new(ObjectStore::<2, _>::create(MemDevice::new()));
        let mut objs = Vec::new();
        let mut items = Vec::new();
        for i in 0..n {
            let obj = SpatialObject::new(
                i,
                [((i * 37) % 100) as f64, ((i * 61) % 100) as f64],
                themes[i as usize % themes.len()],
            );
            let ptr = store.append(&obj).unwrap();
            let mut terms: Vec<String> = tokenize(&obj.text).collect();
            terms.sort_unstable();
            terms.dedup();
            items.push((ptr, obj.point, terms));
            objs.push(obj);
        }
        store.flush().unwrap();
        let cfg = GridConfig::for_objects(n as usize, 8, SignatureScheme::from_bytes_len(8, 3, 3));
        let grid = GridIndex::build(MemDevice::new(), cfg, &items).unwrap();
        (store, grid, objs)
    }

    fn brute(objs: &[SpatialObject<2>], q: &DistanceFirstQuery<2>) -> Vec<(u64, f64)> {
        let mut v: Vec<(u64, f64)> = objs
            .iter()
            .filter(|o| o.token_set().contains_all(&q.keywords))
            .map(|o| (o.id, o.point.distance(&q.point)))
            .collect();
        v.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        v.truncate(q.k);
        v
    }

    #[test]
    fn grid_topk_matches_brute_force() {
        let (store, grid, objs) = build_fixture(300);
        for (point, kw, k) in [
            ([50.0, 50.0], vec!["cafe"], 10),
            ([0.0, 0.0], vec!["cafe", "wifi"], 5),
            ([99.0, 1.0], vec!["snooker"], 7),
            ([30.0, 70.0], vec!["grill"], 1),
        ] {
            let q = DistanceFirstQuery::new(point, &kw, k);
            let (got, _) = grid.topk(store.as_ref(), &q).unwrap();
            let want = brute(&objs, &q);
            assert_eq!(got.len(), want.len(), "{kw:?}");
            for ((o, d), (_, wd)) in got.iter().zip(want.iter()) {
                assert!((d - wd).abs() < 1e-9, "{kw:?}: {d} vs {wd}");
                assert!(o.token_set().contains_all(&kw));
            }
        }
    }

    #[test]
    fn absent_keyword_and_k_zero() {
        let (store, grid, _) = build_fixture(100);
        let q = DistanceFirstQuery::new([10.0, 10.0], &["nonexistent"], 5);
        let (got, counters) = grid.topk(store.as_ref(), &q).unwrap();
        assert!(got.is_empty());
        assert!(
            counters.cells_pruned > 0,
            "signatures must prune empty-match cells"
        );
        let q0 = DistanceFirstQuery::new([10.0, 10.0], &["cafe"], 0);
        assert!(grid.topk(store.as_ref(), &q0).unwrap().0.is_empty());
    }

    #[test]
    fn k_exceeding_matches_returns_all_matches() {
        let (store, grid, objs) = build_fixture(120);
        let q = DistanceFirstQuery::new([50.0, 50.0], &["books"], 1000);
        let (got, _) = grid.topk(store.as_ref(), &q).unwrap();
        let want = objs
            .iter()
            .filter(|o| o.token_set().contains("books"))
            .count();
        assert_eq!(got.len(), want);
    }

    #[test]
    fn signature_pruning_counts_cells() {
        let (store, grid, _) = build_fixture(400);
        let q = DistanceFirstQuery::new([50.0, 50.0], &["snooker"], 5);
        let (_, counters) = grid.topk(store.as_ref(), &q).unwrap();
        assert!(counters.cells_read > 0);
        assert!(counters.candidates_checked >= 5);
    }

    #[test]
    fn empty_build_rejected_and_single_object() {
        assert!(GridIndex::build(
            MemDevice::new(),
            GridConfig::for_objects(0, 8, SignatureScheme::from_bytes_len(4, 2, 1)),
            &[],
        )
        .is_err());

        let store = Arc::new(ObjectStore::<2, _>::create(MemDevice::new()));
        let obj = SpatialObject::new(1, [5.0, 5.0], "solo cafe");
        let ptr = store.append(&obj).unwrap();
        store.flush().unwrap();
        let grid = GridIndex::build(
            MemDevice::new(),
            GridConfig::for_objects(1, 8, SignatureScheme::from_bytes_len(4, 2, 1)),
            &[(ptr, obj.point, vec!["solo".into(), "cafe".into()])],
        )
        .unwrap();
        let q = DistanceFirstQuery::new([0.0, 0.0], &["cafe"], 3);
        let (got, _) = grid.topk(store.as_ref(), &q).unwrap();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].0.id, 1);
    }
}
