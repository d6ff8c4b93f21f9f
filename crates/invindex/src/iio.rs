//! The IIO algorithm (paper Figure 7).

use ir2_model::{DistanceFirstQuery, ExecOutcome, ObjectSource, QueryLimits, SpatialObject, TopK};
use ir2_storage::{BlockDevice, Result, StorageError};
use ir2_text::Vocabulary;

use crate::index::intersect_sorted;
use crate::InvertedIndex;

/// Answers a distance-first top-k spatial keyword query with the Inverted
/// Index Only baseline — the paper's `IIOTopK(I, Q)`:
///
/// 1. retrieve the postings list `Lᵢ` of every keyword `wᵢ ∈ Q.t`;
/// 2. intersect the lists into the candidate set `V`;
/// 3. load every object in `V` and compute its distance to `Q.p`;
/// 4. sort by distance and return the first `Q.k`.
///
/// IIO is the one non-incremental algorithm in the paper: it computes the
/// *entire* result set, so "its performance is independent of k". A keyword
/// absent from the vocabulary empties the intersection, and the query
/// returns no results.
///
/// Results are `(object, distance)` in ascending distance, ties broken by
/// object id — the canonical `(distance, id)` order every engine in the
/// workspace shares.
pub fn iio_topk<const N: usize, D: BlockDevice>(
    index: &InvertedIndex<D>,
    vocab: &Vocabulary,
    objects: &impl ObjectSource<N>,
    query: &DistanceFirstQuery<N>,
) -> Result<Vec<(SpatialObject<N>, f64)>> {
    iio_topk_limited(index, vocab, objects, query, QueryLimits::none(), &mut 0)
        .map(ExecOutcome::into_results)
}

/// [`iio_topk`] under execution limits. IIO is non-incremental — nothing
/// is rank-ordered until the whole candidate set has been scanned — so it
/// degrades *all-or-nothing*: a tripped limit yields
/// [`ExecOutcome::Truncated`] with an **empty** result set (trivially a
/// prefix of the full answer; partial candidates would not be the true
/// top-m). Charged I/O is one unit per postings list retrieved plus one
/// per candidate object loaded; the frontier cap meters the bounded top-k,
/// which never holds more than `k`.
///
/// Every object load attempted is added to `loads` as it starts, a load
/// that fails included, so a caller that retries the query elsewhere
/// keeps counting what the failed attempt read.
pub fn iio_topk_limited<const N: usize, D: BlockDevice>(
    index: &InvertedIndex<D>,
    vocab: &Vocabulary,
    objects: &impl ObjectSource<N>,
    query: &DistanceFirstQuery<N>,
    limits: QueryLimits,
    loads: &mut u64,
) -> Result<ExecOutcome<Vec<(SpatialObject<N>, f64)>>> {
    if query.keywords.is_empty() {
        // IIO has no spatial access path: with no keywords the candidate set
        // is the whole database, which this baseline cannot enumerate.
        return Err(StorageError::Corrupt(
            "IIO requires at least one query keyword (use a tree algorithm for pure NN)".into(),
        ));
    }
    if query.k == 0 {
        return Ok(ExecOutcome::Complete(Vec::new()));
    }

    let mut io_used: u64 = 0;

    // Lines 1-3: retrieve and intersect the postings lists (one charged
    // I/O unit per list).
    let mut lists = Vec::with_capacity(query.keywords.len());
    for w in &query.keywords {
        if let Some(reason) = limits.check(io_used, 0) {
            return Ok(ExecOutcome::Truncated {
                reason,
                results_so_far: Vec::new(),
            });
        }
        match vocab.term_id(w) {
            Some(t) => {
                io_used += 1;
                lists.push(index.postings(t)?);
            }
            // A keyword occurring nowhere: the conjunction is empty.
            None => return Ok(ExecOutcome::Complete(Vec::new())),
        }
    }
    let candidates = intersect_sorted(lists);

    // Lines 4-9: load candidates, keep the k nearest in a bounded top-k
    // (objects are retained so line 10 needs no second disk pass), keyed
    // by the canonical `(distance, id)` order.
    let mut topk = TopK::new(query.k);
    for ptr in candidates {
        if let Some(reason) = limits.check(io_used, topk.len()) {
            return Ok(ExecOutcome::Truncated {
                reason,
                results_so_far: Vec::new(),
            });
        }
        io_used += 1;
        *loads += 1;
        let obj = objects.load(ptr)?;
        let d = obj.point.distance(&query.point);
        topk.insert(obj, d);
    }

    // Line 10: ascending by distance (ties by id for determinism).
    Ok(ExecOutcome::Complete(topk.into_sorted()))
}

/// A convenience wrapper returning only `(object id, distance)` pairs.
pub fn iio_topk_ids<const N: usize, D: BlockDevice>(
    index: &InvertedIndex<D>,
    vocab: &Vocabulary,
    objects: &impl ObjectSource<N>,
    query: &DistanceFirstQuery<N>,
) -> Result<Vec<(u64, f64)>> {
    Ok(iio_topk(index, vocab, objects, query)?
        .into_iter()
        .map(|(o, d)| (o.id, d))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ir2_model::{ObjPtr, ObjectStore};
    use ir2_storage::MemDevice;
    use ir2_text::{tokenize, TermId};

    /// Builds the paper's Figure 1 hotel dataset.
    fn figure1() -> (
        ObjectStore<2, MemDevice>,
        InvertedIndex<MemDevice>,
        Vocabulary,
    ) {
        let rows: [(f64, f64, &str); 8] = [
            (
                25.4,
                -80.1,
                "Hotel A tennis court, gift shop, spa, Internet",
            ),
            (47.3, -122.2, "Hotel B wireless Internet, pool, golf course"),
            (35.5, 139.4, "Hotel C spa, continental suites, pool"),
            (39.5, 116.2, "Hotel D sauna, pool, conference rooms"),
            (51.3, -0.5, "Hotel E dry cleaning, free lunch, pets"),
            (40.4, -73.5, "Hotel F safe box, concierge, internet, pets"),
            (
                -33.2,
                -70.4,
                "Hotel G Internet, airport transportation, pool",
            ),
            (-41.1, 174.4, "Hotel H wake up service, no pets, pool"),
        ];
        let store = ObjectStore::<2, _>::create(MemDevice::new());
        let mut vocab = Vocabulary::new();
        let mut docs: Vec<(ObjPtr, Vec<TermId>)> = Vec::new();
        for (i, (lat, lon, text)) in rows.iter().enumerate() {
            let obj = SpatialObject::new(i as u64 + 1, [*lat, *lon], *text);
            let ptr = store.append(&obj).unwrap();
            let mut terms: Vec<String> = tokenize(text).collect();
            terms.sort_unstable();
            terms.dedup();
            vocab.add_document(terms.iter().map(String::as_str));
            docs.push((
                ptr,
                terms.iter().map(|t| vocab.term_id(t).unwrap()).collect(),
            ));
        }
        store.flush().unwrap();
        let idx = InvertedIndex::build(MemDevice::new(), &vocab, docs).unwrap();
        (store, idx, vocab)
    }

    #[test]
    fn example_2_trace() {
        // "top-2 hotels from [30.5, 100.0] containing internet and pool"
        // returns H7 (181.9) then H2 (222.8).
        let (store, idx, vocab) = figure1();
        let q = DistanceFirstQuery::new([30.5, 100.0], &["internet", "pool"], 2);
        let res = iio_topk(&idx, &vocab, &store, &q).unwrap();
        assert_eq!(res.len(), 2);
        assert_eq!(res[0].0.id, 7);
        assert!((res[0].1 - 181.9).abs() < 0.05);
        assert_eq!(res[1].0.id, 2);
        assert!((res[1].1 - 222.8).abs() < 0.05);
    }

    #[test]
    fn k_larger_than_matches_returns_all() {
        let (store, idx, vocab) = figure1();
        let q = DistanceFirstQuery::new([0.0, 0.0], &["internet", "pool"], 10);
        let res = iio_topk(&idx, &vocab, &store, &q).unwrap();
        assert_eq!(res.len(), 2, "only H2 and H7 contain both keywords");
    }

    #[test]
    fn absent_keyword_empties_the_result() {
        let (store, idx, vocab) = figure1();
        let q = DistanceFirstQuery::new([0.0, 0.0], &["internet", "casino"], 5);
        assert!(iio_topk(&idx, &vocab, &store, &q).unwrap().is_empty());
    }

    #[test]
    fn single_keyword_sorted_by_distance() {
        let (store, idx, vocab) = figure1();
        let q = DistanceFirstQuery::new([30.5, 100.0], &["pool"], 8);
        let res = iio_topk(&idx, &vocab, &store, &q).unwrap();
        // pool: H2, H3, H4, H7, H8 — sorted by distance from [30.5, 100.0].
        let ids: Vec<u64> = res.iter().map(|(o, _)| o.id).collect();
        assert_eq!(ids, vec![4, 3, 8, 7, 2]);
        for w in res.windows(2) {
            assert!(w[0].1 <= w[1].1);
        }
    }

    #[test]
    fn empty_keywords_is_an_error() {
        let (store, idx, vocab) = figure1();
        let q = DistanceFirstQuery::<2>::new([0.0, 0.0], &[] as &[&str], 3);
        assert!(iio_topk(&idx, &vocab, &store, &q).is_err());
    }

    #[test]
    fn k_zero_returns_nothing_without_io() {
        let (store, idx, vocab) = figure1();
        let q = DistanceFirstQuery::new([0.0, 0.0], &["pool"], 0);
        assert!(iio_topk(&idx, &vocab, &store, &q).unwrap().is_empty());
    }

    #[test]
    fn limited_run_is_all_or_nothing() {
        let (store, idx, vocab) = figure1();
        let q = DistanceFirstQuery::new([30.5, 100.0], &["internet", "pool"], 2);
        // Full cost: 2 postings lists + 2 candidate loads = 4 units.
        for budget in 0..4 {
            let out = iio_topk_limited(
                &idx,
                &vocab,
                &store,
                &q,
                QueryLimits::none().with_io_budget(budget),
                &mut 0,
            )
            .unwrap();
            assert!(out.is_truncated(), "budget {budget} must truncate");
            assert!(
                out.results().is_empty(),
                "IIO degrades all-or-nothing: truncation yields no results"
            );
        }
        let mut loads = 0;
        let out = iio_topk_limited(
            &idx,
            &vocab,
            &store,
            &q,
            QueryLimits::none().with_io_budget(4),
            &mut loads,
        )
        .unwrap();
        assert!(!out.is_truncated(), "full budget completes");
        assert_eq!(out.results().len(), 2);
        assert_eq!(loads, 2, "one load per candidate, counted for the caller");
    }
}
