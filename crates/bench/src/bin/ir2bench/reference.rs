//! The exactness reference: an answer computed from the generated objects
//! alone, sharing no code with the program under test.
//!
//! A term → ids map (one bit set per term) over the query band's words, and
//! the object points. The answer to a query is the intersection of its
//! keywords' id sets, sorted by `(distance, id)`, first `k`. Answers are compared as digests over
//! ids and distance bits.

use std::collections::HashMap;

use ir2tree::model::{DistanceFirstQuery, SpatialObject};

pub struct Reference {
    /// One bit per object id, per tracked term.
    bits: HashMap<String, Vec<u64>>,
    /// Location of object `id` at index `id`.
    points: Vec<[f64; 2]>,
}

impl Reference {
    /// A reference tracking `terms` — every word a query may use.
    pub fn new(terms: &[String]) -> Self {
        Self {
            bits: terms.iter().map(|t| (t.clone(), Vec::new())).collect(),
            points: Vec::new(),
        }
    }

    /// Adds the next object. Ids must be dense and ascending, as the
    /// generator's are.
    pub fn add(&mut self, obj: &SpatialObject<2>) {
        assert_eq!(obj.id, self.points.len() as u64, "ids must be 0, 1, 2, …");
        self.points.push([obj.point.coord(0), obj.point.coord(1)]);
        let (word, bit) = (obj.id as usize / 64, obj.id % 64);
        // The reference's own tokenizer: lower-cased runs of alphanumerics.
        for token in obj.text.split(|c: char| !c.is_alphanumeric()) {
            let set = if token.chars().any(char::is_uppercase) {
                self.bits.get_mut(&token.to_lowercase())
            } else {
                self.bits.get_mut(token)
            };
            if let Some(set) = set {
                if set.len() <= word {
                    set.resize(word + 1, 0);
                }
                set[word] |= 1 << bit;
            }
        }
    }

    /// The ids of the objects that contain every keyword of `q`, as a bit
    /// set.
    fn matching(&self, q: &DistanceFirstQuery<2>) -> Vec<u64> {
        let mut sets = q.keywords.iter().map(|w| {
            self.bits
                .get(w)
                .unwrap_or_else(|| panic!("query keyword {w:?} is not tracked"))
        });
        let mut all = sets
            .next()
            .expect("the benchmark issues no keyword-less queries")
            .clone();
        for set in sets {
            all.truncate(set.len());
            all.iter_mut().zip(set).for_each(|(a, b)| *a &= b);
        }
        all
    }

    /// How many objects match `q`'s keywords, wherever they are.
    pub fn matches(&self, q: &DistanceFirstQuery<2>) -> usize {
        self.matching(q)
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum()
    }

    /// `(id, distance bits)` of the exact top-k, in `(distance, id)` order.
    pub fn answer(&self, q: &DistanceFirstQuery<2>) -> Vec<(u64, u64)> {
        let (qx, qy) = (q.point.coord(0), q.point.coord(1));
        let mut hits = Vec::new();
        for (word, mut set) in self.matching(q).into_iter().enumerate() {
            while set != 0 {
                let id = word * 64 + set.trailing_zeros() as usize;
                set &= set - 1;
                let [x, y] = self.points[id];
                let (dx, dy) = (qx - x, qy - y);
                hits.push(((dx * dx + dy * dy).sqrt(), id as u64));
            }
        }
        hits.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        hits.truncate(q.k);
        hits.into_iter().map(|(d, id)| (id, d.to_bits())).collect()
    }
}

/// Order-sensitive digest of an answer: ids and distance bits.
pub fn digest(answer: impl IntoIterator<Item = (u64, u64)>) -> u64 {
    let mut h: u64 = 0x9E37_79B9_7F4A_7C15;
    for (id, bits) in answer {
        for v in [id, bits] {
            h = (h ^ v).wrapping_mul(0x0000_0100_0000_01B3);
            h ^= h >> 29;
        }
    }
    h
}

/// Digest of what the program returned.
pub fn digest_results(results: &[(SpatialObject<2>, f64)]) -> u64 {
    digest(results.iter().map(|(o, d)| (o.id, d.to_bits())))
}

/// Counts operations against the reference. Expected digests are computed
/// once per query and dropped whenever the data changes.
pub struct Checker {
    reference: Reference,
    expected: Vec<Option<u64>>,
    pub attempted: u64,
    pub failed: u64,
}

impl Checker {
    /// A checker for a list of `queries` queries, addressed by index.
    pub fn new(reference: Reference, queries: usize) -> Self {
        Self {
            reference,
            expected: vec![None; queries],
            attempted: 0,
            failed: 0,
        }
    }

    /// Checks one operation: query `q`, the `qi`-th of the list, returned
    /// the answer digest `got` (`None`: it returned an error).
    pub fn check(&mut self, qi: usize, q: &DistanceFirstQuery<2>, got: Option<u64>) {
        let expected = *self.expected[qi].get_or_insert_with(|| digest(self.reference.answer(q)));
        self.attempted += 1;
        self.failed += u64::from(got != Some(expected));
    }

    /// Counts an operation that has no answer to compare (an insert, a
    /// commit): it fails only by returning an error.
    pub fn count(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// The data gained an object: later checks see it.
    pub fn add(&mut self, obj: &SpatialObject<2>) {
        self.reference.add(obj);
        self.expected.fill(None);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reference() -> Reference {
        let terms: Vec<String> = ["pool", "wifi", "spa"].map(String::from).into();
        let mut r = Reference::new(&terms);
        for (id, (x, text)) in [
            (3.0, "pool wifi"),
            (1.0, "Pool, WIFI; sauna"),
            (2.0, "pool"),
            (1.0, "wifi pool pool"),
            (0.5, "wifi"),
        ]
        .into_iter()
        .enumerate()
        {
            r.add(&SpatialObject::new(id as u64, [x, 0.0], text));
        }
        r
    }

    #[test]
    fn answer_is_the_intersection_in_distance_then_id_order() {
        let r = reference();
        let q = DistanceFirstQuery::new([0.0, 0.0], &["wifi", "pool"], 2);
        // Objects 1 and 3 tie at distance 1; the lower id wins. 0 is cut by k.
        let ids: Vec<u64> = r.answer(&q).iter().map(|a| a.0).collect();
        assert_eq!(ids, [1, 3]);
        assert_eq!(r.answer(&q)[0].1, 1.0f64.to_bits());
        assert_eq!(r.matches(&q), 3);
        let none = DistanceFirstQuery::new([0.0, 0.0], &["spa"], 2);
        assert!(r.answer(&none).is_empty());
        assert_eq!(r.matches(&none), 0);
    }

    #[test]
    fn a_corrupted_answer_is_counted() {
        let r = reference();
        let q = DistanceFirstQuery::new([0.0, 0.0], &["pool"], 3);
        let good = r.answer(&q);
        assert_eq!(good.len(), 3);

        let mut wrong_id = good.clone();
        wrong_id[1].0 += 1;
        let mut wrong_distance = good.clone();
        wrong_distance[0].1 ^= 1; // one ulp
        let mut swapped = good.clone();
        swapped.swap(0, 1);
        let mut short = good.clone();
        short.pop();

        let mut checker = Checker::new(r, 1);
        checker.check(0, &q, Some(digest(good)));
        assert_eq!((checker.attempted, checker.failed), (1, 0));
        for bad in [wrong_id, wrong_distance, swapped, short] {
            checker.check(0, &q, Some(digest(bad)));
        }
        checker.check(0, &q, None); // the query returned an error
        assert_eq!((checker.attempted, checker.failed), (6, 5));

        // An insert changes the expected answer; the stale one now fails.
        let stale = digest(checker.reference.answer(&q));
        checker.add(&SpatialObject::new(5, [0.1, 0.0], "pool"));
        checker.check(0, &q, Some(stale));
        let fresh = digest(checker.reference.answer(&q));
        checker.check(0, &q, Some(fresh));
        checker.count(false);
        assert_eq!((checker.attempted, checker.failed), (9, 7));
    }
}
