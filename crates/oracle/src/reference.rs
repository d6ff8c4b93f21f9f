//! The brute-force reference engine.
//!
//! A second, independent implementation of the query semantics: no
//! index, no signatures, no pruning — just a linear scan with its own
//! keyword matcher. Small enough to audit by eye, which is what makes
//! it an oracle.

use std::collections::HashSet;

use ir2tree::model::{DistanceFirstQuery, QueryRegion, SpatialObject};
use ir2tree::text::{tokenize, IrScorer, RankingFn, TokenCounts, Vocabulary};

/// The full ranking of every matching object, in the canonical
/// `(distance, id)` order. Distances come from [`reference_distance`], not
/// from the engines' geometry, so a fault in their one distance rule is a
/// divergence; downstream, an engine's distance must agree with it to
/// within a few ulps.
pub fn reference_ranking(
    objects: &[SpatialObject<2>],
    query: &DistanceFirstQuery<2>,
) -> Vec<(u64, f64)> {
    let mut hits: Vec<(u64, f64)> = objects
        .iter()
        .filter(|o| matches(o, &query.keywords))
        .map(|o| {
            (
                o.id,
                reference_distance(o.point.coords(), query.point.coords()),
            )
        })
        .collect();
    hits.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
    hits
}

/// The exact top-k answer: the first `query.k` entries of the ranking.
pub fn reference_topk(
    objects: &[SpatialObject<2>],
    query: &DistanceFirstQuery<2>,
) -> Vec<(u64, f64)> {
    let mut hits = reference_ranking(objects, query);
    hits.truncate(query.k);
    hits
}

/// The exact answer of the §5.3 general query: every object with a
/// positive IR score for `keywords`, ranked by `rank.combine(distance,
/// IRscore)` in the canonical order — score descending, then id
/// ascending — and cut at `k`. Scores come from the engine's own
/// `vocab` (its document frequencies) and `scorer`, since the score is the
/// query's definition; the distance from `region` is the reference's own
/// ([`reference_distance`]; a point inside an area is at distance 0).
pub fn reference_general(
    objects: &[SpatialObject<2>],
    region: &QueryRegion<2>,
    keywords: &[String],
    k: usize,
    vocab: &Vocabulary,
    scorer: &dyn IrScorer,
    rank: &dyn RankingFn,
) -> Vec<(u64, f64)> {
    let terms: Vec<_> = keywords.iter().filter_map(|w| vocab.term_id(w)).collect();
    let mut hits: Vec<(u64, f64)> = objects
        .iter()
        .filter_map(|o| {
            let ir = scorer.score(vocab, &terms, &TokenCounts::from_text(&o.text));
            (ir > 0.0).then(|| (o.id, rank.combine(region_distance(region, o), ir)))
        })
        .collect();
    hits.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    hits.truncate(k);
    hits
}

/// The distance from `region` to `o`: to the query point, or to the
/// nearest point of the area (`o` clamped into it).
fn region_distance(region: &QueryRegion<2>, o: &SpatialObject<2>) -> f64 {
    let p = o.point.coords();
    match region {
        QueryRegion::Point(q) => reference_distance(p, q.coords()),
        QueryRegion::Area(a) => {
            let (lo, hi) = (a.lo().coords(), a.hi().coords());
            let nearest = [p[0].clamp(lo[0], hi[0]), p[1].clamp(lo[1], hi[1])];
            reference_distance(p, &nearest)
        }
    }
}

/// The Euclidean distance between `a` and `b`, computed here and nowhere
/// else. While the sum of the squared gaps is a normal number it is
/// `√(dx² + dy²)` — on the scenarios' integer grid an exact sum, so ties
/// are bitwise. A sum that underflows (gaps below ≈ 1e-154) or overflows is
/// recomputed on gaps scaled by powers of two until the larger one is near
/// 1, which is exact, and scaled back.
pub fn reference_distance(a: &[f64; 2], b: &[f64; 2]) -> f64 {
    let (mut dx, mut dy) = ((a[0] - b[0]).abs(), (a[1] - b[1]).abs());
    let (sum, larger) = (dx * dx + dy * dy, dx.max(dy));
    if sum.is_normal() || larger == 0.0 || larger.is_infinite() {
        return sum.sqrt();
    }
    const UP: f64 = 1.3407807929942597e154; // 2^512
    const DOWN: f64 = 7.458340731200207e-155; // 2^-512
    let mut steps = 0i32;
    while dx.max(dy) < DOWN {
        (dx, dy, steps) = (dx * UP, dy * UP, steps + 1);
    }
    while dx.max(dy) > UP {
        (dx, dy, steps) = (dx * DOWN, dy * DOWN, steps - 1);
    }
    let mut d = (dx * dx + dy * dy).sqrt();
    for _ in 0..steps {
        d *= DOWN;
    }
    for _ in steps..0 {
        d *= UP;
    }
    d
}

/// Conjunctive keyword containment, re-derived from the raw text rather
/// than from any engine's token structures.
fn matches(o: &SpatialObject<2>, keywords: &[String]) -> bool {
    let terms: HashSet<String> = tokenize(&o.text).collect();
    keywords.iter().all(|w| terms.contains(w))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_order_breaks_exact_ties_by_id() {
        // Three objects at the same distance, ids deliberately unsorted
        // relative to declaration order.
        let objs = vec![
            SpatialObject::new(9, [1.0, 0.0], "cafe"),
            SpatialObject::new(2, [0.0, 1.0], "cafe"),
            SpatialObject::new(5, [-1.0, 0.0], "cafe"),
            SpatialObject::new(1, [5.0, 0.0], "cafe"),
        ];
        let q = DistanceFirstQuery::new([0.0, 0.0], &["cafe"], 2);
        let top = reference_topk(&objs, &q);
        assert_eq!(
            top.iter().map(|&(id, _)| id).collect::<Vec<_>>(),
            vec![2, 5]
        );
    }

    /// The reference's own distance: exact on the grid, and a gap whose
    /// square underflows or overflows is still measured, not rounded to 0
    /// or infinity.
    #[test]
    fn the_reference_distance_survives_tiny_and_huge_gaps() {
        assert_eq!(reference_distance(&[0.0, 0.0], &[3.0, 4.0]), 5.0);
        assert_eq!(reference_distance(&[1.0, 7.0], &[0.0, 0.0]), 50f64.sqrt());
        assert_eq!(reference_distance(&[2.0, 2.0], &[2.0, 2.0]), 0.0);
        for gap in [1e-200, 1e-160, 5e-324] {
            assert_eq!(reference_distance(&[0.0, 0.0], &[gap, 0.0]), gap);
        }
        for gap in [1e-200, 1e-160] {
            let d = reference_distance(&[0.0, 0.0], &[gap, gap]);
            assert!(
                (d / gap - std::f64::consts::SQRT_2).abs() < 1e-12,
                "{gap}: {d}"
            );
        }
        assert_eq!(reference_distance(&[-1e300, 0.0], &[1e300, 0.0]), 2e300);
        assert!(reference_distance(&[0.0, 0.0], &[f64::INFINITY, 0.0]).is_infinite());
    }

    #[test]
    fn empty_keywords_match_everything() {
        let objs = vec![
            SpatialObject::new(1, [0.0, 0.0], "cafe"),
            SpatialObject::new(2, [1.0, 0.0], "spa"),
        ];
        let q = DistanceFirstQuery::<2>::new([0.0, 0.0], &[] as &[&str], 5);
        assert_eq!(reference_topk(&objs, &q).len(), 2);
    }
}
