//! IR relevance scoring: `IRscore(T.t, Q.t)` and its signature-derived
//! upper bound.

use crate::{TermId, TokenCounts, Vocabulary};

/// An IR relevance function over (document, query-term-set) pairs, together
/// with the **sound upper bound** the IR²-Tree's general algorithm needs.
///
/// Section 5.3 orders the priority queue by
/// `Upper(v) = UpperBound_{T∈v}( f(distance, IRscore) )`, obtained by
/// imagining an object that contains every query keyword matched by the
/// node's signature. For that to be correct (no result emitted before a
/// better one), `upper_bound(matched)` must dominate `score(...)` of every
/// document whose matched-term set is a subset of `matched` — the contract
/// documented (and property-tested) here.
pub trait IrScorer: Send + Sync {
    /// Relevance of a loaded document to the query terms.
    ///
    /// `query` are the distinct query term ids (terms absent from the
    /// vocabulary contribute nothing and are filtered by the caller).
    fn score(&self, vocab: &Vocabulary, query: &[TermId], doc: &TokenCounts) -> f64;

    /// Maximum possible relevance of any document whose query-term matches
    /// are a subset of `matched` (the query terms whose signatures the node
    /// signature contains).
    fn upper_bound(&self, vocab: &Vocabulary, matched: &[TermId]) -> f64;
}

/// tf-idf with saturating term frequency: `Σ_t idf(t) · tf/(1 + tf)`.
///
/// This is tf-idf in the style of \[Sin01\]/BM25 with the tf component
/// saturating at 1 (`k₁ = 1`, no length normalization). The saturation is
/// what makes the paper's "imaginary object with tf = 1" construction a
/// *sound* bound: each matched term contributes at most `idf(t) · 1`, and a
/// node's signature-matched term set is a superset of every descendant
/// document's (signatures have no false negatives). The paper's literal
/// `1 + ln(tf)` with `1/dl` normalization is not a sound bound (a short
/// document matching one high-idf term can outscore the bound); `DESIGN.md`
/// records this substitution.
#[derive(Debug, Clone, Copy, Default)]
pub struct SaturatingTfIdf;

impl IrScorer for SaturatingTfIdf {
    fn score(&self, vocab: &Vocabulary, query: &[TermId], doc: &TokenCounts) -> f64 {
        let mut acc = 0.0;
        for &t in query {
            let tf = doc.tf(vocab.name(t)) as f64;
            if tf > 0.0 {
                acc += vocab.idf(t) * tf / (1.0 + tf);
            }
        }
        acc
    }

    fn upper_bound(&self, vocab: &Vocabulary, matched: &[TermId]) -> f64 {
        matched.iter().map(|&t| vocab.idf(t)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn corpus() -> Vocabulary {
        let mut v = Vocabulary::new();
        v.add_document(["internet", "pool", "spa"]);
        v.add_document(["pool", "pets", "sauna"]);
        v.add_document(["pool", "internet"]);
        v.add_document(["golf"]);
        v
    }

    fn q(v: &Vocabulary, terms: &[&str]) -> Vec<TermId> {
        terms.iter().filter_map(|t| v.term_id(t)).collect()
    }

    #[test]
    fn more_matches_score_higher() {
        let v = corpus();
        let query = q(&v, &["internet", "pool"]);
        let s = SaturatingTfIdf;
        let both = s.score(&v, &query, &TokenCounts::from_text("internet pool"));
        let one = s.score(&v, &query, &TokenCounts::from_text("pool only here"));
        let none = s.score(&v, &query, &TokenCounts::from_text("golf sauna"));
        assert!(both > one);
        assert!(one > none);
        assert_eq!(none, 0.0);
    }

    #[test]
    fn rare_terms_dominate_common_ones() {
        let v = corpus();
        let s = SaturatingTfIdf;
        // "internet" (df=2) is rarer than "pool" (df=3).
        let query = q(&v, &["internet", "pool"]);
        let rare = s.score(&v, &query, &TokenCounts::from_text("internet"));
        let common = s.score(&v, &query, &TokenCounts::from_text("pool"));
        assert!(rare > common);
    }

    #[test]
    fn tf_saturates_below_idf() {
        let v = corpus();
        let s = SaturatingTfIdf;
        let query = q(&v, &["pool"]);
        let idf = v.idf(query[0]);
        let many = s.score(
            &v,
            &query,
            &TokenCounts::from_text("pool pool pool pool pool"),
        );
        let once = s.score(&v, &query, &TokenCounts::from_text("pool"));
        assert!(once < many);
        assert!(many < idf, "tf component must saturate below 1");
    }

    #[test]
    fn upper_bound_dominates_any_subset_document() {
        let v = corpus();
        let s = SaturatingTfIdf;
        let query = q(&v, &["internet", "pool", "spa"]);
        let ub = s.upper_bound(&v, &query);
        for text in [
            "internet pool spa",
            "internet internet internet",
            "pool spa pool spa pool spa",
            "spa",
            "",
        ] {
            let doc = TokenCounts::from_text(text);
            assert!(
                s.score(&v, &query, &doc) <= ub,
                "score({text:?}) exceeded upper bound"
            );
        }
    }

    #[test]
    fn empty_query_scores_zero() {
        let v = corpus();
        let s = SaturatingTfIdf;
        assert_eq!(s.score(&v, &[], &TokenCounts::from_text("pool")), 0.0);
        assert_eq!(s.upper_bound(&v, &[]), 0.0);
    }
}
