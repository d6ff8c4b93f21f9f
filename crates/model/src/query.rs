//! Query types shared by every algorithm.

use ir2_geo::Point;
use ir2_text::tokenize;

/// Normalizes query keywords the way every query type in the workspace
/// expects them: each keyword goes through the tokenizer applied to
/// documents (so "Internet" matches "internet", and a keyword that
/// tokenizes to several tokens contributes each of them), then the tokens
/// are sorted and deduplicated.
pub fn normalize_keywords<S: AsRef<str>>(keywords: &[S]) -> Vec<String> {
    let mut kws: Vec<String> = keywords.iter().flat_map(|w| tokenize(w.as_ref())).collect();
    kws.sort_unstable();
    kws.dedup();
    kws
}

/// A distance-first top-k spatial keyword query (Section 2):
/// "the `k` objects that contain all of `w₁, …, wₘ` and are closest to
/// `Q.p`" — a top-k spatial query combined with a conjunctive Boolean
/// keyword filter.
#[derive(Debug, Clone, PartialEq)]
pub struct DistanceFirstQuery<const N: usize> {
    /// `Q.p`: the query point.
    pub point: Point<N>,
    /// `Q.t`: the query keywords, normalized to lower-cased tokens.
    pub keywords: Vec<String>,
    /// `Q.k`: number of requested results.
    pub k: usize,
}

impl<const N: usize> DistanceFirstQuery<N> {
    /// Builds a query with [`normalize_keywords`]-normalized keywords.
    pub fn new<S: AsRef<str>>(point: impl Into<Point<N>>, keywords: &[S], k: usize) -> Self {
        Self {
            point: point.into(),
            keywords: normalize_keywords(keywords),
            k,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keywords_are_normalized_and_deduped() {
        let q = DistanceFirstQuery::<2>::new([0.0, 0.0], &["Internet", "POOL", "pool"], 5);
        assert_eq!(q.keywords, ["internet", "pool"]);
        assert_eq!(q.k, 5);
    }

    #[test]
    fn multi_token_keyword_expands() {
        let q = DistanceFirstQuery::<2>::new([0.0, 0.0], &["golf course"], 1);
        assert_eq!(q.keywords, ["course", "golf"]);
    }

    #[test]
    fn empty_keywords_allowed() {
        let q = DistanceFirstQuery::<2>::new([1.0, 2.0], &[] as &[&str], 3);
        assert!(q.keywords.is_empty());
    }
}
