//! Property tests for the IR substrate: the upper-bound contract that the
//! general IR²-Tree algorithm's correctness rests on.

use ir2_text::{
    bytes_contain_all, text_contains_all, tokenize, DecayRank, IrScorer, LinearRank, RankingFn,
    SaturatingTfIdf, TokenCounts, TokenSet, Vocabulary,
};
use proptest::prelude::*;

/// Small word pool so documents overlap heavily.
fn arb_word() -> impl Strategy<Value = String> {
    prop::sample::select(vec![
        "internet", "pool", "spa", "pets", "golf", "sauna", "suite", "gym", "bar", "wifi",
    ])
    .prop_map(str::to_owned)
}

fn arb_doc() -> impl Strategy<Value = Vec<String>> {
    prop::collection::vec(arb_word(), 0..20)
}

fn build_vocab(docs: &[Vec<String>]) -> Vocabulary {
    let mut v = Vocabulary::new();
    for d in docs {
        let mut distinct: Vec<&str> = d.iter().map(String::as_str).collect();
        distinct.sort_unstable();
        distinct.dedup();
        v.add_document(distinct);
    }
    v
}

proptest! {
    /// For every document and every query, the scorer's upper bound over the
    /// full query-term set dominates the document's actual score. This is the
    /// invariant that lets the IR²-Tree emit results early without missing a
    /// better one deeper in the tree.
    #[test]
    fn upper_bound_dominates_scores(docs in prop::collection::vec(arb_doc(), 1..12),
                                    query in prop::collection::vec(arb_word(), 1..5)) {
        let vocab = build_vocab(&docs);
        let scorer = SaturatingTfIdf;
        let mut qids: Vec<_> = query.iter().filter_map(|w| vocab.term_id(w)).collect();
        qids.sort_unstable();
        qids.dedup();
        let ub = scorer.upper_bound(&vocab, &qids);
        for d in &docs {
            let doc = TokenCounts::from_text(&d.join(" "));
            prop_assert!(scorer.score(&vocab, &qids, &doc) <= ub + 1e-12);
        }
    }

    /// Upper bound is monotone in the matched set: matching fewer query terms
    /// can only lower the bound (needed because deeper nodes match subsets).
    #[test]
    fn upper_bound_monotone_in_matched_set(docs in prop::collection::vec(arb_doc(), 1..12),
                                           query in prop::collection::vec(arb_word(), 1..6),
                                           keep in prop::collection::vec(any::<bool>(), 6)) {
        let vocab = build_vocab(&docs);
        let scorer = SaturatingTfIdf;
        let mut qids: Vec<_> = query.iter().filter_map(|w| vocab.term_id(w)).collect();
        qids.sort_unstable();
        qids.dedup();
        let subset: Vec<_> = qids.iter().zip(keep.iter().cycle()).filter(|(_, &k)| k).map(|(&t, _)| t).collect();
        prop_assert!(scorer.upper_bound(&vocab, &subset) <= scorer.upper_bound(&vocab, &qids) + 1e-12);
    }

    /// Ranking functions are monotone: decreasing in distance, increasing in
    /// IR score — the assumption Section 5.3 makes explicit.
    #[test]
    fn ranking_fns_are_monotone(d1 in 0.0f64..1e4, d2 in 0.0f64..1e4,
                                s1 in 0.0f64..100.0, s2 in 0.0f64..100.0) {
        let (dlo, dhi) = if d1 <= d2 { (d1, d2) } else { (d2, d1) };
        let (slo, shi) = if s1 <= s2 { (s1, s2) } else { (s2, s1) };
        for f in [&LinearRank::default() as &dyn RankingFn, &DecayRank::default()] {
            prop_assert!(f.combine(dlo, s1) >= f.combine(dhi, s1) - 1e-9);
            prop_assert!(f.combine(d1, shi) >= f.combine(d1, slo) - 1e-9);
        }
    }

    /// Tokenization is idempotent: tokenizing the join of tokens yields the
    /// same tokens (tokens contain no separators).
    #[test]
    fn tokenize_idempotent(text in ".{0,80}") {
        let once: Vec<String> = tokenize(&text).collect();
        let twice: Vec<String> = tokenize(&once.join(" ")).collect();
        prop_assert_eq!(once, twice);
    }

    /// TokenSet::contains_all agrees with naive containment of each keyword.
    #[test]
    fn contains_all_agrees_with_naive(doc in arb_doc(), query in prop::collection::vec(arb_word(), 0..4)) {
        let text = doc.join(" ");
        let set = TokenSet::from_text(&text);
        let naive = query.iter().all(|w| doc.iter().any(|t| t == w));
        prop_assert_eq!(set.contains_all(&query), naive);
    }

    /// The streaming check gives `TokenSet`'s verdict on text that mixes
    /// ASCII in both cases with characters whose lower-casing is not a byte
    /// operation: 'İ' (lower-cases to two chars), 'Σ'/'ς' (final-sigma
    /// rule), 'ß', 'é', CJK. Keywords come from the text's own tokens
    /// (matches), from a token upper-cased (a keyword that is not
    /// lower-case matches nothing) and from outside the text.
    #[test]
    fn text_contains_all_agrees_with_token_set(
        chars in prop::collection::vec(
            prop::sample::select(
                "abcXYZ019 ,.;-!İΣςσßéÉ東京".chars().collect::<Vec<char>>()),
            0..60),
        picks in prop::collection::vec(any::<prop::sample::Index>(), 0..4),
        outside in prop::collection::vec(
            prop::sample::select(vec!["absent", "i̇", "σ", "ς", "ss", "é", "ABC", "", "a b"]),
            0..2),
        shout in any::<bool>(),
    ) {
        let text: String = chars.into_iter().collect();
        let tokens: Vec<String> = tokenize(&text).collect();
        let mut keywords: Vec<String> = outside.iter().map(|w| w.to_string()).collect();
        if !tokens.is_empty() {
            keywords.extend(picks.iter().map(|p| tokens[p.index(tokens.len())].clone()));
        }
        if shout {
            if let Some(last) = keywords.last_mut() {
                *last = last.to_uppercase();
            }
        }
        prop_assert_eq!(
            text_contains_all(&text, &keywords),
            TokenSet::from_text(&text).contains_all(&keywords),
            "text {:?} keywords {:?}", text, keywords
        );
        prop_assert!(text_contains_all::<&str>(&text, &[]), "no keywords is vacuously true");
    }

    /// Vocabulary serialization round-trips.
    #[test]
    fn vocab_roundtrip(docs in prop::collection::vec(arb_doc(), 0..10)) {
        let vocab = build_vocab(&docs);
        let back = Vocabulary::decode(&vocab.encode()).unwrap();
        prop_assert_eq!(back.num_docs(), vocab.num_docs());
        prop_assert_eq!(back.len(), vocab.len());
        for (id, name, df) in vocab.iter() {
            prop_assert_eq!(back.term_id(name), Some(id));
            prop_assert_eq!(back.df(id), df);
            prop_assert!((back.idf(id) - vocab.idf(id)).abs() < 1e-12);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The check on a record's bytes gives the verdict of both checks on its
    /// text — for ASCII text (searched byte-wise, `is_ascii` standing in for
    /// the UTF-8 pass) and for text with characters whose lower-casing is
    /// not a byte operation: 'İ', 'K' (KELVIN SIGN, lower-cases to ASCII
    /// 'k'), 'ß', a combining acute, final sigma. Keyword lists are empty,
    /// short, exactly one mask wide and wider; they mix the text's own
    /// tokens with a token upper-cased, a token cut short or run on (a
    /// keyword must equal a whole token), a stretch of the text that spans
    /// separators, and words from outside. Text that
    /// is empty or all separators is in range. Bytes that are not UTF-8 are
    /// an error whatever the keywords — never a plain "no".
    #[test]
    fn bytes_contain_all_agrees_with_token_set(
        ascii_only in any::<bool>(),
        chars in prop::collection::vec(
            prop::sample::select(
                "abkXYZ019 ,.;-!_İKΣςσßéÉ\u{301}東".chars().collect::<Vec<char>>()),
            0..60),
        count in prop::sample::select(vec![0usize, 1, 2, 3, 64, 65, 130]),
        picks in prop::collection::vec(any::<prop::sample::Index>(), 130),
        outside in prop::collection::vec(
            prop::sample::select(vec!["absent", "i̇", "k", "K", "ss", "é", "ABK", "", "a b", "a,"]),
            0..2),
        mangle in prop::sample::select(vec!["none", "shout", "cut", "run on", "span"]),
    ) {
        let text: String = chars.into_iter().filter(|c| !ascii_only || c.is_ascii()).collect();
        let tokens: Vec<String> = tokenize(&text).collect();
        let mut keywords: Vec<String> = outside.iter().map(|w| w.to_string()).collect();
        if !tokens.is_empty() {
            let own = count.saturating_sub(keywords.len());
            keywords.extend(picks[..own].iter().map(|p| tokens[p.index(tokens.len())].clone()));
        }
        if let Some(last) = keywords.last_mut() {
            match mangle {
                "shout" => *last = last.to_uppercase(),
                "cut" => { last.pop(); }
                "run on" => last.push('a'),
                // Several tokens and the separators between them.
                "span" => {
                    *last = text.trim_matches(|c: char| !c.is_alphanumeric()).to_lowercase()
                }
                _ => {}
            }
        }
        let verdict = TokenSet::from_text(&text).contains_all(&keywords);
        prop_assert_eq!(
            bytes_contain_all(text.as_bytes(), &keywords), Ok(verdict),
            "text {:?} keywords {:?}", text, keywords
        );
        prop_assert_eq!(
            text_contains_all(&text, &keywords), verdict,
            "text {:?} keywords {:?}", text, keywords
        );

        let mut torn = text.into_bytes();
        torn.push(0xFF);
        prop_assert!(bytes_contain_all(&torn, &keywords).is_err());
        prop_assert!(bytes_contain_all::<&str>(&torn, &[]).is_err());
    }
}
