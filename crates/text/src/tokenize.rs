//! Tokenization and token-set containment.

use std::collections::{HashMap, HashSet};

/// Splits `text` into lower-cased alphanumeric tokens.
///
/// "wireless Internet, pool" tokenizes to `wireless`, `internet`, `pool` —
/// matching the paper's running example, where the query keyword
/// `internet` matches both "Internet" (H₁, H₇) and "internet" (H₆).
/// Unicode alphanumerics are kept; everything else separates tokens.
pub fn tokenize(text: &str) -> impl Iterator<Item = String> + '_ {
    alphanumeric_runs(text).map(|s| s.to_lowercase())
}

/// The maximal alphanumeric runs of `text`, case untouched.
fn alphanumeric_runs(text: &str) -> impl Iterator<Item = &str> {
    text.split(|c: char| !c.is_alphanumeric())
        .filter(|s| !s.is_empty())
}

/// The conjunctive keyword predicate straight off the document text:
/// `∀w ∈ keywords : w ∈ tokenize(text)`, with the verdict of
/// `TokenSet::from_text(text).contains_all(keywords)` and no allocation for
/// ASCII text. `keywords` must be lower-cased, as a query's are.
///
/// This is [`bytes_contain_all`] on text already known to be UTF-8.
///
/// ```
/// use ir2_text::text_contains_all;
/// let text = "wireless Internet, pool, golf course";
/// assert!(text_contains_all(text, &["internet", "pool"]));
/// assert!(!text_contains_all(text, &["internet", "spa"]));
/// ```
pub fn text_contains_all<S: AsRef<str>>(text: &str, keywords: &[S]) -> bool {
    if text.is_ascii() {
        ascii_contains_all(text.as_bytes(), keywords)
    } else {
        unicode_contains_all(text, keywords)
    }
}

/// [`text_contains_all`] on bytes not yet known to be text — the candidate
/// check of `IR2TopK` line 21, run where the record lies: once per fetched
/// object, mostly on signature false positives, before anything is decoded.
///
/// ASCII bytes (the common record) are searched byte-wise with no
/// allocation; `is_ascii` is then the whole UTF-8 check, because every
/// ASCII byte string is valid UTF-8 and on it `char::is_alphanumeric` and
/// `to_lowercase` are `u8::is_ascii_alphanumeric` and `to_ascii_lowercase`.
/// Anything else is validated and goes through the `char`-wise tokenizer.
/// Bytes that are not UTF-8 are an error, never `false`: a corrupt record
/// is reported even when it would not have matched.
///
/// ```
/// use ir2_text::bytes_contain_all;
/// assert_eq!(bytes_contain_all(b"Internet, pool", &["pool"]), Ok(true));
/// assert_eq!(bytes_contain_all("café".as_bytes(), &["cafe"]), Ok(false));
/// assert!(bytes_contain_all(b"pool \xFF", &["spa"]).is_err());
/// ```
pub fn bytes_contain_all<S: AsRef<str>>(
    text: &[u8],
    keywords: &[S],
) -> Result<bool, std::str::Utf8Error> {
    if text.is_ascii() {
        Ok(ascii_contains_all(text, keywords))
    } else {
        std::str::from_utf8(text).map(|text| unicode_contains_all(text, keywords))
    }
}

/// `text` is ASCII, so its tokens are its maximal runs of ASCII
/// alphanumerics, and a keyword is one of them exactly where it occurs,
/// letter case aside, with no alphanumeric on either side. The text is
/// searched for each keyword in turn — a false positive usually stops at
/// its first — rather than cut into tokens: the byte loop branches on a
/// token boundary only where a keyword's first byte matches.
fn ascii_contains_all<S: AsRef<str>>(text: &[u8], keywords: &[S]) -> bool {
    keywords.iter().all(|w| {
        let w = w.as_ref().as_bytes();
        let Some((&first, last_start)) = w.first().zip(text.len().checked_sub(w.len())) else {
            return false; // no token is empty, or longer than the text
        };
        let is_boundary = |at: Option<&u8>| at.is_none_or(|b| !b.is_ascii_alphanumeric());
        text[..=last_start].iter().enumerate().any(|(i, t)| {
            t.to_ascii_lowercase() == first
                && is_boundary(i.checked_sub(1).map(|before| &text[before]))
                && is_boundary(text.get(i + w.len()))
                // A token is lower-cased and all alphanumeric, so a keyword
                // with a capital or a separator in it equals none.
                && text[i..i + w.len()]
                    .iter()
                    .zip(w)
                    .all(|(t, k)| t.is_ascii_alphanumeric() && t.to_ascii_lowercase() == *k)
        })
    })
}

/// Tokens stream out of the split [`tokenize`] uses; an ASCII token is
/// compared byte-wise against its lower-cased self, a non-ASCII token goes
/// through `to_lowercase()` like `tokenize`'s do. Keywords still missing are
/// a 64-bit mask (longer lists are checked 64 at a time), so the scan stops
/// at the token that completes the match.
fn unicode_contains_all<S: AsRef<str>>(text: &str, keywords: &[S]) -> bool {
    keywords.chunks(64).all(|chunk| {
        let mut missing = u64::MAX >> (64 - chunk.len());
        for tok in alphanumeric_runs(text) {
            let lowered = (!tok.is_ascii()).then(|| tok.to_lowercase());
            let mut rest = missing;
            while rest != 0 {
                let i = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                let w = chunk[i].as_ref();
                let same = match &lowered {
                    Some(lowered) => lowered == w,
                    None => {
                        tok.len() == w.len()
                            && tok
                                .bytes()
                                .zip(w.bytes())
                                .all(|(t, k)| t.to_ascii_lowercase() == k)
                    }
                };
                if same {
                    missing &= !(1 << i);
                }
            }
            if missing == 0 {
                return true;
            }
        }
        false
    })
}

/// The set of distinct tokens of a document.
///
/// This is the structure the distance-first algorithms consult to verify
/// candidates: "if T.t contains all keywords in Q.t".
///
/// ```
/// use ir2_text::TokenSet;
/// let doc = TokenSet::from_text("wireless Internet, pool, golf course");
/// assert!(doc.contains_all(&["internet", "pool"]));
/// assert!(!doc.contains_all(&["internet", "spa"]));
/// ```
#[derive(Debug, Clone, Default)]
pub struct TokenSet {
    tokens: HashSet<String>,
}

impl TokenSet {
    /// Tokenizes a document into its distinct-token set.
    pub fn from_text(text: &str) -> Self {
        Self {
            tokens: tokenize(text).collect(),
        }
    }

    /// Number of distinct tokens (the document length `dl` used by the
    /// paper's IR-score upper bound).
    pub fn len(&self) -> usize {
        self.tokens.len()
    }

    /// True if the document has no tokens.
    pub fn is_empty(&self) -> bool {
        self.tokens.is_empty()
    }

    /// True if the document contains keyword `w` (`w` must already be
    /// lower-cased, as produced by [`tokenize`]).
    pub fn contains(&self, w: &str) -> bool {
        self.tokens.contains(w)
    }

    /// The paper's conjunctive Boolean keyword predicate:
    /// `∀w ∈ keywords : w ∈ T.t`. Vacuously true for no keywords.
    pub fn contains_all<S: AsRef<str>>(&self, keywords: &[S]) -> bool {
        keywords.iter().all(|w| self.contains(w.as_ref()))
    }

    /// Iterates over the distinct tokens.
    pub fn iter(&self) -> impl Iterator<Item = &str> {
        self.tokens.iter().map(String::as_str)
    }
}

/// Distinct tokens of a document with their term frequencies.
///
/// The general top-k algorithm needs `tf` per query term and the document
/// length; this is the loaded-object view it scores against.
#[derive(Debug, Clone, Default)]
pub struct TokenCounts {
    counts: HashMap<String, u32>,
}

impl TokenCounts {
    /// Tokenizes a document, counting occurrences per token.
    pub fn from_text(text: &str) -> Self {
        let mut counts = HashMap::new();
        for tok in tokenize(text) {
            *counts.entry(tok).or_insert(0) += 1;
        }
        Self { counts }
    }

    /// Term frequency of `w` (0 when absent; `w` must be lower-cased).
    pub fn tf(&self, w: &str) -> u32 {
        self.counts.get(w).copied().unwrap_or(0)
    }

    /// Number of distinct tokens.
    pub fn distinct(&self) -> usize {
        self.counts.len()
    }

    /// Iterates over `(token, tf)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&str, u32)> {
        self.counts.iter().map(|(t, &c)| (t.as_str(), c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokenizes_paper_amenities() {
        let toks: Vec<String> = tokenize("wireless Internet, pool, golf course").collect();
        assert_eq!(toks, ["wireless", "internet", "pool", "golf", "course"]);
    }

    #[test]
    fn case_insensitive_match_from_running_example() {
        // H7's description uses "Internet"; the query keyword is "internet".
        let h7 = TokenSet::from_text("Internet, airport transportation, pool");
        assert!(h7.contains_all(&["internet", "pool"]));
        // H1 has internet but no pool.
        let h1 = TokenSet::from_text("tennis court, gift shop, spa, Internet");
        assert!(!h1.contains_all(&["internet", "pool"]));
    }

    #[test]
    fn empty_and_punctuation_only_text() {
        assert!(TokenSet::from_text("").is_empty());
        assert!(TokenSet::from_text("...!?---").is_empty());
        assert_eq!(tokenize("").count(), 0);
    }

    #[test]
    fn empty_keyword_list_is_vacuously_true() {
        let t = TokenSet::from_text("anything");
        assert!(t.contains_all::<&str>(&[]));
    }

    #[test]
    fn streaming_check_gives_the_token_sets_verdicts() {
        let text = "Internet, airport transportation, pool — Café İstanbul ΟΔΟΣ";
        let set = TokenSet::from_text(text);
        for kws in [
            &["internet", "pool"][..],
            &["internet", "spa"],
            &["café"],
            &["cafe"],
            &["i̇stanbul"],
            &["istanbul"],
            &["οδος"], // final sigma, as `to_lowercase` writes it
            &["οδοσ"],
            &["Internet"], // keywords are taken as given, not lower-cased
            &["pool", "pool"],
            &["airport transportation"], // in the text, but no one token
            &["airport", "transportation"],
            &["port"],
            &[""],
            &[],
        ] {
            assert_eq!(
                text_contains_all(text, kws),
                set.contains_all(kws),
                "{kws:?}"
            );
        }
        assert!(text_contains_all(text, &["i̇stanbul", "οδος", "café"]));
        assert!(!text_contains_all("", &["pool"]));
    }

    #[test]
    fn long_keyword_lists_are_checked_64_at_a_time() {
        let words: Vec<String> = (0..130).map(|i| format!("w{i}")).collect();
        let text = words.join(" ");
        assert!(text_contains_all(&text, &words));
        for missing in [0, 63, 64, 129] {
            let mut kws = words.clone();
            kws[missing] = "absent".into();
            assert!(!text_contains_all(&text, &kws), "keyword {missing}");
        }
    }

    #[test]
    fn counts_term_frequencies() {
        let c = TokenCounts::from_text("pool spa pool POOL spa pets");
        assert_eq!(c.tf("pool"), 3);
        assert_eq!(c.tf("spa"), 2);
        assert_eq!(c.tf("pets"), 1);
        assert_eq!(c.tf("absent"), 0);
        assert_eq!(c.distinct(), 3);
    }

    #[test]
    fn numbers_and_unicode_are_tokens() {
        let toks: Vec<String> = tokenize("Motel6 café 24h").collect();
        assert_eq!(toks, ["motel6", "café", "24h"]);
    }
}
