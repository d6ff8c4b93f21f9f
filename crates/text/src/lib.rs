#![warn(missing_docs)]
//! Text / information-retrieval substrate.
//!
//! The paper models every spatial object as `(T.p, T.t)` where `T.t` is a
//! text document, and needs four text capabilities:
//!
//! 1. **Tokenization** — turning `T.t` into keywords (the paper treats
//!    "Internet" in a hotel's amenities and the query keyword "internet" as
//!    equal, so tokens are lower-cased alphanumeric runs). See [`tokenize`].
//! 2. **Boolean containment** — the distance-first query's conjunctive
//!    filter `∀w ∈ Q.t : w ∈ T.t`, and the false-positive check of
//!    `IR2TopK` line 21. See [`bytes_contain_all`] (the query path: the
//!    verdict straight off a record's bytes, no allocation per candidate),
//!    [`text_contains_all`] (the same on a `str`) and [`TokenSet`].
//! 3. **Relevance ranking** — `IRscore(T.t, Q.t)` for the general top-k
//!    query, a tf-idf family function \[Sin01\], plus the *upper bound* the
//!    IR²-Tree computes from a node signature (the "imaginary object …
//!    tf = 1" of Section 5.3). See [`IrScorer`] and [`SaturatingTfIdf`].
//! 4. **Combining functions** — `f(distance(T.p, Q.p), IRscore(T.t, Q.t))`,
//!    decreasing in distance and increasing in IR score. See [`RankingFn`].
//!
//! The vocabulary ([`Vocabulary`]) assigns dense integer ids to terms and
//! tracks document frequencies, which both the inverted index and the tf-idf
//! scorer consume.

mod rank;
mod score;
mod tokenize;
mod vocab;

pub use rank::{DecayRank, LinearRank, RankingFn};
pub use score::{IrScorer, SaturatingTfIdf};
pub use tokenize::{bytes_contain_all, text_contains_all, tokenize, TokenCounts, TokenSet};
pub use vocab::{TermId, VocabCorrupt, Vocabulary};
