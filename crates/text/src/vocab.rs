//! Vocabulary: term ids and document frequencies.

use std::collections::HashMap;

/// Dense identifier of a term in a [`Vocabulary`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TermId(pub u32);

/// Structural corruption found while decoding a serialized vocabulary:
/// where decoding stopped and which field was malformed or missing there.
///
/// The crate has no storage dependency, so this is a local error type;
/// database-level callers fold it into their corruption taxonomy (e.g.
/// `StorageError::Corrupt`) with the offset preserved in the message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VocabCorrupt {
    /// Byte offset at which the malformed or missing field starts.
    pub offset: usize,
    /// The field being decoded when the damage was found.
    pub field: &'static str,
}

impl std::fmt::Display for VocabCorrupt {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "vocabulary corrupt at byte {}: {}",
            self.offset, self.field
        )
    }
}

impl std::error::Error for VocabCorrupt {}

/// A corpus vocabulary: term ↔ id mapping plus the per-term document
/// frequencies and corpus size that idf weighting needs.
///
/// Built once while scanning the object file (each object's *distinct*
/// tokens increment `df`), then shared read-only by the inverted index and
/// the tf-idf scorer.
#[derive(Debug, Default, Clone)]
pub struct Vocabulary {
    ids: HashMap<String, TermId>,
    names: Vec<String>,
    df: Vec<u32>,
    num_docs: u64,
}

impl Vocabulary {
    /// An empty vocabulary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers one document given its *distinct* terms, interning new
    /// terms and bumping document frequencies. Returns the terms' ids, in
    /// the order given — what a caller would otherwise look up again.
    pub fn add_document<'a>(
        &mut self,
        distinct_terms: impl IntoIterator<Item = &'a str>,
    ) -> Vec<TermId> {
        self.num_docs += 1;
        distinct_terms
            .into_iter()
            .map(|term| {
                let id = self.intern(term);
                self.df[id.0 as usize] += 1;
                id
            })
            .collect()
    }

    /// Interns `term`, returning its id (existing or fresh with df = 0).
    pub fn intern(&mut self, term: &str) -> TermId {
        if let Some(&id) = self.ids.get(term) {
            return id;
        }
        let id = TermId(self.names.len() as u32);
        self.ids.insert(term.to_owned(), id);
        self.names.push(term.to_owned());
        self.df.push(0);
        id
    }

    /// Looks up a term (must be lower-cased). `None` means the term occurs
    /// nowhere in the corpus — for a conjunctive query, an empty result.
    pub fn term_id(&self, term: &str) -> Option<TermId> {
        self.ids.get(term).copied()
    }

    /// The term string for an id.
    ///
    /// # Panics
    /// Panics if `id` is not from this vocabulary.
    pub fn name(&self, id: TermId) -> &str {
        &self.names[id.0 as usize]
    }

    /// Document frequency of a term.
    ///
    /// # Panics
    /// Panics if `id` is not from this vocabulary.
    pub fn df(&self, id: TermId) -> u32 {
        self.df[id.0 as usize]
    }

    /// Inverse document frequency: `ln(1 + N/df)`.
    ///
    /// This is the standard smoothed idf \[Sin01\]; for a term with df = 0
    /// (interned but never in a document) it degenerates gracefully to the
    /// maximum weight `ln(1 + N)`.
    pub fn idf(&self, id: TermId) -> f64 {
        let df = self.df(id).max(1) as f64;
        (1.0 + self.num_docs as f64 / df).ln()
    }

    /// Number of distinct terms.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True if no terms are interned.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Number of documents registered.
    pub fn num_docs(&self) -> u64 {
        self.num_docs
    }

    /// Iterates `(TermId, term, df)` in id order.
    pub fn iter(&self) -> impl Iterator<Item = (TermId, &str, u32)> {
        self.names
            .iter()
            .enumerate()
            .map(|(i, n)| (TermId(i as u32), n.as_str(), self.df[i]))
    }

    /// Serializes the vocabulary (used by the database superblock so a
    /// persisted database reopens with identical term ids).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16 + self.names.len() * 12);
        out.extend_from_slice(&self.num_docs.to_le_bytes());
        out.extend_from_slice(&(self.names.len() as u32).to_le_bytes());
        for (i, name) in self.names.iter().enumerate() {
            out.extend_from_slice(&(name.len() as u16).to_le_bytes());
            out.extend_from_slice(name.as_bytes());
            out.extend_from_slice(&self.df[i].to_le_bytes());
        }
        out
    }

    /// Deserializes a vocabulary written by [`Vocabulary::encode`].
    ///
    /// Any structural corruption — truncation, invalid UTF-8 in a term,
    /// trailing bytes after the last record — is reported as a
    /// [`VocabCorrupt`] naming the byte offset, so integrity checkers can
    /// say *where* the damage is instead of a bare "didn't parse".
    pub fn decode(buf: &[u8]) -> Result<Self, VocabCorrupt> {
        let mut pos = 0usize;
        let take =
            |pos: &mut usize, n: usize, field: &'static str| -> Result<&[u8], VocabCorrupt> {
                let s = buf.get(*pos..*pos + n).ok_or(VocabCorrupt {
                    offset: *pos,
                    field,
                })?;
                *pos += n;
                Ok(s)
            };
        let num_docs = u64::from_le_bytes(
            take(&mut pos, 8, "num_docs (u64)")?
                .try_into()
                .expect("8 bytes"),
        );
        let count = u32::from_le_bytes(
            take(&mut pos, 4, "term count (u32)")?
                .try_into()
                .expect("4 bytes"),
        ) as usize;
        // A corrupt count could be huge; cap pre-allocation by what the
        // remaining bytes could possibly hold (≥ 6 bytes per term record).
        let plausible = count.min(buf.len().saturating_sub(pos) / 6);
        let mut vocab = Vocabulary {
            ids: HashMap::with_capacity(plausible),
            names: Vec::with_capacity(plausible),
            df: Vec::with_capacity(plausible),
            num_docs,
        };
        for i in 0..count {
            let len = u16::from_le_bytes(
                take(&mut pos, 2, "term length (u16)")?
                    .try_into()
                    .expect("2 bytes"),
            ) as usize;
            let start = pos;
            let name = std::str::from_utf8(take(&mut pos, len, "term bytes")?)
                .map_err(|e| VocabCorrupt {
                    offset: start + e.valid_up_to(),
                    field: "term bytes (invalid UTF-8)",
                })?
                .to_owned();
            let df = u32::from_le_bytes(
                take(&mut pos, 4, "document frequency (u32)")?
                    .try_into()
                    .expect("4 bytes"),
            );
            vocab.ids.insert(name.clone(), TermId(i as u32));
            vocab.names.push(name);
            vocab.df.push(df);
        }
        if pos != buf.len() {
            return Err(VocabCorrupt {
                offset: pos,
                field: "trailing bytes after last term record",
            });
        }
        Ok(vocab)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vocabulary {
        let mut v = Vocabulary::new();
        v.add_document(["internet", "pool", "spa"]);
        v.add_document(["pool", "pets"]);
        v.add_document(["pool"]);
        v
    }

    #[test]
    fn df_counts_documents_not_occurrences() {
        let v = sample();
        assert_eq!(v.num_docs(), 3);
        assert_eq!(v.df(v.term_id("pool").unwrap()), 3);
        assert_eq!(v.df(v.term_id("internet").unwrap()), 1);
        assert_eq!(v.term_id("sauna"), None);
        assert_eq!(v.len(), 4);
    }

    #[test]
    fn rarer_terms_weigh_more() {
        let v = sample();
        let idf_pool = v.idf(v.term_id("pool").unwrap());
        let idf_internet = v.idf(v.term_id("internet").unwrap());
        assert!(idf_internet > idf_pool);
        assert!(idf_pool > 0.0);
    }

    #[test]
    fn intern_is_idempotent() {
        let mut v = Vocabulary::new();
        let a = v.intern("pool");
        let b = v.intern("pool");
        assert_eq!(a, b);
        assert_eq!(v.len(), 1);
        assert_eq!(v.name(a), "pool");
    }

    #[test]
    fn encode_decode_roundtrip() {
        let v = sample();
        let bytes = v.encode();
        let back = Vocabulary::decode(&bytes).unwrap();
        assert_eq!(back.num_docs(), v.num_docs());
        assert_eq!(back.len(), v.len());
        for (id, name, df) in v.iter() {
            assert_eq!(back.term_id(name), Some(id));
            assert_eq!(back.df(id), df);
        }
    }

    #[test]
    fn decode_rejects_truncated_input_with_offset() {
        let v = sample();
        let bytes = v.encode();
        // Cutting into the last term's df field reports that offset.
        let err = Vocabulary::decode(&bytes[..bytes.len() - 3]).unwrap_err();
        assert_eq!(err.offset, bytes.len() - 4);
        assert_eq!(err.field, "document frequency (u32)");
        // A buffer too short for even the header names the header field.
        let err = Vocabulary::decode(&[1, 2, 3]).unwrap_err();
        assert_eq!(err.offset, 0);
        assert_eq!(err.field, "num_docs (u64)");
    }

    #[test]
    fn decode_rejects_invalid_utf8_and_trailing_bytes() {
        let v = sample();
        let mut bytes = v.encode();
        // Corrupt the first term's first byte into a lone continuation byte.
        let first_name_at = 8 + 4 + 2;
        bytes[first_name_at] = 0xFF;
        let err = Vocabulary::decode(&bytes).unwrap_err();
        assert_eq!(err.offset, first_name_at);
        assert!(err.field.contains("UTF-8"), "got {err}");
        // Extra bytes after the final record are damage, not padding.
        let mut bytes = v.encode();
        let clean_len = bytes.len();
        bytes.push(0);
        let err = Vocabulary::decode(&bytes).unwrap_err();
        assert_eq!(err.offset, clean_len);
        assert!(err.field.contains("trailing"), "got {err}");
        assert!(err.to_string().contains(&clean_len.to_string()));
    }
}
