//! The spatial object: a point plus a text document.

use ir2_geo::Point;
use ir2_storage::{Result, StorageError};
use ir2_text::{bytes_contain_all, text_contains_all, TokenCounts, TokenSet};

/// A spatial object `T = (T.p, T.t)` with an application-level id.
///
/// In the paper's running example (Figure 1), `T.p` is the
/// latitude/longitude point and `T.t` "the concatenation of the name and
/// amenities attributes".
#[derive(Debug, Clone, PartialEq)]
pub struct SpatialObject<const N: usize> {
    /// Application identifier (e.g. the row number of Figure 1).
    pub id: u64,
    /// `T.p`: the location descriptor.
    pub point: Point<N>,
    /// `T.t`: the text document.
    pub text: String,
}

impl<const N: usize> SpatialObject<N> {
    /// Creates an object.
    pub fn new(id: u64, point: impl Into<Point<N>>, text: impl Into<String>) -> Self {
        Self {
            id,
            point: point.into(),
            text: text.into(),
        }
    }

    /// The object's distinct-token set (for conjunctive keyword checks).
    pub fn token_set(&self) -> TokenSet {
        TokenSet::from_text(&self.text)
    }

    /// The conjunctive keyword check `∀w ∈ keywords : w ∈ T.t`, without
    /// building the token set ([`text_contains_all`]; `keywords` must be
    /// lower-cased, as a query's are).
    pub fn contains_all<S: AsRef<str>>(&self, keywords: &[S]) -> bool {
        text_contains_all(&self.text, keywords)
    }

    /// The object's token counts (for IR scoring).
    pub fn token_counts(&self) -> TokenCounts {
        TokenCounts::from_text(&self.text)
    }

    /// Serializes the object for the record file:
    /// `id (8) | point (8N) | text (utf-8, rest of record)`.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(8 + Point::<N>::ENCODED_LEN + self.text.len());
        out.extend_from_slice(&self.id.to_le_bytes());
        let mut pbuf = vec![0u8; Point::<N>::ENCODED_LEN];
        self.point.encode(&mut pbuf);
        out.extend_from_slice(&pbuf);
        out.extend_from_slice(self.text.as_bytes());
        out
    }

    /// Deserializes an object written by [`SpatialObject::encode`].
    pub fn decode(buf: &[u8]) -> Result<Self> {
        let point_len = Point::<N>::ENCODED_LEN;
        if buf.len() < 8 + point_len {
            return Err(StorageError::Corrupt(format!(
                "object record too short: {} bytes",
                buf.len()
            )));
        }
        let id = u64::from_le_bytes(buf[..8].try_into().expect("8 bytes"));
        let point = Point::decode(&buf[8..8 + point_len]);
        let text = std::str::from_utf8(&buf[8 + point_len..])
            .map_err(text_not_utf8)?
            .to_owned();
        Ok(Self { id, point, text })
    }

    /// [`decode`](Self::decode) for a candidate that is kept only if its
    /// text contains all `keywords` (lower-cased, as a query's are): the
    /// check runs on the record's bytes ([`bytes_contain_all`]) and the
    /// object is built only on a match, so a signature false positive costs
    /// no `String`. `Ok(None)` is exactly `decode` succeeding and
    /// [`contains_all`](Self::contains_all) saying no; a record `decode`
    /// would refuse is refused here with the same error, match or not.
    pub fn decode_if_contains_all<S: AsRef<str>>(
        buf: &[u8],
        keywords: &[S],
    ) -> Result<Option<Self>> {
        match buf.get(8 + Point::<N>::ENCODED_LEN..) {
            Some(text) if !bytes_contain_all(text, keywords).map_err(text_not_utf8)? => Ok(None),
            // A match — or a record too short to have text, for `decode`
            // to refuse.
            _ => Self::decode(buf).map(Some),
        }
    }
}

fn text_not_utf8(e: std::str::Utf8Error) -> StorageError {
    StorageError::Corrupt(format!("object text not utf-8: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_roundtrip() {
        let obj = SpatialObject::<2>::new(7, [30.5, -100.25], "Internet, pool, spa");
        let bytes = obj.encode();
        assert_eq!(SpatialObject::<2>::decode(&bytes).unwrap(), obj);
    }

    #[test]
    fn roundtrip_with_empty_text_and_unicode() {
        let empty = SpatialObject::<2>::new(1, [0.0, 0.0], "");
        assert_eq!(SpatialObject::<2>::decode(&empty.encode()).unwrap(), empty);
        let uni = SpatialObject::<2>::new(2, [1.0, 2.0], "café – 24h ✓");
        assert_eq!(SpatialObject::<2>::decode(&uni.encode()).unwrap(), uni);
    }

    #[test]
    fn decode_rejects_short_and_invalid() {
        assert!(SpatialObject::<2>::decode(&[0u8; 5]).is_err());
        let mut bytes = SpatialObject::<2>::new(1, [0.0, 0.0], "ok").encode();
        bytes.push(0xFF); // invalid utf-8 continuation
        assert!(SpatialObject::<2>::decode(&bytes).is_err());
    }

    #[test]
    fn three_dimensional_objects_roundtrip() {
        let obj = SpatialObject::<3>::new(9, [1.0, 2.0, 3.0], "warehouse drone dock");
        assert_eq!(SpatialObject::<3>::decode(&obj.encode()).unwrap(), obj);
    }

    #[test]
    fn token_helpers_agree_with_text() {
        let obj = SpatialObject::<2>::new(1, [0.0, 0.0], "Pool pool SPA");
        assert!(obj.token_set().contains_all(&["pool", "spa"]));
        assert_eq!(obj.token_counts().tf("pool"), 2);
    }
}
