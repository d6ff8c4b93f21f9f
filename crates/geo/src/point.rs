//! `N`-dimensional points.

use std::fmt;

/// A point in `N`-dimensional Euclidean space.
///
/// In the paper's data model an object `T` is a pair `(T.p, T.t)` where
/// `T.p` is a location descriptor in multidimensional space; `Point` is that
/// location descriptor. Coordinates are `f64` and are expected to be finite.
#[derive(Clone, Copy, PartialEq)]
pub struct Point<const N: usize> {
    coords: [f64; N],
}

impl<const N: usize> Point<N> {
    /// Number of bytes a point occupies in the on-disk node layout.
    pub const ENCODED_LEN: usize = 8 * N;

    /// Creates a point from its coordinate array.
    pub const fn new(coords: [f64; N]) -> Self {
        Self { coords }
    }

    /// The origin (all coordinates zero).
    pub const fn origin() -> Self {
        Self { coords: [0.0; N] }
    }

    /// Coordinate along dimension `dim`.
    ///
    /// # Panics
    /// Panics if `dim >= N`.
    #[inline]
    pub fn coord(&self, dim: usize) -> f64 {
        self.coords[dim]
    }

    /// Borrow of the raw coordinate array.
    #[inline]
    pub fn coords(&self) -> &[f64; N] {
        &self.coords
    }

    /// Euclidean distance to `other` (the paper's `distance(T.p, Q.p)`);
    /// zero only for equal points (see the crate docs).
    #[inline]
    pub fn distance(&self, other: &Self) -> f64 {
        crate::norm::<N>(|d| self.coords[d] - other.coords[d])
    }

    /// True if every coordinate is finite (no NaN/inf).
    pub fn is_finite(&self) -> bool {
        self.coords.iter().all(|c| c.is_finite())
    }

    /// Serializes the point into `out` (little-endian f64 per dimension).
    ///
    /// # Panics
    /// Panics if `out.len() != Self::ENCODED_LEN`.
    pub fn encode(&self, out: &mut [u8]) {
        assert_eq!(out.len(), Self::ENCODED_LEN, "point buffer size mismatch");
        for (d, chunk) in out.chunks_exact_mut(8).enumerate() {
            chunk.copy_from_slice(&self.coords[d].to_le_bytes());
        }
    }

    /// Deserializes a point previously written by [`Point::encode`].
    ///
    /// # Panics
    /// Panics if `buf.len() != Self::ENCODED_LEN`.
    pub fn decode(buf: &[u8]) -> Self {
        assert_eq!(buf.len(), Self::ENCODED_LEN, "point buffer size mismatch");
        let mut coords = [0.0; N];
        for (d, chunk) in buf.chunks_exact(8).enumerate() {
            coords[d] = f64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
        }
        Self { coords }
    }
}

impl<const N: usize> From<[f64; N]> for Point<N> {
    fn from(coords: [f64; N]) -> Self {
        Self::new(coords)
    }
}

impl<const N: usize> fmt::Debug for Point<N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Point{:?}", self.coords)
    }
}

impl<const N: usize> fmt::Display for Point<N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, c) in self.coords.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{c}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_matches_paper_example() {
        // Example 2 of the paper: dist([30.5, 100.0], H7=[-33.2, -70.4]) = 181.9
        let q = Point::new([30.5, 100.0]);
        let h7 = Point::new([-33.2, -70.4]);
        assert!((q.distance(&h7) - 181.9).abs() < 0.05);
        // and dist to H2=[47.3, -122.2] = 222.8
        let h2 = Point::new([47.3, -122.2]);
        assert!((q.distance(&h2) - 222.8).abs() < 0.05);
    }

    #[test]
    fn distance_is_zero_to_self_and_symmetric() {
        let a = Point::new([1.5, -2.0, 7.25]);
        let b = Point::new([-3.0, 4.0, 0.5]);
        assert_eq!(a.distance(&a), 0.0);
        assert_eq!(a.distance(&b), b.distance(&a));
    }

    #[test]
    fn encode_decode_roundtrip() {
        let p = Point::new([1.0, -2.5, 3.75, f64::MIN_POSITIVE]);
        let mut buf = [0u8; 32];
        p.encode(&mut buf);
        assert_eq!(Point::<4>::decode(&buf), p);
    }

    #[test]
    #[should_panic(expected = "buffer size mismatch")]
    fn encode_rejects_wrong_buffer() {
        let p = Point::new([0.0, 0.0]);
        let mut buf = [0u8; 15];
        p.encode(&mut buf);
    }

    #[test]
    fn is_finite_detects_nan() {
        assert!(Point::new([0.0, 1.0]).is_finite());
        assert!(!Point::new([f64::NAN, 1.0]).is_finite());
        assert!(!Point::new([0.0, f64::INFINITY]).is_finite());
    }
}
