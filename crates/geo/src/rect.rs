//! Axis-aligned rectangles (minimum bounding rectangles).

use std::fmt;

use crate::Point;

/// An axis-aligned hyper-rectangle in `N` dimensions, i.e. a minimum
/// bounding rectangle (MBR) as stored in every R-Tree / IR²-Tree entry.
///
/// Following the paper ("an MBR is represented by its southwest and its
/// northeast points"), a rectangle is stored as its component-wise minimum
/// corner `lo` and maximum corner `hi`, with `lo[d] <= hi[d]` for every
/// dimension `d`. Degenerate rectangles (`lo == hi`) represent points.
#[derive(Clone, Copy, PartialEq)]
pub struct Rect<const N: usize> {
    lo: Point<N>,
    hi: Point<N>,
}

impl<const N: usize> Rect<N> {
    /// Number of bytes a rectangle occupies in the on-disk node layout.
    pub const ENCODED_LEN: usize = 2 * Point::<N>::ENCODED_LEN;

    /// Creates a rectangle from its min and max corners.
    ///
    /// # Panics
    /// Panics if `lo[d] > hi[d]` for some dimension (in debug builds).
    pub fn new(lo: Point<N>, hi: Point<N>) -> Self {
        debug_assert!(
            (0..N).all(|d| lo.coord(d) <= hi.coord(d)),
            "invalid MBR: lo {lo:?} exceeds hi {hi:?}"
        );
        Self { lo, hi }
    }

    /// Creates the rectangle spanning exactly two (unordered) corner points.
    pub fn from_corners(a: Point<N>, b: Point<N>) -> Self {
        let mut lo = [0.0; N];
        let mut hi = [0.0; N];
        for d in 0..N {
            lo[d] = a.coord(d).min(b.coord(d));
            hi[d] = a.coord(d).max(b.coord(d));
        }
        Self::new(Point::new(lo), Point::new(hi))
    }

    /// The degenerate rectangle containing exactly `p`.
    pub fn from_point(p: Point<N>) -> Self {
        Self { lo: p, hi: p }
    }

    /// Minimum corner.
    #[inline]
    pub fn lo(&self) -> &Point<N> {
        &self.lo
    }

    /// Maximum corner.
    #[inline]
    pub fn hi(&self) -> &Point<N> {
        &self.hi
    }

    /// Center point of the rectangle.
    pub fn center(&self) -> Point<N> {
        let mut c = [0.0; N];
        for (d, slot) in c.iter_mut().enumerate() {
            *slot = 0.5 * (self.lo.coord(d) + self.hi.coord(d));
        }
        Point::new(c)
    }

    /// Hyper-volume (area in 2-D). Zero for degenerate rectangles.
    pub fn area(&self) -> f64 {
        let mut a = 1.0;
        for d in 0..N {
            a *= self.hi.coord(d) - self.lo.coord(d);
        }
        a
    }

    /// Sum of edge lengths ("margin"); used as a split tie-breaker.
    pub fn margin(&self) -> f64 {
        (0..N).map(|d| self.hi.coord(d) - self.lo.coord(d)).sum()
    }

    /// The smallest rectangle containing both `self` and `other`.
    pub fn union(&self, other: &Self) -> Self {
        let mut lo = [0.0; N];
        let mut hi = [0.0; N];
        for d in 0..N {
            lo[d] = self.lo.coord(d).min(other.lo.coord(d));
            hi[d] = self.hi.coord(d).max(other.hi.coord(d));
        }
        Self::new(Point::new(lo), Point::new(hi))
    }

    /// Grows `self` in place to contain `other`.
    pub fn union_in_place(&mut self, other: &Self) {
        *self = self.union(other);
    }

    /// Area increase required for `self` to contain `other` — Guttman's
    /// ChooseLeaf criterion ("least enlargement").
    pub fn enlargement(&self, other: &Self) -> f64 {
        self.union(other).area() - self.area()
    }

    /// True if the rectangles share at least one point (closed intervals).
    pub fn intersects(&self, other: &Self) -> bool {
        (0..N)
            .all(|d| self.lo.coord(d) <= other.hi.coord(d) && other.lo.coord(d) <= self.hi.coord(d))
    }

    /// True if `other` lies entirely inside `self` (closed intervals).
    pub fn contains(&self, other: &Self) -> bool {
        (0..N)
            .all(|d| self.lo.coord(d) <= other.lo.coord(d) && other.hi.coord(d) <= self.hi.coord(d))
    }

    /// True if the point lies inside `self` (closed intervals).
    pub fn contains_point(&self, p: &Point<N>) -> bool {
        (0..N).all(|d| self.lo.coord(d) <= p.coord(d) && p.coord(d) <= self.hi.coord(d))
    }

    /// MINDIST: the minimum Euclidean distance from `p` to any point of the
    /// rectangle (zero exactly when `p` is inside). This is the `Dist(p,
    /// MBR)` of the paper's Figure 3 and the lower bound that makes
    /// best-first traversal produce neighbors in true distance order.
    #[inline]
    pub fn min_dist(&self, p: &Point<N>) -> f64 {
        crate::norm::<N>(|d| {
            let c = p.coord(d);
            let lo = self.lo.coord(d);
            let hi = self.hi.coord(d);
            if c < lo {
                lo - c
            } else if c > hi {
                c - hi
            } else {
                0.0
            }
        })
    }

    /// Minimum Euclidean distance between this rectangle and `other`
    /// (zero exactly when they intersect) — the `Dist` of an *area* query,
    /// which the paper permits in place of the query point.
    pub fn min_dist_rect(&self, other: &Self) -> f64 {
        crate::norm::<N>(|d| {
            (self.lo.coord(d) - other.hi.coord(d))
                .max(other.lo.coord(d) - self.hi.coord(d))
                .max(0.0)
        })
    }

    /// MAXDIST: the maximum Euclidean distance from `p` to any point of the
    /// rectangle. Useful for upper bounds in ranked queries.
    pub fn max_dist(&self, p: &Point<N>) -> f64 {
        let mut acc = 0.0;
        for d in 0..N {
            let c = p.coord(d);
            let far = (c - self.lo.coord(d))
                .abs()
                .max((c - self.hi.coord(d)).abs());
            acc += far * far;
        }
        acc.sqrt()
    }

    /// True if all corners are finite.
    pub fn is_finite(&self) -> bool {
        self.lo.is_finite() && self.hi.is_finite()
    }

    /// Serializes the rectangle into `out` (lo then hi).
    ///
    /// # Panics
    /// Panics if `out.len() != Self::ENCODED_LEN`.
    pub fn encode(&self, out: &mut [u8]) {
        assert_eq!(out.len(), Self::ENCODED_LEN, "rect buffer size mismatch");
        let half = Point::<N>::ENCODED_LEN;
        self.lo.encode(&mut out[..half]);
        self.hi.encode(&mut out[half..]);
    }

    /// Deserializes a rectangle previously written by [`Rect::encode`].
    ///
    /// # Panics
    /// Panics if `buf.len() != Self::ENCODED_LEN`.
    pub fn decode(buf: &[u8]) -> Self {
        assert_eq!(buf.len(), Self::ENCODED_LEN, "rect buffer size mismatch");
        let half = Point::<N>::ENCODED_LEN;
        Self {
            lo: Point::decode(&buf[..half]),
            hi: Point::decode(&buf[half..]),
        }
    }
}

impl<const N: usize> fmt::Debug for Rect<N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Rect[{:?} .. {:?}]", self.lo, self.hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(lo: [f64; 2], hi: [f64; 2]) -> Rect<2> {
        Rect::new(Point::new(lo), Point::new(hi))
    }

    #[test]
    fn union_contains_both() {
        let a = r([0.0, 0.0], [1.0, 1.0]);
        let b = r([2.0, -1.0], [3.0, 0.5]);
        let u = a.union(&b);
        assert!(u.contains(&a));
        assert!(u.contains(&b));
        assert_eq!(u, r([0.0, -1.0], [3.0, 1.0]));
    }

    #[test]
    fn area_and_margin() {
        let a = r([0.0, 0.0], [2.0, 3.0]);
        assert_eq!(a.area(), 6.0);
        assert_eq!(a.margin(), 5.0);
        assert_eq!(Rect::from_point(Point::new([1.0, 1.0])).area(), 0.0);
    }

    #[test]
    fn enlargement_is_zero_when_contained() {
        let a = r([0.0, 0.0], [10.0, 10.0]);
        let b = r([1.0, 1.0], [2.0, 2.0]);
        assert_eq!(a.enlargement(&b), 0.0);
        assert!(b.enlargement(&a) > 0.0);
    }

    #[test]
    fn min_dist_inside_is_zero() {
        let a = r([0.0, 0.0], [4.0, 4.0]);
        assert_eq!(a.min_dist(&Point::new([2.0, 2.0])), 0.0);
        assert_eq!(a.min_dist(&Point::new([4.0, 4.0])), 0.0); // boundary
    }

    #[test]
    fn min_dist_outside_matches_geometry() {
        let a = r([0.0, 0.0], [4.0, 4.0]);
        // point to the right: distance along x only
        assert_eq!(a.min_dist(&Point::new([7.0, 2.0])), 3.0);
        // diagonal corner: 3-4-5 triangle
        assert_eq!(a.min_dist(&Point::new([7.0, 8.0])), 5.0);
    }

    /// A gap whose square underflows still gives a positive distance, the
    /// one a scaled computation gives, and a normal sum is left as it was.
    #[test]
    fn a_tiny_gap_is_not_distance_zero() {
        let window = r([-1.0, -1.0], [0.0, 0.0]);
        let point = |x: f64, y: f64| Rect::from_point(Point::new([x, y]));
        assert_eq!(window.min_dist_rect(&point(1e-200, -0.5)), 1e-200);
        assert!(!window.intersects(&point(1e-200, -0.5)));
        assert_eq!(window.min_dist_rect(&point(5e-324, -0.5)), 5e-324);
        let two = window.min_dist_rect(&point(3e-170, 4e-170));
        assert!((two / 5e-170 - 1.0).abs() < 1e-15, "{two}");
        assert_eq!(window.min_dist_rect(&point(0.0, -0.5)), 0.0);
        assert_eq!(window.min_dist_rect(&point(3.0, 4.0)), 5.0);
        let normal = window.min_dist_rect(&point(1e-150, 2e-150));
        assert_eq!(normal, (1e-150f64 * 1e-150 + 2e-150 * 2e-150).sqrt());

        // The same rule for a point: its MINDIST and its distance to a point.
        let p = |x: f64, y: f64| Point::new([x, y]);
        let origin = p(0.0, 0.0);
        assert_eq!(window.min_dist(&p(1e-200, -0.5)), 1e-200);
        assert_eq!(window.min_dist(&p(5e-324, -0.5)), 5e-324);
        assert_eq!(window.min_dist(&p(0.0, -0.5)), 0.0);
        assert_eq!(window.min_dist(&p(3.0, 4.0)), 5.0);
        assert_eq!(origin.distance(&p(1e-200, 0.0)), 1e-200);
        assert_eq!(origin.distance(&p(0.0, -5e-324)), 5e-324);
        let two = origin.distance(&p(3e-170, 4e-170));
        assert!((two / 5e-170 - 1.0).abs() < 1e-15, "{two}");
        assert_eq!(origin.distance(&origin), 0.0);
        assert_eq!(origin.distance(&p(3.0, 4.0)), 5.0);
        let normal = origin.distance(&p(1e-150, 2e-150));
        assert_eq!(normal, (1e-150f64 * 1e-150 + 2e-150 * 2e-150).sqrt());
        assert_eq!(window.min_dist(&p(1e-150, 2e-150)), normal);
    }

    #[test]
    fn max_dist_bounds_min_dist() {
        let a = r([0.0, 0.0], [4.0, 4.0]);
        let p = Point::new([5.0, 5.0]);
        assert!(a.max_dist(&p) >= a.min_dist(&p));
        // farthest corner from (5,5) is (0,0): sqrt(50)
        assert!((a.max_dist(&p) - 50f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn intersects_and_contains() {
        let a = r([0.0, 0.0], [4.0, 4.0]);
        let b = r([4.0, 4.0], [5.0, 5.0]); // touching corner counts
        let c = r([4.1, 4.1], [5.0, 5.0]);
        assert!(a.intersects(&b));
        assert!(!a.intersects(&c));
        assert!(a.contains(&r([1.0, 1.0], [2.0, 2.0])));
        assert!(!a.contains(&b));
        assert!(a.contains_point(&Point::new([0.0, 4.0])));
    }

    #[test]
    fn from_corners_orders_coordinates() {
        let rect = Rect::from_corners(Point::new([3.0, -1.0]), Point::new([1.0, 2.0]));
        assert_eq!(rect, r([1.0, -1.0], [3.0, 2.0]));
    }

    #[test]
    fn encode_decode_roundtrip() {
        let a = r([-1.25, 0.5], [3.5, 7.0]);
        let mut buf = [0u8; Rect::<2>::ENCODED_LEN];
        a.encode(&mut buf);
        assert_eq!(Rect::<2>::decode(&buf), a);
    }

    #[test]
    fn works_in_three_dimensions() {
        let a = Rect::new(Point::new([0.0, 0.0, 0.0]), Point::new([1.0, 1.0, 1.0]));
        assert_eq!(a.area(), 1.0);
        assert_eq!(a.min_dist(&Point::new([1.0, 1.0, 2.0])), 1.0);
    }
}
