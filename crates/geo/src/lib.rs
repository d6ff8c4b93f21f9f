#![warn(missing_docs)]
//! Spatial primitives for the IR²-Tree reproduction.
//!
//! This crate provides the geometric vocabulary shared by every spatial
//! index in the workspace: [`Point`]s in `N`-dimensional Euclidean space,
//! axis-aligned [`Rect`]s (minimum bounding rectangles, MBRs), and the
//! distance measures the query algorithms rely on:
//!
//! * [`Point::distance`] — the Euclidean distance used to rank result
//!   objects (the paper's `distance(T.p, Q.p)`);
//! * [`Rect::min_dist`] — the classical MINDIST lower bound between a query
//!   point and an MBR, which makes the Hjaltason–Samet incremental
//!   nearest-neighbor traversal correct: no object inside an MBR can be
//!   closer to the query point than the MBR's MINDIST;
//! * [`Rect::min_dist_rect`] — the distance of an MBR from an *area* query.
//!
//! All three are one rule: the square root of Σ gap² over the dimensions,
//! and zero only when every gap is. A gap below ≈ 1.5e-154 squares to less
//! than the smallest normal `f64`, and under ≈ 1e-162 to zero, which would
//! put an object 1e-200 away at distance 0. So when Σ gap² is not a normal
//! number the gaps are summed again scaled by 2^600 (exact, and far from
//! both ends of the range for every such gap); wherever Σ gap² is normal
//! the result is its plain square root, bit for bit.
//!
//! Everything is generic over the compile-time dimensionality `N`. The
//! paper's running examples are two-dimensional (latitude/longitude treated
//! as plain Euclidean coordinates — its Example 2/3 distances, e.g.
//! `dist(H7, [30.5, 100.0]) = 181.9`, are Euclidean on raw degrees), but the
//! method "can be applied to arbitrarily-shaped and multi-dimensional
//! objects", and so can this implementation.
//!
//! # Total ordering of distances
//!
//! Distances are `f64`. Priority queues need a total order, so the crate
//! also exports [`OrderedF64`], a thin wrapper implementing `Ord` via IEEE
//! `total_cmp`. Query code never produces NaN distances (inputs are finite),
//! but the wrapper keeps the heap invariants sound even if it did.

mod ordered;
mod point;
mod rect;

pub use ordered::OrderedF64;
pub use point::Point;
pub use rect::Rect;

/// The Euclidean norm of the gaps `gap(0)`, …, `gap(N − 1)`: the crate's
/// one distance rule (see the crate docs).
#[inline]
fn norm<const N: usize>(gap: impl Fn(usize) -> f64) -> f64 {
    let mut acc = 0.0;
    for d in 0..N {
        let g = gap(d);
        acc += g * g;
    }
    if acc >= f64::MIN_POSITIVE {
        return acc.sqrt();
    }
    const SCALE: f64 = f64::from_bits((1023 + 600) << 52);
    let mut scaled = 0.0;
    for d in 0..N {
        let g = gap(d) * SCALE;
        scaled += g * g;
    }
    scaled.sqrt() / SCALE
}
