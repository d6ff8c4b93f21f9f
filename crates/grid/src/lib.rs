#![warn(missing_docs)]
//! Grid-based spatio-textual index — the related-work baseline.
//!
//! The paper's related-work section discusses Vaid et al. \[VJJS05\], who
//! answer spatial keyword queries with "a grid-based distribution of the
//! spatial objects" combined with a text index, and contrasts that family
//! with the IR²-Tree's single integrated structure. This crate implements
//! that style of index so the contrast is measurable (ablation A4 in
//! `DESIGN.md`):
//!
//! * the plane is cut into a uniform `G × G` grid over the data's bounding
//!   box; each occupied cell stores its objects (pointer + location) in
//!   one disk record;
//! * each cell additionally carries a **signature** superimposing its
//!   objects' terms — the same superimposed coding the IR²-Tree uses, so
//!   the comparison isolates the *structure* (adaptive hierarchy vs flat
//!   grid), not the filter;
//! * a top-k query expands outward from the query point cell ring by
//!   ring, skipping cells whose signature lacks the query keywords,
//!   verifying candidates against their text, and stopping once the next
//!   ring cannot contain anything closer than the current k-th result.
//!
//! The known weakness this exposes (and the reason the paper's tree
//! wins): a uniform grid cannot adapt to skew — city-center cells
//! overflow while rural cells sit empty, and cell signatures over big
//! cells saturate.

mod index;

pub use index::{GridConfig, GridIndex, GridQueryCounters};
