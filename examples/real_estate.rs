//! Real-estate search — the paper's second motivating application, using
//! the *general* (ranked) top-k spatial keyword query of Section 5.3.
//!
//! "Real estate web sites allow users to search for properties with
//! specific keywords in their description and rank them according to their
//! distance from a specified location." Unlike the distance-first query,
//! keywords here are preferences, not filters: a listing matching two of
//! three keywords slightly farther away can beat a one-keyword match next
//! door. Results are ranked by `f(distance, IRscore)` and the example
//! contrasts two ranking functions.
//!
//! Run with: `cargo run --release --example real_estate`

use ir2tree::geo::Point;
use ir2tree::model::SpatialObject;
use ir2tree::text::{DecayRank, IrScorer, LinearRank, RankingFn, SaturatingTfIdf};
use ir2tree::{Algorithm, DbConfig, DeviceSet, SpatialKeywordDb, TopkRequest};

fn listings() -> Vec<SpatialObject<2>> {
    let features = [
        "garden garage renovated kitchen",
        "pool garden view balcony",
        "downtown loft exposed brick",
        "garage workshop basement",
        "renovated pool sauna garden",
        "cottage fireplace garden quiet",
        "penthouse view terrace pool",
        "bungalow garage solar panels",
        "studio compact renovated",
        "villa pool tennis garden sauna",
    ];
    (0..400u64)
        .map(|i| {
            let x = (i % 20) as f64 * 0.7;
            let y = (i / 20) as f64 * 0.7;
            SpatialObject::new(i, [x, y], features[(i as usize * 7) % features.len()])
        })
        .collect()
}

fn show(
    db: &SpatialKeywordDb<ir2tree::storage::MemDevice>,
    name: &str,
    rank: impl RankingFn + 'static,
    query: &TopkRequest,
) -> Result<(), Box<dyn std::error::Error>> {
    let report = db.run(&query.clone().ranked(SaturatingTfIdf, rank))?;
    let terms: Vec<_> = query
        .keywords
        .iter()
        .filter_map(|w| db.vocab().term_id(w))
        .collect();
    println!("Ranking with {name}:");
    for (listing, score) in &report.results {
        let distance = listing.point.distance(&Point::new([5.0, 5.0]));
        let relevance = SaturatingTfIdf.score(db.vocab(), &terms, &listing.token_counts());
        println!(
            "  listing #{:<4} score {score:>6.3}  (distance {distance:>5.2}, relevance {relevance:>5.2})  {}",
            listing.id, listing.text
        );
    }
    println!(
        "  [{} random + {} sequential block accesses, {} listings inspected]\n",
        report.io.random(),
        report.io.sequential(),
        report.object_loads
    );
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let db = SpatialKeywordDb::build(
        DeviceSet::in_memory(),
        listings(),
        DbConfig {
            capacity: Some(16),
            sig_bytes: 8,
            ..DbConfig::default()
        },
    )?;
    println!("Indexed {} property listings.\n", db.build_stats().objects);

    // A buyer at (5.0, 5.0) wants a garden, a pool, and a garage — rarely
    // all in one listing.
    let query = TopkRequest::new(Algorithm::Ir2, [5.0, 5.0], &["garden", "pool", "garage"], 5);
    println!(
        "Buyer at [5.0, 5.0], preferences {:?}, top-{}:\n",
        query.keywords, query.k
    );

    // A linear trade-off: one relevance point is worth 10 distance units.
    show(
        &db,
        "LinearRank (relevance − 0.1·distance)",
        LinearRank {
            ir_weight: 1.0,
            dist_weight: 0.1,
        },
        &query,
    )?;

    // A decay ranking: relevance halves every 3 distance units.
    show(
        &db,
        "DecayRank (relevance / (1 + distance/3))",
        DecayRank { scale: 3.0 },
        &query,
    )?;

    println!("Note how DecayRank favors nearby partial matches while LinearRank");
    println!("reaches farther for listings matching more preferences.");
    Ok(())
}
