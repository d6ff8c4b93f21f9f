//! Online yellow pages — the paper's motivating application.
//!
//! "Online yellow pages allow users to specify an address and a set of
//! keywords. In return, the user obtains a list of businesses whose
//! description contains these keywords, ordered by their distance from the
//! specified address." This example builds a city-scale synthetic business
//! directory and serves paginated keyword searches from it, using the
//! incremental distance-first iterator: page 2 continues where page 1
//! stopped, reading only the additional tree nodes it needs.
//!
//! Run with: `cargo run --release --example yellow_pages`

use ir2_datagen::DatasetSpec;
use ir2tree::irtree::DistanceFirstIter;
use ir2tree::model::DistanceFirstQuery;
use ir2tree::{Algorithm, DbConfig, DeviceSet, SpatialKeywordDb};

const PAGE_SIZE: usize = 5;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A 20k-business directory with Restaurants-like text statistics.
    let spec = DatasetSpec::restaurants().scaled(20_000.0 / 456_288.0);
    println!("Generating {} businesses…", spec.num_objects);
    let db = SpatialKeywordDb::build(
        DeviceSet::in_memory(),
        spec.generate(),
        DbConfig::restaurants(),
    )?;
    println!(
        "Built directory: {} businesses, {} distinct words, {:.1} MB of listings.\n",
        db.build_stats().objects,
        db.build_stats().unique_words,
        db.build_stats().object_file_bytes as f64 / 1_048_576.0
    );

    // A user at a downtown address searches for two fairly common terms
    // (frequency ranks 12 and 40 of the synthetic vocabulary).
    let keywords = [spec.keyword_of_rank(12), spec.keyword_of_rank(40)];
    let address = [40.7, -74.0];
    println!("Search near {address:?} for businesses mentioning {keywords:?}:\n");

    // Page through results incrementally: one iterator, resumed per page.
    let query = DistanceFirstQuery::new(address, &keywords, usize::MAX);
    let mut results = DistanceFirstIter::new(db.ir2_tree(), db.object_store(), query);
    for page in 1..=3 {
        println!("--- page {page} ---");
        let mut shown = 0;
        for hit in results.by_ref().take(PAGE_SIZE) {
            let (business, dist) = hit?;
            let preview: String = business.text.chars().take(40).collect();
            println!("  #{:<6} {:>7.2} away   {preview}…", business.id, dist);
            shown += 1;
        }
        if shown < PAGE_SIZE {
            println!("  (no more matches)");
            break;
        }
    }
    let counters = results.counters();
    println!(
        "\nServed 3 pages reading {} tree nodes; signatures pruned {} entries, \
         {} candidate(s) were false positives.",
        counters.nodes_read,
        counters.pruned_by_signature(),
        counters.false_positives
    );

    // Contrast: what the same first page costs each algorithm.
    println!("\nCost of the first page by algorithm:");
    let first_page = DistanceFirstQuery::new(address, &keywords, PAGE_SIZE);
    for alg in Algorithm::ALL {
        let rep = db.distance_first(alg, &first_page)?;
        println!(
            "  {:<10} {:>6} random + {:>6} sequential block accesses, {:>5} object loads, {:>8.1} ms simulated",
            alg.label(),
            rep.io.random(),
            rep.io.sequential(),
            rep.object_loads,
            rep.simulated.as_secs_f64() * 1e3,
        );
    }
    Ok(())
}
