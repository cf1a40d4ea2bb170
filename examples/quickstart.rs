//! Quickstart: generate a world, run the full measurement pipeline, and
//! print the headline tables.
//!
//! ```sh
//! cargo run --release --example quickstart [scale]
//! ```
//!
//! `scale` defaults to 0.05 (~5% of paper volume, a few seconds).

use smishing::core::analysis::{categories::categories, languages::languages, overview::overview};
use smishing::prelude::*;

fn main() {
    let scale: f64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.05);

    println!("Generating a deterministic smishing world (scale {scale})...");
    let world = World::generate(WorldConfig {
        scale,
        ..WorldConfig::default()
    });
    println!(
        "  {} campaigns, {} unique messages, {} forum posts\n",
        world.campaigns.len(),
        world.messages.len(),
        world.posts.len()
    );

    println!("Running the pipeline (collect -> curate -> enrich)...");
    let output = Pipeline::default().run(&world, &Obs::noop());
    println!(
        "  {} curated reports, {} unique enriched records\n",
        output.curated_total.len(),
        output.records.len()
    );

    // Every paper table is one function of the output.
    println!("{}", overview(&output).to_table());
    println!("{}", categories(&output).to_table());
    println!("{}", languages(&output).to_table());

    // A peek at three enriched records.
    println!("## Three sample records");
    for r in output.records.iter().take(3) {
        println!(
            "- [{}] {:?} | brand {:?} | lures {:?}\n    {}",
            r.curated.forum,
            r.annotation.scam_type,
            r.annotation.brand,
            r.annotation
                .lures
                .iter()
                .map(|l| l.label())
                .collect::<Vec<_>>(),
            r.curated.english.chars().take(100).collect::<String>()
        );
    }
}
