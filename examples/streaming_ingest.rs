//! Streaming ingest with a mid-stream snapshot: replay the report corpus
//! as a live feed through the sharded engine, render paper tables at the
//! halfway mark *without pausing ingestion*, then verify the end-of-stream
//! result equals the batch pipeline byte for byte.
//!
//! ```sh
//! cargo run --release --example streaming_ingest
//! ```

use smishing::core::analysis::categories::categories;
use smishing::core::exec::{ingest, Checkpoint};
use smishing::core::experiment::run_all;
use smishing::prelude::*;
use smishing::worldsim::ReportStream;

fn main() {
    let world = World::generate(WorldConfig {
        scale: 0.05,
        ..WorldConfig::default()
    });
    let half = world.posts.len() as u64 / 2;
    let plan = ExecPlan {
        curators: 2,
        shards: 4,
        ..ExecPlan::default()
    };
    println!(
        "=== Streaming {} posts through {} curators / {} shards, snapshot at {} ===\n",
        world.posts.len(),
        plan.curators,
        plan.shards,
        half
    );

    let mut checkpoint = None;
    let result = ingest(
        &world,
        ReportStream::replay(&world),
        &CurationOptions::default(),
        &plan.clone().with_snapshots(SnapshotPlan::at(&[half])),
        &Obs::noop(),
        |snap| {
            // The feed is still flowing while this runs: the snapshot is a
            // consistent cut assembled from per-worker state, not a pause.
            println!(
                "--- snapshot @ {} posts: {} curated / {} unique records ---",
                snap.at_posts,
                snap.output.curated_total.len(),
                snap.output.records.len()
            );
            let table = categories(&snap.output).to_table();
            println!("mid-stream scam-category mix (Table 10):\n{table}");
            checkpoint = Some(Checkpoint::capture(snap, &plan));
        },
    );

    println!(
        "end of stream: {} posts ingested, {} snapshot(s) taken",
        result.posts_ingested, result.snapshots_taken
    );

    // The checkpoint captured mid-stream persists through the serde
    // dataset layer — an interrupted run resumes from it (see
    // `smishing::core::exec::resume`).
    let cp = checkpoint.expect("snapshot fired");
    let json = cp.to_json().expect("serializes");
    println!(
        "checkpoint: {} dataset rows at post {} ({} bytes of JSON)\n",
        cp.dataset.len(),
        cp.posts_consumed,
        json.len()
    );

    // Determinism contract: the end-of-stream state equals the batch
    // pipeline exactly, table for table.
    let batch = Pipeline::default().run(&world, &Obs::noop());
    let batch_tables = run_all(&batch, &Obs::noop());
    let stream_tables = run_all(&result.output, &Obs::noop());
    assert_eq!(batch_tables.len(), stream_tables.len());
    for (b, s) in batch_tables.iter().zip(&stream_tables) {
        assert_eq!(
            b.table.to_string(),
            s.table.to_string(),
            "{} diverged",
            b.id
        );
    }
    println!(
        "verified: all {} experiment tables byte-identical to the batch pipeline",
        batch_tables.len()
    );
}
