//! Streaming triage over a live report feed (the `smishing-intel` demo).
//!
//! The first 60% of the report feed streams through the sharded engine;
//! every aligned snapshot republishes a fresh [`IntelSnapshot`] into an
//! epoch hub — the intelligence store grows *while it is being queried*.
//! The remaining 40% of reports play the role of tomorrow's incoming SMS
//! traffic: each raw message (text + sender) goes through [`Triage`],
//! which attributes it to a known campaign-link cluster via the exact
//! index, catches rotated-indicator near-duplicates through the SimHash
//! similarity tier, or falls back to the model score.
//!
//! The run ends with the ground-truth scorecard: full-stack triage
//! precision/recall next to the campaign-held-out model baseline it has
//! to beat.
//!
//! ```sh
//! cargo run --release --example triage_feed
//! ```

use smishing::core::exec::{ingest, SnapshotPlan};
use smishing::core::pipeline::Pipeline;
use smishing::core::runcfg::RunConfig;
use smishing::intel::{
    evaluate_triage, IntelHub, IntelSnapshot, Query, Triage, TriageVerdict, SMISHING_THRESHOLD,
};
use smishing::prelude::*;

fn main() {
    let seed = 7;
    let world = World::generate(WorldConfig {
        scale: 0.03,
        seed,
        ..WorldConfig::default()
    });
    let cfg = RunConfig::default();
    let obs = smishing::obs::Obs::noop();

    // Phase 1: stream the first 60% of reports, republishing the store at
    // every aligned snapshot.
    let cut = world.posts.len() * 6 / 10;
    let hub = IntelHub::new();
    let plan = cfg
        .exec
        .clone()
        .with_snapshots(SnapshotPlan::every((cut as u64 / 3).max(1)));
    println!(
        "=== Phase 1: ingest {cut} of {} reports, publishing live ===",
        world.posts.len()
    );
    let result = ingest(
        &world,
        world.posts.iter().take(cut).cloned(),
        &cfg.curation,
        &plan,
        &obs,
        |s| {
            let snap = IntelSnapshot::build(&s.output);
            let (entries, clusters) = (snap.len(), snap.cluster_count());
            let epoch = hub.publish(snap);
            println!(
                "  epoch {epoch}: {entries} entries / {clusters} clusters @ {} posts",
                s.at_posts
            );
        },
    );
    let final_snap = IntelSnapshot::build(&result.output);
    let epoch = hub.publish(final_snap);
    println!(
        "  epoch {epoch}: final store after {} posts",
        result.posts_ingested
    );

    // Phase 2: the reports we did NOT ingest stand in for tomorrow's
    // incoming traffic — triage each underlying raw SMS.
    let mut triage = Triage::new(hub.reader());
    let mut hits = 0usize;
    let mut near_hits = 0usize;
    let mut model_only = 0usize;
    let mut flagged = 0usize;
    let mut printed = 0usize;
    let incoming: Vec<&smishing::types::SmsMessage> = world.posts[cut..]
        .iter()
        .filter_map(|p| p.reported_message)
        .map(|mid| &world.messages[mid.0 as usize])
        .collect();
    println!(
        "\n=== Phase 2: triage {} incoming messages ===",
        incoming.len()
    );
    for msg in &incoming {
        let sender = msg.sender.display_string();
        let query = Query::Msg {
            sender: Some(&sender),
            text: &msg.text,
        };
        match triage.answer(&query, None).verdict {
            TriageVerdict::Hit(a) => {
                hits += 1;
                flagged += 1;
                if printed < 12 {
                    printed += 1;
                    println!(
                        "  [cluster {:>3} via {:<6}] {} ({} reports, {}) :: {}",
                        a.cluster,
                        a.matched.label(),
                        a.key,
                        a.n_reports,
                        a.scam_type.label(),
                        msg.text.chars().take(60).collect::<String>()
                    );
                }
            }
            TriageVerdict::Near(n) => {
                near_hits += 1;
                flagged += 1;
                if printed < 12 {
                    printed += 1;
                    println!(
                        "  [template {:>2} via near  ] hamming {} jaccard {:.2} ({} reports, {}) :: {}",
                        n.template,
                        n.hamming,
                        n.jaccard,
                        n.n_reports,
                        n.scam_type.label(),
                        msg.text.chars().take(60).collect::<String>()
                    );
                }
            }
            v @ TriageVerdict::ModelOnly { .. } => {
                model_only += 1;
                if v.is_smishing(SMISHING_THRESHOLD) {
                    flagged += 1;
                }
            }
            TriageVerdict::Unknown => model_only += 1,
        }
    }
    println!(
        "  attributed {hits} / {} to known clusters ({near_hits} via similarity); {model_only} model-scored; {flagged} flagged",
        incoming.len()
    );

    // Scorecard: full stack vs the campaign-held-out model baseline, on
    // ground truth the generator knows.
    let output = Pipeline::default().run(&world, &obs);
    let e = evaluate_triage(&world, &output, seed).expect("world large enough to split");
    println!("\n=== Scorecard (campaign-held-out, seed {seed}) ===");
    println!(
        "triage   : precision {:.3}  recall {:.3}  f1 {:.3}  ({} infra hits on {} smish + {} ham)",
        e.triage_precision, e.triage_recall, e.triage_f1, e.infra_hits, e.n_smish, e.n_ham
    );
    println!(
        "baseline : precision {:.3}  recall {:.3}  f1 {:.3}  (model only)",
        e.baseline_precision, e.baseline_recall, e.baseline_f1
    );
    println!("attribution accuracy: {:.3}", e.attribution_accuracy);
}
