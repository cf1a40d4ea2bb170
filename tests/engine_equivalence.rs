//! The unified-engine contract: batch runs routed through the sharded
//! execution core are table-for-table identical to the golden sequential
//! rendering — the pre-refactor pipeline composed by hand from the public
//! primitives (collect → curate → sort → dedup → enrich), with each
//! record's report evidence grouped here from the curated messages and
//! its post counts recounted from the world's posts
//! (`common::reference_output`). Production keeps exactly one
//! stage-execution implementation and one dedup-group table; this oracle
//! exists only here, in the test.

mod common;

use proptest::prelude::*;
use smishing::core::collect::collect_all;
use smishing::core::curation::{curate_posts, dedup};
use smishing::core::enrich::{enrich_all, Evidence};
use smishing::core::exec::ingest;
use smishing::core::experiment::run_all;
use smishing::fault::FaultPlan;
use smishing::prelude::*;
use smishing::types::PostId;
use smishing::worldsim::ReportStream;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

fn world_at(seed: u64, plan: &FaultPlan) -> World {
    let mut w = World::generate(WorldConfig {
        scale: 0.01,
        seed,
        ..WorldConfig::default()
    });
    if !plan.is_none() {
        w.set_fault_plan(plan);
    }
    w
}

/// The golden sequential pipeline: what `Pipeline::run` did before batch
/// was routed through the execution core. Single-threaded, in collection
/// order, sorted once before dedup; every record is stamped with its dedup
/// group's evidence, grouped here independently of the engine, and the
/// post counts come from the world's posts.
fn golden_sequential(world: &World) -> PipelineOutput<'_> {
    let opts = CurationOptions::default();
    let mut curated_total = Vec::new();
    let mut collection = Vec::new();
    for (forum, posts, stats) in collect_all(world) {
        curated_total.extend(curate_posts(&posts, &opts));
        collection.push((forum, stats));
    }
    curated_total.sort_by_key(|c| c.post_id);
    let mut groups: HashMap<String, Evidence> = HashMap::new();
    for c in &curated_total {
        let g = groups.entry(c.dedup_key(opts.dedup)).or_insert(Evidence {
            reports: 0,
            forums: 0,
            first_seen: c.posted_at,
            last_seen: c.posted_at,
        });
        g.reports += 1;
        g.forums |= c.forum.bit();
        g.first_seen = g.first_seen.min(c.posted_at);
        g.last_seen = g.last_seen.max(c.posted_at);
    }
    let unique = dedup(&curated_total, opts.dedup);
    let records = enrich_all(unique, world, &Obs::noop())
        .into_iter()
        .map(|mut r| {
            r.evidence = groups[&r.curated.dedup_key(opts.dedup)];
            Arc::new(r)
        })
        .collect();
    let curated_total = curated_total.into_iter().map(Arc::new).collect();
    let out = PipelineOutput::new(world, collection, curated_total, records, BTreeMap::new());
    common::reference_output(&out)
}

/// Render every experiment table to one string for byte comparison.
fn all_tables(out: &PipelineOutput<'_>) -> String {
    run_all(out, &Obs::noop())
        .iter()
        .map(|r| format!("== {}\n{}\n", r.id, r.table))
        .collect()
}

/// Every record's report evidence, by post id.
fn evidence(out: &PipelineOutput<'_>) -> Vec<(PostId, Evidence)> {
    out.records
        .iter()
        .map(|r| (r.curated.post_id, r.evidence))
        .collect()
}

proptest! {
    // Every case runs the golden oracle plus an engine pass over a fresh
    // world, so the case count stays low; shard count, fault profile and
    // snapshot schedule are all drawn per case.
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn engine_batch_matches_the_golden_sequential_rendering(
        shards_idx in 0usize..4,
        profile in 0u8..3,
        snapshots in 0u8..2,
        seed in 0u64..1000,
    ) {
        let shards = [1usize, 2, 4, 8][shards_idx];
        let plan = match profile {
            0 => FaultPlan::none(),
            1 => FaultPlan::mild(seed ^ 0xA5),
            _ => FaultPlan::harsh(seed ^ 0x5A),
        };
        let world = world_at(seed, &plan);
        let golden = golden_sequential(&world);
        let golden_tables = all_tables(&golden);
        let golden_evidence = evidence(&golden);

        // Batch frontend through the engine.
        let batch = Pipeline {
            curation: CurationOptions::default(),
            exec: ExecPlan::sharded(shards),
        }
        .run(&world, &Obs::noop());
        prop_assert_eq!(
            all_tables(&batch),
            golden_tables.clone(),
            "batch via engine diverged (shards={}, profile={})",
            shards,
            profile
        );
        prop_assert_eq!(
            evidence(&batch),
            golden_evidence.clone(),
            "batch evidence diverged (shards={}, profile={})",
            shards,
            profile
        );

        // With mid-run snapshots enabled the end-of-stream state must be
        // unaffected (Pipeline strips snapshot plans, so drive the engine
        // directly).
        if snapshots == 1 {
            let step = (world.posts.len() as u64 / 3).max(1);
            let mut snaps = 0usize;
            let result = ingest(
                &world,
                ReportStream::replay(&world),
                &CurationOptions::default(),
                &ExecPlan::sharded(shards).with_snapshots(SnapshotPlan::every(step)),
                &Obs::noop(),
                |_| snaps += 1,
            );
            prop_assert!(snaps > 0, "snapshot plan fired");
            prop_assert_eq!(
                all_tables(&result.output),
                golden_tables,
                "snapshot run diverged (shards={}, profile={})",
                shards,
                profile
            );
            prop_assert_eq!(
                evidence(&result.output),
                golden_evidence,
                "snapshot run evidence diverged (shards={}, profile={})",
                shards,
                profile
            );
        }
    }
}

#[test]
fn assemble_sorts_canonically_regardless_of_arrival_order() {
    // S6 regression: canonical ordering (sort by post id) is the engine
    // merge step's contract. Feed the same posts in reversed arrival
    // order — output ordering and content must not move.
    let world = World::generate(WorldConfig {
        scale: 0.01,
        seed: 0x0D0,
        ..WorldConfig::default()
    });
    let forward = Pipeline::default().run(&world, &Obs::noop());
    let plan = ExecPlan::sharded(3);
    let mut reversed_posts: Vec<_> = world.posts.clone();
    reversed_posts.reverse();
    let reversed = ingest(
        &world,
        reversed_posts.into_iter(),
        &CurationOptions::default(),
        &plan,
        &Obs::noop(),
        |_| {},
    );
    // Sorted by post id — the documented invariant, directly.
    assert!(reversed
        .output
        .curated_total
        .windows(2)
        .all(|w| w[0].post_id <= w[1].post_id));
    assert!(reversed
        .output
        .records
        .windows(2)
        .all(|w| w[0].curated.post_id <= w[1].curated.post_id));
    // And identical to the forward run: the output is a pure function of
    // the post multiset.
    assert_eq!(forward.collection, reversed.output.collection);
    assert_eq!(
        forward.curated_total.len(),
        reversed.output.curated_total.len()
    );
    for (x, y) in forward
        .curated_total
        .iter()
        .zip(&reversed.output.curated_total)
    {
        assert_eq!(x.post_id, y.post_id);
        assert_eq!(x.text, y.text);
    }
    assert_eq!(forward.records.len(), reversed.output.records.len());
    for (x, y) in forward.records.iter().zip(&reversed.output.records) {
        assert_eq!(x.curated.post_id, y.curated.post_id);
        assert_eq!(x.annotation.scam_type, y.annotation.scam_type);
    }
}
