//! Pipeline orchestration: world → collected → curated → enriched.
//!
//! `Pipeline` is a thin *batch frontend* over the one execution core in
//! [`exec`]: it feeds the world's posts through the sharded
//! stage engine with no snapshot plan. Collection, curation, dedup, and
//! enrichment all happen inside the engine's workers; the engine's merge
//! step owns canonical output ordering (records and curated messages
//! sorted by post id — see the ordering invariant in
//! [`exec::engine`]). Output is byte-identical at
//! any shard count, so the default plan runs sharded-parallel while tests
//! that pin schedule-dependent *metrics* use
//! [`ExecPlan::sequential`](crate::exec::ExecPlan::sequential).
//!
//! The output also carries the engine's merged accumulator bundle
//! ([`PipelineOutput::accs`]), folded by the shards during ingest. Every
//! accumulator-backed table renders from it with `finish()`, so a run
//! folds each record once.

use crate::collect::CollectionStats;
use crate::curation::{CuratedMessage, CurationOptions};
use crate::enrich::EnrichedRecord;
use crate::exec::{self, AnalysisAccs, ExecPlan, SnapshotPlan};
use smishing_obs::Obs;
use smishing_types::Forum;
use smishing_worldsim::World;
use std::collections::HashSet;

/// The full pipeline configuration.
#[derive(Debug, Clone, Default)]
pub struct Pipeline {
    /// Curation options (extractor, dedup mode).
    pub curation: CurationOptions,
    /// Worker topology for the execution core. Never changes the output —
    /// only how much parallelism the run gets.
    pub exec: ExecPlan,
}

/// Everything the analyses consume.
pub struct PipelineOutput<'w> {
    /// The input world (for services and — in evaluation analyses only —
    /// ground truth).
    pub world: &'w World,
    /// Per-forum raw collection stats (Table 1 posts/images columns).
    pub collection: Vec<(Forum, CollectionStats)>,
    /// All curated messages, duplicates included (Table 1 "Total").
    pub curated_total: Vec<CuratedMessage>,
    /// Enriched unique messages (Table 1 "Unique" and everything after),
    /// each carrying its dedup group's report evidence.
    pub records: Vec<EnrichedRecord>,
    /// The engine's merged accumulators over exactly these posts, curated
    /// messages and records: render an accumulator-backed table with
    /// `accs.<module>.finish()`.
    pub accs: AnalysisAccs,
}

impl Pipeline {
    /// Run the pipeline over a world through the shared execution core.
    ///
    /// Pass [`Obs::noop`] for an unobserved run. With an enabled handle
    /// the run carries the engine's `exec.*` series plus pipeline volume
    /// counters (`pipeline.{collect.posts,curate.messages,dedup.unique,
    /// enrich.{records,degraded,dropped}}`) and the whole-run
    /// `pipeline.run.wall_ns` span; `pipeline.enrich.dropped` is the
    /// invariant the chaos suite pins at zero.
    pub fn run<'w>(&self, world: &'w World, obs: &Obs) -> PipelineOutput<'w> {
        let _run_span = obs.span("pipeline.run.wall_ns");
        // Batch runs never snapshot; everything else about the plan is
        // honoured as configured.
        let mut plan = self.exec.clone();
        plan.snapshots = SnapshotPlan::none();
        let result = exec::ingest(
            world,
            world.posts.iter().cloned(),
            &self.curation,
            &plan,
            obs,
            |_| {},
        );
        let output = result.output;
        if obs.is_enabled() {
            // Volume counters, derived from the assembled output so they
            // are exact whatever the worker topology was.
            let posts: usize = output.collection.iter().map(|(_, s)| s.posts).sum();
            obs.counter("pipeline.collect.posts", &[]).add(posts as u64);
            obs.counter("pipeline.curate.messages", &[])
                .add(output.curated_total.len() as u64);
            let unique: HashSet<String> = output
                .curated_total
                .iter()
                .map(|c| c.dedup_key(self.curation.dedup))
                .collect();
            obs.counter("pipeline.dedup.unique", &[])
                .add(unique.len() as u64);
            obs.counter("pipeline.enrich.records", &[])
                .add(output.records.len() as u64);
            // Degradation accounting: service faults may leave records
            // partially enriched, but never drop them — `dropped` is the
            // invariant the chaos suite pins at zero.
            obs.counter("pipeline.enrich.degraded", &[])
                .add(output.accs.degraded_records);
            obs.counter("pipeline.enrich.dropped", &[])
                .add((unique.len().saturating_sub(output.records.len())) as u64);
        }
        output
    }
}

impl<'w> PipelineOutput<'w> {
    /// Curated messages of one forum (with duplicates).
    pub fn curated_on(&self, forum: Forum) -> impl Iterator<Item = &CuratedMessage> {
        self.curated_total.iter().filter(move |c| c.forum == forum)
    }

    /// Unique records of one forum.
    pub fn records_on(&self, forum: Forum) -> impl Iterator<Item = &EnrichedRecord> {
        self.records
            .iter()
            .filter(move |r| r.curated.forum == forum)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smishing_worldsim::WorldConfig;

    #[test]
    fn end_to_end_counts_are_consistent() {
        let world = World::generate(WorldConfig::test_scale(81));
        let out = Pipeline::default().run(&world, &Obs::noop());
        assert!(!out.records.is_empty());
        assert!(out.records.len() <= out.curated_total.len());
        let posts_total: usize = out.collection.iter().map(|(_, s)| s.posts).sum();
        assert_eq!(posts_total, world.posts.len());
        // Every record's forum stats exist.
        for (forum, stats) in &out.collection {
            let curated_here = out.curated_on(*forum).count();
            assert!(curated_here <= stats.posts, "{forum}");
        }
    }

    #[test]
    fn deterministic_output() {
        let world = World::generate(WorldConfig::test_scale(82));
        let a = Pipeline::default().run(&world, &Obs::noop());
        let b = Pipeline::default().run(&world, &Obs::noop());
        assert_eq!(a.records.len(), b.records.len());
        assert_eq!(a.curated_total.len(), b.curated_total.len());
        for (x, y) in a.records.iter().zip(b.records.iter()) {
            assert_eq!(x.curated.post_id, y.curated.post_id);
            assert_eq!(x.annotation.scam_type, y.annotation.scam_type);
        }
    }

    /// `case_study`, `report_latency` and `domain_freshness` read a
    /// report's posting time from the curated message instead of looking
    /// its post up in the world: every curated message, and every
    /// record's winner, carries the `posted_at` of the one world post
    /// with its id.
    #[test]
    fn curated_messages_carry_their_posts_posting_time() {
        let out = crate::analysis::testfix::output();
        let mut posts = std::collections::HashMap::new();
        for p in &out.world.posts {
            posts
                .entry(p.id)
                .and_modify(|(n, _)| *n += 1)
                .or_insert((1, p.posted_at));
        }
        let winners = out.records.iter().map(|r| &r.curated);
        for c in out.curated_total.iter().chain(winners) {
            assert_eq!(
                posts.get(&c.post_id),
                Some(&(1, c.posted_at)),
                "{:?}",
                c.post_id
            );
        }
    }

    #[test]
    fn shard_count_never_changes_the_output() {
        let world = World::generate(WorldConfig::test_scale(83));
        let base = Pipeline {
            curation: CurationOptions::default(),
            exec: ExecPlan::sequential(),
        }
        .run(&world, &Obs::noop());
        for shards in [2, 8] {
            let out = Pipeline {
                curation: CurationOptions::default(),
                exec: ExecPlan::sharded(shards),
            }
            .run(&world, &Obs::noop());
            assert_eq!(base.curated_total.len(), out.curated_total.len());
            assert_eq!(base.records.len(), out.records.len());
            for (x, y) in base.records.iter().zip(out.records.iter()) {
                assert_eq!(x.curated.post_id, y.curated.post_id);
            }
        }
    }
}
