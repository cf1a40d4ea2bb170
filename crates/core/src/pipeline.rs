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
//! The output folds its accumulators on demand
//! ([`PipelineOutput::accs`]): the first time a consumer asks for a table,
//! one sequential pass folds the collection stats, every curated message
//! and each dedup group, through its winner. The engine's curators count
//! only what the output does not keep: posts and images per forum and
//! Table 15's Twitter posts and images per year. Every accumulator-backed
//! table renders from that bundle with `finish()`.

use crate::analysis::overview::TwitterYearsAcc;
use crate::collect::CollectionStats;
use crate::curation::{CuratedMessage, CurationOptions};
use crate::enrich::EnrichedRecord;
use crate::exec::{self, AnalysisAccs, ExecPlan, SnapshotPlan};
use smishing_obs::Obs;
use smishing_types::Forum;
use smishing_worldsim::World;
use std::collections::HashSet;
use std::sync::{Arc, OnceLock};

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
#[derive(Clone)]
pub struct PipelineOutput<'w> {
    /// The input world (for services and — in evaluation analyses only —
    /// ground truth).
    pub world: &'w World,
    /// Per-forum raw collection stats (Table 1 posts/images columns).
    pub collection: Vec<(Forum, CollectionStats)>,
    /// All curated messages, duplicates included (Table 1 "Total"). The
    /// engine shares them with every snapshot by handle.
    pub curated_total: Vec<Arc<CuratedMessage>>,
    /// Enriched unique messages (Table 1 "Unique" and everything after),
    /// each carrying its dedup group's report evidence. The engine shares
    /// them with its shards and with every snapshot by handle.
    pub records: Vec<Arc<EnrichedRecord>>,
    /// Table 15's Twitter posts and images per year, which the engine's
    /// curators count during ingest: the output keeps no posts.
    pub(crate) twitter_years: TwitterYearsAcc,
    /// Every accumulator folded over this output: filled on the first
    /// [`accs`](Self::accs) call, emptied by the engine's next cut.
    pub(crate) folded: OnceLock<AnalysisAccs>,
    /// The run's handle, which times the fold.
    pub(crate) obs: Obs,
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
            world.posts.iter(),
            &self.curation,
            &plan,
            obs,
            |_| {},
        );
        let output = result.output;
        if obs.is_enabled() {
            // Volume counters, derived from the assembled output so they
            // are exact whatever the worker topology was (the engine counts
            // `pipeline.collect.posts`).
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
            // invariant the chaos suite pins at zero. Counted off the
            // records, so observing never forces the group fold.
            let degraded = output.records.iter().filter(|r| r.is_degraded());
            obs.counter("pipeline.enrich.degraded", &[])
                .add(degraded.count() as u64);
            obs.counter("pipeline.enrich.dropped", &[])
                .add((unique.len().saturating_sub(output.records.len())) as u64);
        }
        output
    }
}

impl<'w> PipelineOutput<'w> {
    /// An output assembled outside the engine (a test oracle, say) whose
    /// [`accs`](Self::accs) is `accs`, folded by the caller over exactly
    /// these posts, curated messages and records.
    pub fn new(
        world: &'w World,
        collection: Vec<(Forum, CollectionStats)>,
        curated_total: Vec<Arc<CuratedMessage>>,
        records: Vec<Arc<EnrichedRecord>>,
        accs: AnalysisAccs,
    ) -> Self {
        PipelineOutput {
            world,
            collection,
            curated_total,
            records,
            twitter_years: TwitterYearsAcc::new(),
            folded: OnceLock::from(accs),
            obs: Obs::noop(),
        }
    }

    /// The accumulators over exactly these posts, curated messages and
    /// records: render an accumulator-backed table with
    /// `accs().<module>.finish()`. The first call builds them in one
    /// sequential pass under `pipeline.group_fold.wall_ns`: Table 1's post
    /// and image columns from [`collection`](Self::collection), Table 15
    /// from the curators' per-year counts, every curated message once
    /// ([`AnalysisAccs::add_curated`]), then each dedup group once, through
    /// its winner and the evidence it carries
    /// ([`AnalysisAccs::add_group`]). Later calls, and clones of this
    /// output, reuse that fold.
    pub fn accs(&self) -> &AnalysisAccs {
        self.folded.get_or_init(|| {
            let _span = self.obs.span("pipeline.group_fold.wall_ns");
            let mut accs = AnalysisAccs {
                twitter_years: self.twitter_years.clone(),
                ..AnalysisAccs::new()
            };
            for (forum, stats) in &self.collection {
                accs.overview.add_collection(*forum, stats);
            }
            for c in &self.curated_total {
                accs.add_curated(c);
            }
            for r in &self.records {
                accs.add_group(r);
            }
            accs
        })
    }

    /// The run's observability handle: the engine's for an engine run,
    /// [`Obs::noop`] for [`new`](Self::new). Consumers of the output,
    /// such as the intel store build, record their spans under it.
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Curated messages of one forum (with duplicates).
    pub fn curated_on(&self, forum: Forum) -> impl Iterator<Item = &Arc<CuratedMessage>> {
        self.curated_total.iter().filter(move |c| c.forum == forum)
    }

    /// Unique records of one forum.
    pub fn records_on(&self, forum: Forum) -> impl Iterator<Item = &Arc<EnrichedRecord>> {
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
        for c in out.curated_total.iter().map(|c| &**c).chain(winners) {
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
