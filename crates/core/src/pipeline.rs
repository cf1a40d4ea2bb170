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
//! Every paper table is a function of the output
//! ([`experiment::TABLES`](crate::experiment::TABLES)): one pass over
//! its curated messages or unique records in post-id order, where a URL,
//! domain, sender or phone number counts once, for its first reporter.
//! The engine's curators count only what the output does not keep: posts
//! and images per forum and Table 15's Twitter posts and images per year.

use crate::collect::CollectionStats;
use crate::curation::{CuratedMessage, CurationOptions};
use crate::enrich::EnrichedRecord;
use crate::exec::{self, ExecPlan, SnapshotPlan};
use smishing_obs::Obs;
use smishing_types::Forum;
use smishing_worldsim::World;
use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;

/// The full pipeline configuration.
#[derive(Debug, Clone, Default)]
pub struct Pipeline {
    /// Curation options (extractor, dedup mode).
    pub curation: CurationOptions,
    /// Worker topology for the execution core. Never changes the output —
    /// only how much parallelism the run gets.
    pub exec: ExecPlan,
}

/// Everything the analyses consume. Curated messages and records are held
/// in post-id order, the order in which a value's first reporter is seen.
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
    /// Twitter posts and images per year (Table 15), which the engine's
    /// curators count during ingest: the output keeps no posts.
    pub(crate) twitter_years: BTreeMap<i32, CollectionStats>,
    /// The run's handle.
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
            // invariant the chaos suite pins at zero.
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
    /// An output assembled outside the engine (a test oracle, say) over
    /// exactly these posts' counts, curated messages and records. The
    /// messages and records are sorted by post id, which every table's
    /// first-reporter rule reads them in.
    pub fn new(
        world: &'w World,
        collection: Vec<(Forum, CollectionStats)>,
        mut curated_total: Vec<Arc<CuratedMessage>>,
        mut records: Vec<Arc<EnrichedRecord>>,
        twitter_years: BTreeMap<i32, CollectionStats>,
    ) -> Self {
        curated_total.sort_by_key(|c| c.post_id);
        records.sort_by_key(|r| r.curated.post_id);
        PipelineOutput {
            world,
            collection,
            curated_total,
            records,
            twitter_years,
            obs: Obs::noop(),
        }
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

    /// First reporter wins. Two copies of one real record share a sender,
    /// a URL and its domain, and differ in enrichment: one has lost its
    /// HLR result, certificates and resolutions, as a degraded record
    /// would, or its number resolves to another country. Handed to `new`
    /// out of post-id order, Tables 3, 6, 7, 8 and 14 count the copy with
    /// the lower post id, whichever copy that is. Table 14 counts a
    /// number's first *resolved* reporter: a failed lookup claims no
    /// number, which is unresolved only if no record resolved it.
    #[test]
    fn tables_count_the_lower_post_id_whichever_copy_holds_it() {
        use crate::enrich::{EnrichmentStatus, MissingField, UrlIntel};
        use smishing_types::{Country, PostId};
        let out = crate::analysis::testfix::output();
        let hosted = |u: &UrlIntel| {
            let orgs = u.resolutions.iter().filter_map(|(_, i)| i.as_ref());
            orgs.map(|i| i.record.org).any(|org| org != "Cloudflare")
        };
        let real = out
            .records
            .iter()
            .find(|r| {
                r.sender.as_ref().is_some_and(|s| s.phone().is_some())
                    && r.hlr.as_ref().is_some_and(|h| h.origin_country.is_some())
                    && (r.url.as_ref())
                        .is_some_and(|u| u.domain.is_some() && !u.certs.is_empty() && hosted(u))
            })
            .expect("a fully enriched record");
        let copy = |post: u64, edit: fn(&mut EnrichedRecord)| {
            let mut r = EnrichedRecord::clone(real);
            r.curated.post_id = PostId(post);
            edit(&mut r);
            Arc::new(r)
        };
        let keep: fn(&mut EnrichedRecord) = |_| {};
        let degrade: fn(&mut EnrichedRecord) = |r| {
            r.hlr = None;
            let url = r.url.as_mut().expect("checked");
            url.certs.clear();
            url.resolutions.clear();
            let missing = vec![
                MissingField::Hlr,
                MissingField::Certs,
                MissingField::Resolutions,
            ];
            r.status = EnrichmentStatus::Partial { missing };
        };
        let relocate: fn(&mut EnrichedRecord) = |r| {
            let hlr = r.hlr.as_mut().expect("checked");
            let mut elsewhere = [Country::India, Country::Spain].into_iter();
            hlr.origin_country = elsewhere.find(|&c| Some(c) != hlr.origin_country);
        };
        let tables = |records: Vec<Arc<EnrichedRecord>>| -> Vec<String> {
            let held =
                PipelineOutput::new(out.world, Vec::new(), Vec::new(), records, BTreeMap::new());
            let ids = ["T3", "T6", "T7", "T8", "T14"];
            let wanted = crate::experiment::TABLES
                .iter()
                .filter(|(id, _)| ids.contains(id));
            wanted.map(|(_, table)| table(&held).to_string()).collect()
        };
        for (first, second) in [
            (keep, degrade),
            (degrade, keep),
            (keep, relocate),
            (relocate, keep),
        ] {
            let (lower, higher) = (copy(1, first), copy(2, second));
            let mut want = tables(vec![Arc::clone(&lower)]);
            let resolved = if lower.hlr.is_some() { &lower } else { &higher };
            want[4] = tables(vec![Arc::clone(resolved)]).remove(4);
            assert_eq!(tables(vec![higher, lower]), want);
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
