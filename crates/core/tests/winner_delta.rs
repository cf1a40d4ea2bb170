//! The winner-delta protocol: each cut sends only the dedup winners that
//! changed since the previous one, shared by handle, and the collector
//! merges them into its records. A handle a consumer keeps is copied on
//! write, never changed under it; and whatever the arrival order, shard
//! count, curator count or cut positions, every snapshot's records are
//! the batch's over its prefix.

use proptest::prelude::*;
use smishing_core::curation::{curate_post, CuratedMessage, CurationOptions};
use smishing_core::enrich::{EnrichedRecord, Evidence};
use smishing_core::exec::{ingest, ExecPlan, SnapshotPlan};
use smishing_obs::Obs;
use smishing_types::PostId;
use smishing_worldsim::{Post, World, WorldConfig};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

fn world() -> &'static World {
    static W: OnceLock<World> = OnceLock::new();
    W.get_or_init(|| {
        World::generate(WorldConfig {
            scale: 0.01,
            ..WorldConfig::default()
        })
    })
}

/// Each post's curated message with its dedup key, curated once.
fn curated(post: &Post) -> Option<&'static (String, CuratedMessage)> {
    static C: OnceLock<HashMap<PostId, (String, CuratedMessage)>> = OnceLock::new();
    C.get_or_init(|| {
        let opts = CurationOptions::default();
        world()
            .posts
            .iter()
            .filter_map(|p| curate_post(p, &opts))
            .map(|c| (c.post_id, (c.dedup_key(opts.dedup), c)))
            .collect()
    })
    .get(&post.id)
}

/// Dedup winners as (post id, evidence).
type Winners = Vec<(PostId, Evidence)>;

/// Records as (post id, evidence), in their order.
fn winners(records: &[Arc<EnrichedRecord>]) -> Winners {
    records
        .iter()
        .map(|r| (r.curated.post_id, r.evidence))
        .collect()
}

/// The batch's winners over `posts`, sorted by post id: the minimum post
/// id of each dedup key, carrying the evidence of all its reports.
fn batch_winners(posts: &[&Post]) -> Winners {
    let mut groups: HashMap<&str, (PostId, Evidence)> = HashMap::new();
    for (key, c) in posts.iter().filter_map(|p| curated(p)) {
        match groups.entry(key) {
            Entry::Vacant(slot) => {
                slot.insert((c.post_id, Evidence::of(c)));
            }
            Entry::Occupied(mut slot) => {
                let (id, evidence) = slot.get_mut();
                *id = (*id).min(c.post_id);
                evidence.absorb(c);
            }
        }
    }
    let mut winners: Winners = groups.into_values().collect();
    winners.sort_by_key(|(id, _)| *id);
    winners
}

/// Winners displaced when `posts` arrive in order and are cut after each
/// of `cuts` posts: of a winner no cut had sent (inside one interval), and
/// of one a cut had (across intervals).
fn displacements(posts: &[&Post], cuts: &[u64]) -> (usize, usize) {
    // Per key: the winner, and whether a cut has sent it.
    let mut groups: HashMap<&str, (PostId, bool)> = HashMap::new();
    let (mut inside, mut across) = (0, 0);
    for (i, post) in posts.iter().enumerate() {
        if cuts.contains(&(i as u64)) {
            groups.values_mut().for_each(|(_, sent)| *sent = true);
        }
        let Some((key, c)) = curated(post) else {
            continue;
        };
        let (id, sent) = groups.entry(key).or_insert((c.post_id, false));
        if c.post_id < *id {
            if *sent {
                across += 1;
            } else {
                inside += 1;
            }
            (*id, *sent) = (c.post_id, false);
        }
    }
    (inside, across)
}

/// `world()`'s posts in a seeded Fisher-Yates order.
fn shuffled(seed: u64) -> Vec<&'static Post> {
    let mut posts: Vec<&Post> = world().posts.iter().collect();
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1);
    for i in (1..posts.len()).rev() {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        posts.swap(i, (state % (i as u64 + 1)) as usize);
    }
    posts
}

#[test]
fn kept_handles_keep_their_cut_time_evidence() {
    // Shuffled arrival: a group's later reports either displace its
    // winner (posted earlier) or grow its evidence (posted later).
    let w = world();
    let posts = shuffled(7);
    let every = (posts.len() as u64 / 5).max(1);
    let plan = ExecPlan::sharded(3).with_snapshots(SnapshotPlan::every(every));
    let mut kept: Vec<(Vec<Arc<EnrichedRecord>>, Winners)> = Vec::new();
    let result = ingest(
        w,
        posts.into_iter(),
        &CurationOptions::default(),
        &plan,
        &Obs::noop(),
        |s| kept.push((s.output.records.clone(), winners(&s.output.records))),
    );
    assert!(kept.len() >= 4, "{} snapshots", kept.len());
    let end: HashMap<PostId, Evidence> = winners(&result.output.records).into_iter().collect();
    let (mut grown, mut displaced) = (0, 0);
    for (handles, at_cut) in &kept {
        assert_eq!(&winners(handles), at_cut, "a kept handle changed");
        for (id, evidence) in at_cut {
            match end.get(id) {
                None => displaced += 1,
                Some(e) if e != evidence => grown += 1,
                Some(_) => {}
            }
        }
    }
    assert!(grown > 0, "no kept winner's evidence grew later");
    assert!(displaced > 0, "no kept winner was displaced later");
}

proptest! {
    // Each case is one engine run over the scale-0.01 world.
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn every_cut_holds_the_batch_winners_of_its_prefix(
        seed in 0u64..1_000_000,
        shards in 1usize..=8,
        curators in 1usize..=3,
        capacity in prop::sample::select(vec![1usize, 4, 256]),
        cuts in prop::collection::vec(0.1f64..0.9, 1..6),
    ) {
        let posts = shuffled(seed);
        let n = posts.len() as u64;
        let mut cuts: Vec<u64> = cuts.iter().map(|f| (f * n as f64) as u64).collect();
        cuts.sort_unstable();
        cuts.dedup();
        let (inside, across) = displacements(&posts, &cuts);
        prop_assert!(inside > 0 && across > 0, "inside {}, across {}", inside, across);

        let plan = ExecPlan {
            curators,
            shards,
            channel_capacity: capacity,
            snapshots: SnapshotPlan::at(&cuts),
        };
        let mut seen: Vec<(u64, Winners)> = Vec::new();
        let result = ingest(
            world(),
            posts.iter().copied(),
            &CurationOptions::default(),
            &plan,
            &Obs::noop(),
            |s| seen.push((s.at_posts, winners(&s.output.records))),
        );
        prop_assert_eq!(
            seen.iter().map(|(at, _)| *at).collect::<Vec<_>>(),
            cuts.clone()
        );
        for (at, got) in seen {
            prop_assert_eq!(got, batch_winners(&posts[..at as usize]), "cut at {}", at);
        }
        prop_assert_eq!(winners(&result.output.records), batch_winners(&posts));
    }
}
