//! Property tests for the accumulator merge laws the engine relies on:
//! merging is commutative and associative, shard-partitioned folds equal a
//! single sequential fold, arrival order is immaterial under winner
//! displacement, and a cut taken part-way equals the fold of the prefix —
//! for every incremental analysis at once (compared through their
//! rendered tables). Shards keep their groups in the engine's own
//! [`GroupTable`], whose cuts' winner deltas merge into the records the
//! groups are folded over.

use proptest::prelude::*;
use smishing_core::curation::{CuratedMessage, CurationOptions};
use smishing_core::enrich::{enrich, EnrichedRecord};
use smishing_core::exec::{AnalysisAccs, GroupTable};
use smishing_core::pipeline::Pipeline;
use smishing_worldsim::{World, WorldConfig};
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

/// Curated messages grouped by dedup key (the engine's shard routing
/// unit), so any partition of groups is a valid shard assignment.
fn groups() -> &'static Vec<Vec<CuratedMessage>> {
    static G: OnceLock<Vec<Vec<CuratedMessage>>> = OnceLock::new();
    G.get_or_init(|| {
        let out = Pipeline::default().run(world(), &smishing_obs::Obs::noop());
        let mode = CurationOptions::default().dedup;
        let mut by_key: HashMap<String, Vec<CuratedMessage>> = HashMap::new();
        for c in &out.curated_total {
            by_key
                .entry(c.dedup_key(mode))
                .or_default()
                .push((**c).clone());
        }
        let mut gs: Vec<Vec<CuratedMessage>> = by_key.into_values().collect();
        // Deterministic group order for reproducible partitions.
        gs.sort_by_key(|g| g.iter().map(|c| c.post_id).min());
        gs
    })
}

/// Feed one message to the engine's two folds: the curator side
/// (`add_curated`) and the shard's group table.
fn apply(curated: &mut AnalysisAccs, table: &mut GroupTable, c: &CuratedMessage) {
    curated.add_curated(c);
    let key = c.dedup_key(CurationOptions::default().dedup);
    table.apply(key, c, |c| enrich(c, world()));
}

/// The curator-side bundle with every group the records stand for folded
/// in once, as `PipelineOutput::accs` folds them.
fn with_groups_of(mut curated: AnalysisAccs, records: &[Arc<EnrichedRecord>]) -> AnalysisAccs {
    for r in records {
        curated.add_group(r);
    }
    curated
}

/// The engine's shard fold: every message through both folds, then the
/// table's cut merged into the (empty) records the groups fold over.
fn fold<'a>(messages: impl Iterator<Item = &'a CuratedMessage>) -> AnalysisAccs {
    let mut curated = AnalysisAccs::new();
    let mut table = GroupTable::new();
    for c in messages {
        apply(&mut curated, &mut table, c);
    }
    let mut records = Vec::new();
    table.cut().merge_into(&mut records);
    with_groups_of(curated, &records)
}

/// Every message, shuffled with a seeded Fisher-Yates.
fn shuffled(seed: u64) -> Vec<&'static CuratedMessage> {
    let mut all: Vec<&CuratedMessage> = groups().iter().flat_map(|g| g.iter()).collect();
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1);
    for i in (1..all.len()).rev() {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        all.swap(i, (state % (i as u64 + 1)) as usize);
    }
    all
}

/// Sequential fold in post-id order, where no winner is ever displaced.
fn fold_in_post_order(messages: &[&CuratedMessage]) -> AnalysisAccs {
    let mut ordered = messages.to_vec();
    ordered.sort_by_key(|c| c.post_id);
    fold(ordered.into_iter())
}

/// Canonical rendering of every analysis for comparison.
fn render(accs: &AnalysisAccs) -> String {
    accs.tables()
        .iter()
        .map(|(id, t)| format!("== {id}\n{t}\n"))
        .collect()
}

fn fold_partition(assign: &[usize], shard: usize) -> AnalysisAccs {
    fold(
        groups()
            .iter()
            .zip(assign)
            .filter(|(_, &s)| s == shard)
            .flat_map(|(g, _)| g.iter()),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn sharded_fold_equals_sequential(assign in prop::collection::vec(0usize..4, groups().len())) {
        let mut merged = AnalysisAccs::new();
        for shard in 0..4 {
            merged.merge(fold_partition(&assign, shard));
        }
        let sequential = fold(groups().iter().flat_map(|g| g.iter()));
        prop_assert_eq!(render(&merged), render(&sequential));
    }

    #[test]
    fn merge_is_commutative(assign in prop::collection::vec(0usize..2, groups().len())) {
        let (a, b) = (fold_partition(&assign, 0), fold_partition(&assign, 1));
        let mut ab = a.clone();
        ab.merge(b.clone());
        let mut ba = b;
        ba.merge(a);
        prop_assert_eq!(render(&ab), render(&ba));
    }

    #[test]
    fn merge_is_associative(assign in prop::collection::vec(0usize..3, groups().len())) {
        let parts: Vec<AnalysisAccs> = (0..3).map(|s| fold_partition(&assign, s)).collect();
        let mut left = parts[0].clone();
        left.merge(parts[1].clone());
        left.merge(parts[2].clone());
        let mut bc = parts[1].clone();
        bc.merge(parts[2].clone());
        let mut right = parts[0].clone();
        right.merge(bc);
        prop_assert_eq!(render(&left), render(&right));
    }

    #[test]
    fn arrival_order_is_immaterial(seed in 0u64..1_000_000) {
        // Winner displacement must converge to the same state as post-id
        // order.
        let all = shuffled(seed);
        let shuffled = fold(all.iter().copied());
        prop_assert_eq!(render(&shuffled), render(&fold_in_post_order(&all)));
    }

    #[test]
    fn a_cut_part_way_equals_the_fold_of_its_prefix(seed in 0u64..1_000_000, at in 0.0f64..1.0) {
        // Cut the table part-way through a shuffled feed, then feed the
        // rest: the mid-way cut is the fold of the prefix, and a winner
        // displaced after it leaves no trace once the final cut's delta
        // is merged.
        let all = shuffled(seed);
        let (prefix, rest) = all.split_at((all.len() as f64 * at) as usize);
        let mut curated = AnalysisAccs::new();
        let mut table = GroupTable::new();
        let mut records = Vec::new();
        for c in prefix {
            apply(&mut curated, &mut table, c);
        }
        table.cut().merge_into(&mut records);
        let mid = with_groups_of(curated.clone(), &records);
        prop_assert_eq!(render(&mid), render(&fold_in_post_order(prefix)));
        for c in rest {
            apply(&mut curated, &mut table, c);
        }
        table.cut().merge_into(&mut records);
        let end = with_groups_of(curated, &records);
        prop_assert_eq!(render(&end), render(&fold_in_post_order(&all)));
    }

    #[test]
    fn merge_with_empty_is_identity(assign in prop::collection::vec(0usize..2, groups().len())) {
        let a = fold_partition(&assign, 0);
        let mut with_empty = a.clone();
        with_empty.merge(AnalysisAccs::new());
        let mut empty_with = AnalysisAccs::new();
        empty_with.merge(a.clone());
        prop_assert_eq!(render(&with_empty), render(&a));
        prop_assert_eq!(render(&empty_with), render(&a));
    }
}
