//! Property tests for the accumulator merge laws the engine relies on:
//! merging is commutative and associative, shard-partitioned folds equal a
//! single sequential fold, and arrival order is immaterial under winner
//! retraction — for every incremental analysis at once (compared through
//! their rendered tables). Shards fold through the engine's own
//! [`GroupTable`].

use proptest::prelude::*;
use smishing_core::curation::{CuratedMessage, CurationOptions};
use smishing_core::enrich::enrich;
use smishing_core::exec::{AnalysisAccs, GroupTable};
use smishing_core::pipeline::Pipeline;
use smishing_worldsim::{World, WorldConfig};
use std::collections::HashMap;
use std::sync::OnceLock;

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
            by_key.entry(c.dedup_key(mode)).or_default().push(c.clone());
        }
        let mut gs: Vec<Vec<CuratedMessage>> = by_key.into_values().collect();
        // Deterministic group order for reproducible partitions.
        gs.sort_by_key(|g| g.iter().map(|c| c.post_id).min());
        gs
    })
}

/// The engine's shard fold: every message through the engine's own group
/// table, then the table's cut (its accumulators with every group folded
/// in).
fn fold<'a>(messages: impl Iterator<Item = &'a CuratedMessage>) -> AnalysisAccs {
    let mode = CurationOptions::default().dedup;
    let mut table = GroupTable::new();
    for c in messages {
        table.apply(c.dedup_key(mode), c, |c| enrich(c, world()));
    }
    table.into_cut().0
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
        // Shuffle all messages with a seeded Fisher-Yates; winner
        // replacement + retraction must converge to the same state as
        // post-id order.
        let mut all: Vec<&CuratedMessage> = groups().iter().flat_map(|g| g.iter()).collect();
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1);
        for i in (1..all.len()).rev() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            all.swap(i, (state % (i as u64 + 1)) as usize);
        }
        let shuffled = fold(all.iter().copied());
        let mut ordered: Vec<&CuratedMessage> = groups().iter().flat_map(|g| g.iter()).collect();
        ordered.sort_by_key(|c| c.post_id);
        let sequential = fold(ordered.iter().copied());
        prop_assert_eq!(render(&shuffled), render(&sequential));
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
