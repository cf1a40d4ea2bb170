//! Property tests for the engine's dedup-group table, the one piece of
//! analysis state that is built out of order: arrival order is immaterial
//! under winner displacement, and a cut taken part-way equals the table
//! over the prefix. Each side is compared through its records' evidence
//! and the tables their groups fold into. Shards keep their groups in the
//! engine's own [`GroupTable`], whose cuts' winner deltas merge into the
//! records the groups are folded over.

use proptest::prelude::*;
use smishing_core::curation::{CuratedMessage, CurationOptions};
use smishing_core::enrich::{enrich, EnrichedRecord};
use smishing_core::exec::GroupTable;
use smishing_core::experiment::TABLES;
use smishing_core::pipeline::{Pipeline, PipelineOutput};
use smishing_worldsim::{World, WorldConfig};
use std::collections::BTreeMap;
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

/// Every curated message of the world, duplicates included.
fn messages() -> &'static Vec<CuratedMessage> {
    static M: OnceLock<Vec<CuratedMessage>> = OnceLock::new();
    M.get_or_init(|| {
        let out = Pipeline::default().run(world(), &smishing_obs::Obs::noop());
        out.curated_total.iter().map(|c| (**c).clone()).collect()
    })
}

/// Feed one message to a shard's group table under its dedup key.
fn apply(table: &mut GroupTable, c: &CuratedMessage) {
    let key = c.dedup_key(CurationOptions::default().dedup);
    table.apply(key, c, |c| enrich(c, world()));
}

/// The records a fresh table's one cut holds after taking in `messages`.
fn records_of<'a>(messages: impl Iterator<Item = &'a CuratedMessage>) -> Vec<Arc<EnrichedRecord>> {
    let mut table = GroupTable::new();
    for c in messages {
        apply(&mut table, c);
    }
    let mut records = Vec::new();
    table.cut().merge_into(&mut records);
    records
}

/// Every message, shuffled with a seeded Fisher-Yates.
fn shuffled(seed: u64) -> Vec<&'static CuratedMessage> {
    let mut all: Vec<&CuratedMessage> = messages().iter().collect();
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1);
    for i in (1..all.len()).rev() {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        all.swap(i, (state % (i as u64 + 1)) as usize);
    }
    all
}

/// The table over `messages` taken in post-id order, where no winner is
/// ever displaced.
fn in_post_order(messages: &[&CuratedMessage]) -> Vec<Arc<EnrichedRecord>> {
    let mut ordered = messages.to_vec();
    ordered.sort_by_key(|c| c.post_id);
    records_of(ordered.into_iter())
}

/// Each record's winner and evidence, then every table of an output
/// holding only these records.
fn render(records: &[Arc<EnrichedRecord>]) -> String {
    let mut out = String::new();
    for r in records {
        out += &format!("{:?} {:?}\n", r.curated.post_id, r.evidence);
    }
    let held = PipelineOutput::new(
        world(),
        Vec::new(),
        Vec::new(),
        records.to_vec(),
        BTreeMap::new(),
    );
    for (id, table) in TABLES {
        out += &format!("== {id}\n{}\n", table(&held));
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn arrival_order_is_immaterial(seed in 0u64..1_000_000) {
        // Winner displacement must converge to the same state as post-id
        // order.
        let all = shuffled(seed);
        let shuffled = records_of(all.iter().copied());
        prop_assert_eq!(render(&shuffled), render(&in_post_order(&all)));
    }

    #[test]
    fn a_cut_part_way_equals_the_fold_of_its_prefix(seed in 0u64..1_000_000, at in 0.0f64..1.0) {
        // Cut the table part-way through a shuffled feed, then feed the
        // rest: the mid-way cut is the table over the prefix, and a winner
        // displaced after it leaves no trace once the final cut's delta
        // is merged.
        let all = shuffled(seed);
        let (prefix, rest) = all.split_at((all.len() as f64 * at) as usize);
        let mut table = GroupTable::new();
        let mut records = Vec::new();
        for c in prefix {
            apply(&mut table, c);
        }
        table.cut().merge_into(&mut records);
        prop_assert_eq!(render(&records), render(&in_post_order(prefix)));
        for c in rest {
            apply(&mut table, c);
        }
        table.cut().merge_into(&mut records);
        prop_assert_eq!(render(&records), render(&in_post_order(&all)));
    }
}
