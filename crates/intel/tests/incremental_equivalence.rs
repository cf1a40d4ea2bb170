//! The incremental-build contract, property-tested: chaining
//! [`IntelSnapshot::build_incremental`] over the streaming engine's
//! curated deltas produces *exactly* the snapshot a from-scratch
//! [`IntelSnapshot::build_full`] produces at every epoch — same entries,
//! same interned symbol table, same similarity signatures and template
//! ids, same cluster assignment — across shard counts {1, 4} and aging
//! windows {off, small}, and over a 32-epoch chain under the small window
//! in which key strings die and resurface across many renumberings.
//! Divergence anywhere (index arrays, evidence counters, eviction
//! bookkeeping) fails the whole-snapshot equality; a fuzz pass then
//! re-checks the serve-protocol surface (hit / near / miss verdict lines)
//! answer-for-answer.

use proptest::prelude::*;
use smishing_core::exec::{ingest, ExecPlan, SnapshotPlan};
use smishing_core::CurationOptions;
use smishing_intel::{
    verdict_line, BuildOptions, IntelHub, IntelSnapshot, Query, SnapshotDelta, Triage,
};
use smishing_obs::Obs;
use smishing_worldsim::{ReportStream, World, WorldConfig};
use std::collections::HashMap;
use std::sync::OnceLock;

/// (shards, aging window, aligned epochs). The small window is sized
/// (against scale 0.01 / seed 11 timestamps) so the final epoch both
/// evicts and retains entries. The last, long chain renumbers the symbol
/// tables at every one of its epochs while the window retires keys and
/// new reports bring some back.
const CONFIGS: [(usize, Option<u64>, u64); 5] = [
    (1, None, 4),
    (4, None, 4),
    (1, Some(2_000_000), 4),
    (4, Some(2_000_000), 4),
    (1, Some(2_000_000), 32),
];

/// Every query-key string of a snapshot's entries.
fn key_strings(s: &IntelSnapshot) -> Vec<String> {
    let mut keys: Vec<String> = s
        .entries()
        .iter()
        .flat_map(|e| [e.url, e.domain, e.sender, e.phone, e.brand])
        .flatten()
        .map(|sym| s.resolve(sym).to_string())
        .collect();
    keys.sort_unstable();
    keys.dedup();
    keys
}

struct Built {
    /// From-scratch build of the end-of-stream output.
    full: IntelSnapshot,
    /// The same state reached by chaining incremental builds over every
    /// aligned snapshot's curated delta.
    inc: IntelSnapshot,
    /// Sample message texts for serve-protocol fuzzing.
    texts: Vec<String>,
}

fn built(cfg_idx: usize) -> &'static Built {
    static CELLS: [OnceLock<Built>; 5] = [
        OnceLock::new(),
        OnceLock::new(),
        OnceLock::new(),
        OnceLock::new(),
        OnceLock::new(),
    ];
    CELLS[cfg_idx].get_or_init(|| {
        let (shards, window_secs, n_epochs) = CONFIGS[cfg_idx];
        let world = World::generate(WorldConfig {
            scale: 0.01,
            seed: 11,
            ..WorldConfig::default()
        });
        let opts = BuildOptions { window_secs };
        let curation = CurationOptions::default();
        let every = (world.posts.len() as u64 / n_epochs).max(1);
        let plan = ExecPlan {
            shards,
            ..ExecPlan::default()
        }
        .with_snapshots(SnapshotPlan::every(every));
        let mut prev: Option<IntelSnapshot> = None;
        let mut epochs = 0u32;
        // Per key string: the last epoch that held it, and how often it
        // came back after an epoch without it.
        let mut last_held: HashMap<String, u32> = HashMap::new();
        let mut resurfaced = 0u32;
        let result = ingest(
            &world,
            ReportStream::replay(&world),
            &curation,
            &plan,
            &Obs::noop(),
            |s| {
                let oracle = IntelSnapshot::build_full(&s.output, opts);
                let inc = IntelSnapshot::build_incremental(
                    &s.output,
                    prev.as_ref(),
                    SnapshotDelta::new(&s.curated_delta),
                    opts,
                );
                assert!(
                    inc == oracle,
                    "incremental diverged from from-scratch at {} posts \
                     (shards {shards}, window {window_secs:?})",
                    s.at_posts
                );
                for key in key_strings(&inc) {
                    if last_held
                        .insert(key, epochs)
                        .is_some_and(|e| e + 1 < epochs)
                    {
                        resurfaced += 1;
                    }
                }
                prev = Some(inc);
                epochs += 1;
            },
        );
        assert!(epochs >= 3, "need a real epoch chain, got {epochs}");
        if n_epochs >= 32 {
            assert!(epochs >= 30, "long chain ran {epochs} epochs");
            assert!(resurfaced > 0, "no key died and came back");
        }
        let full = IntelSnapshot::build_full(&result.output, opts);
        let inc = IntelSnapshot::build_incremental(
            &result.output,
            prev.as_ref(),
            SnapshotDelta::new(&result.curated_delta),
            opts,
        );
        assert!(
            inc == full,
            "final incremental build diverged (shards {shards}, window {window_secs:?})"
        );
        if window_secs.is_some() {
            assert!(inc.evicted_count() > 0, "small window must evict");
            assert!(!inc.is_empty(), "small window must also retain");
        } else {
            assert_eq!(inc.evicted_count(), 0, "no window, no eviction");
        }
        let texts = world
            .messages
            .iter()
            .map(|m| m.text.clone())
            .take(256)
            .collect();
        Built { full, inc, texts }
    })
}

#[test]
fn incremental_chain_equals_from_scratch_on_every_config() {
    for i in 0..CONFIGS.len() {
        built(i);
    }
}

#[test]
fn sharding_never_changes_the_incremental_result() {
    // The engine's shard-identity invariant survives the delta plumbing:
    // deltas arrive in different batches per shard count, but the chained
    // store is byte-identical.
    assert!(built(0).inc == built(1).inc, "shards 1 vs 4");
    assert!(built(2).inc == built(3).inc, "windowed: shards 1 vs 4");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The serve-protocol surface answers identically from the chained
    /// and the from-scratch store: exact-pivot hits, similarity matches,
    /// and fuzzed absent keys render the same verdict lines.
    #[test]
    fn serve_protocol_answers_agree(
        cfg_idx in 0usize..CONFIGS.len(),
        pick in 0usize..usize::MAX,
        salt in 0u64..u64::MAX,
    ) {
        let b = built(cfg_idx);
        let (full_hub, inc_hub) = (IntelHub::new(), IntelHub::new());
        full_hub.publish(b.full.clone());
        inc_hub.publish(b.inc.clone());
        let mut tf = Triage::new(full_hub.reader());
        let mut ti = Triage::new(inc_hub.reader());

        // A key the store serves (when any URL survived the window).
        if let Some(url) = b.full.entries().iter().find_map(|e| e.url) {
            let url = b.full.resolve(url).to_string();
            prop_assert_eq!(
                verdict_line(&tf.answer(&Query::Url(&url), None).verdict),
                verdict_line(&ti.answer(&Query::Url(&url), None).verdict)
            );
        }
        // A fuzzed absent key.
        let probe = format!("https://zz{salt:x}-fuzz.example/q");
        prop_assert_eq!(
            verdict_line(&tf.answer(&Query::Url(&probe), None).verdict),
            verdict_line(&ti.answer(&Query::Url(&probe), None).verdict)
        );
        // A similarity query drawn from the raw message corpus.
        let text = &b.texts[pick % b.texts.len()];
        prop_assert_eq!(
            verdict_line(&tf.answer(&Query::Near(text), None).verdict),
            verdict_line(&ti.answer(&Query::Near(text), None).verdict)
        );
    }
}
