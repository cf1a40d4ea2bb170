//! The index contract, property-tested: every URL / apex-domain / sender
//! / phone / brand key derivable from the assembled dataset resolves
//! through the [`IntelSnapshot`] hash indexes to *exactly* the entries a
//! linear scan over the records finds — and absent keys miss — across
//! shard counts {1, 4} and fault profiles {none, mild}.

use proptest::prelude::*;
use smishing_core::enrich::EnrichedRecord;
use smishing_core::exec::ExecPlan;
use smishing_core::pipeline::Pipeline;
use smishing_fault::FaultPlan;
use smishing_intel::snapshot::record_keys;
use smishing_intel::IntelSnapshot;
use smishing_obs::Obs;
use smishing_worldsim::{World, WorldConfig};
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

/// (shards, mild faults?) — the grid the satellite pins.
const CONFIGS: [(usize, bool); 4] = [(1, false), (4, false), (1, true), (4, true)];

struct Built {
    records: Vec<Arc<EnrichedRecord>>,
    snap: IntelSnapshot,
}

fn built(cfg_idx: usize) -> &'static Built {
    static CELLS: [OnceLock<Built>; 4] = [
        OnceLock::new(),
        OnceLock::new(),
        OnceLock::new(),
        OnceLock::new(),
    ];
    CELLS[cfg_idx].get_or_init(|| {
        let (shards, faulty) = CONFIGS[cfg_idx];
        let mut world = World::generate(WorldConfig {
            scale: 0.01,
            seed: 11,
            ..WorldConfig::default()
        });
        if faulty {
            world.set_fault_plan(&FaultPlan::mild(0xFA11));
        }
        let pipeline = Pipeline {
            exec: ExecPlan {
                shards,
                ..ExecPlan::default()
            },
            ..Pipeline::default()
        };
        let out = pipeline.run(&world, &Obs::noop());
        Built {
            records: out.records.clone(),
            snap: IntelSnapshot::build(&out),
        }
    })
}

/// The oracle: entry ids (== record positions, canonical order) whose
/// derived key under `pick` equals `key`.
fn scan(
    records: &[Arc<EnrichedRecord>],
    key: &str,
    pick: fn(&EnrichedRecord) -> Option<String>,
) -> Vec<u32> {
    records
        .iter()
        .enumerate()
        .filter(|(_, r)| pick(r).as_deref() == Some(key))
        .map(|(i, _)| i as u32)
        .collect()
}

fn assert_pivot(
    b: &Built,
    name: &str,
    pick: fn(&EnrichedRecord) -> Option<String>,
    lookup: impl Fn(&IntelSnapshot, &str) -> Vec<u32>,
) {
    // Every present key resolves to exactly the linear-scan set.
    let mut keys: Vec<String> = b.records.iter().filter_map(|r| pick(r)).collect();
    keys.sort();
    keys.dedup();
    assert!(!keys.is_empty(), "{name}: dataset yields no keys at all");
    for key in &keys {
        let mut via_index = lookup(&b.snap, key);
        let mut via_scan = scan(&b.records, key, pick);
        via_index.sort_unstable();
        via_scan.sort_unstable();
        assert_eq!(
            via_index, via_scan,
            "{name} key {key:?}: index and linear scan disagree"
        );
    }
    // Keys sharing no interned symbol with the dataset must miss.
    for absent in ["zz-not-reported.example", "000000000000", "zz"] {
        assert!(
            lookup(&b.snap, absent).is_empty(),
            "{name}: absent key {absent:?} resolved"
        );
    }
}

fn check_config(cfg_idx: usize) {
    let b = built(cfg_idx);
    assert_eq!(
        b.records.len(),
        b.snap.len(),
        "one entry per assembled record"
    );
    assert_pivot(
        b,
        "url",
        |r| record_keys(r).url,
        |s, k| s.lookup_url_key(k).to_vec(),
    );
    assert_pivot(
        b,
        "domain",
        |r| record_keys(r).domain,
        |s, k| s.lookup_domain(k).to_vec(),
    );
    assert_pivot(
        b,
        "sender",
        |r| record_keys(r).sender,
        |s, k| s.lookup_sender_key(k).to_vec(),
    );
    assert_pivot(
        b,
        "phone",
        |r| record_keys(r).phone,
        |s, k| s.lookup_phone(k).to_vec(),
    );
    assert_pivot(
        b,
        "brand",
        |r| record_keys(r).brand,
        |s, k| s.lookup_brand(k).to_vec(),
    );
}

#[test]
fn index_equals_linear_scan_on_every_config() {
    for i in 0..CONFIGS.len() {
        check_config(i);
    }
}

#[test]
fn sharding_and_mild_faults_never_change_the_key_space() {
    // The engine's byte-identity invariant, restated over derived keys:
    // the dataset's key multiset is independent of shard count, and mild
    // faults degrade records without dropping them.
    let key_multiset = |b: &Built| -> HashMap<String, usize> {
        let mut m = HashMap::new();
        for r in &b.records {
            let k = record_keys(r);
            for part in [k.url, k.domain, k.sender, k.phone, k.brand]
                .into_iter()
                .flatten()
            {
                *m.entry(part).or_default() += 1;
            }
        }
        m
    };
    assert_eq!(
        key_multiset(built(0)),
        key_multiset(built(1)),
        "shards 1 vs 4"
    );
    assert_eq!(
        key_multiset(built(2)),
        key_multiset(built(3)),
        "mild: shards 1 vs 4"
    );
    assert_eq!(
        built(0).records.len(),
        built(2).records.len(),
        "mild faults must not drop records"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Fuzzed absent keys miss on every index of every config — no
    /// accidental interning of query strings, no hash aliasing.
    #[test]
    fn random_absent_keys_always_miss(cfg_idx in 0usize..CONFIGS.len(), salt in 0u64..u64::MAX) {
        let b = built(cfg_idx);
        let probe = format!("zz{salt:x}-fuzz.example");
        prop_assert!(b.snap.lookup_url_key(&probe).is_empty());
        prop_assert!(b.snap.lookup_domain(&probe).is_empty());
        prop_assert!(b.snap.lookup_sender_key(&probe).is_empty());
        prop_assert!(b.snap.lookup_phone(&format!("{}", salt ^ 0xDEAD_BEEF)).is_empty());
        prop_assert!(b.snap.lookup_brand(&probe).is_empty());

        // Mutating a real key out of the dataset's vocabulary misses too.
        if let Some(first) = b.records.iter().find_map(|r| record_keys(r).url) {
            let mutated = format!("{first}#zz{salt:x}");
            prop_assert!(b.snap.lookup_url_key(&mutated).is_empty());
        }
    }
}
