//! The store's campaign-link clusters, pinned to the §5.1 pivot strings.
//!
//! `IntelSnapshot` clusters over the domain, URL, sender and skeleton
//! symbols each entry carries. The oracle here clusters the same records
//! from `linking::pivot_keys` strings with a two-pass anti-hub union-find
//! written out in full, and every entry's cluster id must equal the
//! oracle's dense first-appearance id, on the test-scale world and on a
//! scale-0.125 world. No weak key crosses `WEAK_KEY_CAP` in either, so
//! the cap is unit-tested with `linking::cluster_by_keys`, and the
//! snapshot's own tests hold each entry's keys and strength flags to
//! `pivot_keys`.

use smishing_core::analysis::linking::{pivot_keys, LinkingPivots, WEAK_KEY_CAP};
use smishing_core::enrich::EnrichedRecord;
use smishing_core::pipeline::Pipeline;
use smishing_intel::IntelSnapshot;
use smishing_obs::Obs;
use smishing_stats::unionfind::UnionFind;
use smishing_worldsim::{World, WorldConfig};
use std::collections::HashMap;
use std::sync::Arc;

/// Dense first-appearance cluster ids of `records` from their pivot
/// strings.
fn oracle_clusters(records: &[Arc<EnrichedRecord>]) -> Vec<u32> {
    let n = records.len();
    let mut uf = UnionFind::new(n);
    let mut key_freq: HashMap<String, u32> = HashMap::new();
    for r in records {
        for (key, strong) in pivot_keys(r, LinkingPivots::ALL) {
            if !strong {
                *key_freq.entry(key).or_default() += 1;
            }
        }
    }
    let mut by_key: HashMap<String, usize> = HashMap::new();
    for (i, r) in records.iter().enumerate() {
        for (key, strong) in pivot_keys(r, LinkingPivots::ALL) {
            if !strong && key_freq.get(&key).copied().unwrap_or(0) > WEAK_KEY_CAP {
                continue;
            }
            match by_key.get(&key) {
                Some(&j) => {
                    uf.union(i, j);
                }
                None => {
                    by_key.insert(key, i);
                }
            }
        }
    }
    let mut dense: HashMap<usize, u32> = HashMap::new();
    let cluster_of = (0..n)
        .map(|i| {
            let root = uf.find(i);
            let next = dense.len() as u32;
            *dense.entry(root).or_insert(next)
        })
        .collect();
    cluster_of
}

/// Build the store over `cfg`'s world and hold every entry to the oracle.
fn check(cfg: WorldConfig) {
    let world = World::generate(cfg);
    let out = Pipeline::default().run(&world, &Obs::noop());
    let snap = IntelSnapshot::build(&out);
    let oracle = oracle_clusters(&out.records);
    assert_eq!(snap.len(), oracle.len());
    for ((e, r), &cluster) in snap.entries().iter().zip(&out.records).zip(&oracle) {
        assert_eq!(e.post_id, r.curated.post_id);
        assert_eq!(e.cluster, cluster, "post {:?}: {}", e.post_id, e.text);
    }
    let n_clusters = oracle.iter().max().map_or(0, |&c| c as usize + 1);
    assert_eq!(snap.cluster_count(), n_clusters);
    assert!(n_clusters > 1 && n_clusters < snap.len());
}

#[test]
fn link_clusters_match_the_pivot_string_oracle_at_test_scale() {
    check(WorldConfig::test_scale(41));
}

#[test]
fn link_clusters_match_the_pivot_string_oracle_at_scale_0125() {
    check(WorldConfig {
        scale: 0.125,
        ..WorldConfig::default()
    });
}
