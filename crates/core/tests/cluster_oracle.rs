//! The dense anti-hub clusterer, held to the `HashMap` kernel it
//! replaced (`oracle::cluster_by_keys`) on random pivot sets: keys that
//! are strong on one record and weak on another, keys repeated within a
//! record, and one weak hub key carried by exactly `WEAK_KEY_CAP - 1` to
//! `WEAK_KEY_CAP + 2` records, so the cap is met exactly and just
//! crossed.

mod oracle;

use proptest::prelude::*;
use smishing_core::analysis::linking::{cluster_by_keys, WEAK_KEY_CAP};

/// Distinct ordinary keys; the hub is key `KEYS`.
const KEYS: usize = 16;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn dense_clusterer_matches_the_map_oracle(
        records in prop::collection::vec(
            prop::collection::vec((0..KEYS, prop::sample::select(vec![false, true])), 0..4),
            0..120,
        ),
        hub in (WEAK_KEY_CAP - 1)..=(WEAK_KEY_CAP + 2),
        offset in 0usize..1000,
    ) {
        let n = records.len();
        // The hub rides on `hub` distinct records (all of them when
        // fewer), starting at a random one.
        let hub = (hub as usize).min(n);
        let on_hub = |i: usize| n > 0 && (i + n - offset % n) % n < hub;
        let keys_of = |i: usize| {
            let hub_key = on_hub(i).then_some((KEYS, false));
            records[i].iter().copied().chain(hub_key)
        };
        let dense = cluster_by_keys(n, KEYS + 1, keys_of);
        prop_assert_eq!(dense, oracle::cluster_by_keys(n, keys_of));
    }
}
