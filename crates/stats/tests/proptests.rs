//! Property-based tests for the statistics primitives: bounds, identities
//! and invariants that must hold on *arbitrary* inputs, not just the
//! curated fixtures the unit tests use.

mod oracle;

use proptest::prelude::*;
use smishing_stats::quantile::{five_number_summary, quantile};
use smishing_stats::{
    cohen_kappa, ks_two_sample, mean, median, reservoir_sample, stddev, Counter, UnionFind,
};

fn finite_vec(max_len: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-1.0e6..1.0e6f64, 1..max_len)
}

proptest! {
    // ---- Cohen's kappa ----

    #[test]
    fn kappa_is_bounded(labels in prop::collection::vec(0u8..5, 2..60),
                        flips in prop::collection::vec(0u8..5, 2..60)) {
        let n = labels.len().min(flips.len());
        let a = &labels[..n];
        let b = &flips[..n];
        if let Some(k) = cohen_kappa(a, b) {
            prop_assert!((-1.0..=1.0 + 1e-9).contains(&k), "kappa {k}");
        }
    }

    #[test]
    fn kappa_of_self_agreement_is_perfect(labels in prop::collection::vec(0u8..4, 2..60)) {
        // Degenerate single-label vectors have no chance-corrected kappa.
        if labels.iter().any(|&l| l != labels[0]) {
            let k = cohen_kappa(&labels, &labels).unwrap();
            prop_assert!((k - 1.0).abs() < 1e-9, "self kappa {k}");
        }
    }

    #[test]
    fn kappa_is_symmetric(a in prop::collection::vec(0u8..4, 2..50),
                          b in prop::collection::vec(0u8..4, 2..50)) {
        let n = a.len().min(b.len());
        let (a, b) = (&a[..n], &b[..n]);
        match (cohen_kappa(a, b), cohen_kappa(b, a)) {
            (Some(x), Some(y)) => prop_assert!((x - y).abs() < 1e-9, "{x} vs {y}"),
            (None, None) => {}
            (x, y) => prop_assert!(false, "asymmetric None: {x:?} vs {y:?}"),
        }
    }

    // ---- Kolmogorov–Smirnov ----

    #[test]
    fn ks_statistic_and_p_are_bounded(a in finite_vec(80), b in finite_vec(80)) {
        let r = ks_two_sample(&a, &b).unwrap();
        prop_assert!((0.0..=1.0).contains(&r.statistic), "D {}", r.statistic);
        prop_assert!((0.0..=1.0 + 1e-9).contains(&r.p_value), "p {}", r.p_value);
    }

    #[test]
    fn ks_identical_samples_have_zero_distance(a in finite_vec(80)) {
        let r = ks_two_sample(&a, &a).unwrap();
        prop_assert!(r.statistic.abs() < 1e-12, "D {}", r.statistic);
        prop_assert!(r.p_value > 0.99, "p {}", r.p_value);
    }

    #[test]
    fn ks_disjoint_samples_have_full_distance(a in finite_vec(40)) {
        let shift = 1.0e7;
        let b: Vec<f64> = a.iter().map(|x| x + shift).collect();
        let r = ks_two_sample(&a, &b).unwrap();
        prop_assert!((r.statistic - 1.0).abs() < 1e-12, "D {}", r.statistic);
    }

    // ---- Quantiles ----

    #[test]
    fn quantiles_are_monotone_and_within_range(s in finite_vec(100),
                                               qs in prop::collection::vec(0.0..=1.0f64, 2..6)) {
        let mut qs = qs;
        qs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let lo = s.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = s.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let mut prev = f64::NEG_INFINITY;
        for &q in &qs {
            let v = quantile(&s, q).unwrap();
            prop_assert!(v >= prev - 1e-9, "monotone violated at q={q}");
            prop_assert!((lo - 1e-9..=hi + 1e-9).contains(&v), "{v} outside [{lo},{hi}]");
            prev = v;
        }
    }

    #[test]
    fn five_numbers_are_ordered(s in finite_vec(100)) {
        let (min, q1, med, q3, max) = five_number_summary(&s).unwrap();
        prop_assert!(min <= q1 + 1e-9 && q1 <= med + 1e-9 && med <= q3 + 1e-9 && q3 <= max + 1e-9);
        prop_assert!((median(&s).unwrap() - med).abs() < 1e-12);
    }

    #[test]
    fn mean_lies_within_range_and_stddev_nonnegative(s in finite_vec(100)) {
        let m = mean(&s).unwrap();
        let lo = s.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = s.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!((lo - 1e-6..=hi + 1e-6).contains(&m));
        if let Some(sd) = stddev(&s) {
            prop_assert!(sd >= 0.0);
        }
    }

    // ---- Counter ----

    #[test]
    fn counter_total_and_topk_are_consistent(keys in prop::collection::vec(0u16..50, 0..200),
                                             k in 1usize..12) {
        let c: Counter<u16> = keys.iter().copied().collect();
        prop_assert_eq!(c.total() as usize, keys.len());
        let top = c.top_k(k);
        prop_assert!(top.len() <= k.min(c.distinct()));
        // Sorted descending by count.
        for w in top.windows(2) {
            prop_assert!(w[0].1 >= w[1].1);
        }
        // The head is never smaller than any unreturned tail count.
        if let Some(last) = top.last() {
            if top.len() == k {
                for (key, n) in c.iter() {
                    if !top.iter().any(|(tk, _)| tk == key) {
                        prop_assert!(n <= last.1);
                    }
                }
            }
        }
        // Shares sum to 1 over all keys.
        if !c.is_empty() {
            let sum: f64 = c.iter().map(|(key, _)| c.share(key)).sum();
            prop_assert!((sum - 1.0).abs() < 1e-9, "{sum}");
        }
    }

    // ---- Union-find ----

    #[test]
    fn unionfind_components_decrease_by_successful_unions(
        n in 2usize..40,
        edges in prop::collection::vec((0usize..40, 0usize..40), 0..80),
    ) {
        let mut uf = UnionFind::new(n);
        let mut merges = 0;
        for &(a, b) in &edges {
            let (a, b) = (a % n, b % n);
            if uf.union(a, b) {
                merges += 1;
            }
            prop_assert!(uf.connected(a, b));
        }
        prop_assert_eq!(uf.components(), n - merges);
        // clusters() is a partition into compacted ids: same id exactly
        // when connected, ids are dense 0..components, first-appearance
        // ordered (element 0 always gets id 0).
        let ids = uf.clusters();
        prop_assert_eq!(ids.len(), n);
        prop_assert_eq!(ids[0], 0);
        let max_id = ids.iter().copied().max().unwrap();
        prop_assert_eq!(max_id + 1, uf.components());
        for i in 0..n {
            for j in (i + 1)..n {
                prop_assert_eq!(ids[i] == ids[j], uf.connected(i, j));
            }
        }
    }

    /// The root-indexed numbering equals the `HashMap` one it replaced.
    #[test]
    fn unionfind_clusters_match_the_map_oracle(
        n in 0usize..60,
        edges in prop::collection::vec((0usize..60, 0usize..60), 0..90),
    ) {
        let mut uf = UnionFind::new(n);
        for &(a, b) in &edges {
            if n > 0 {
                uf.union(a % n, b % n);
            }
        }
        let mut copy = uf.clone();
        prop_assert_eq!(uf.clusters(), oracle::clusters(&mut copy));
    }

    // ---- Reservoir sampling ----

    #[test]
    fn reservoir_sample_is_a_subset_of_the_right_size(items in prop::collection::vec(0u32..1000, 0..120),
                                                      k in 0usize..20,
                                                      seed in 0u64..1000) {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(seed);
        let sample = reservoir_sample(items.iter().copied(), k, &mut rng);
        prop_assert_eq!(sample.len(), k.min(items.len()));
        for s in &sample {
            prop_assert!(items.contains(s));
        }
    }
}
