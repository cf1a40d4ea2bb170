//! Mergeable accumulator primitives for sharded streaming analysis.
//!
//! The sharded engine (`smishing_core::exec`) splits the report feed across
//! worker shards, each folding its slice into per-analysis accumulators,
//! and periodically merges shard states into one result that must equal the
//! batch computation exactly. Two primitives make that exactness possible:
//!
//! - [`RefCount`]: a multiset with *subtraction*, so a shard can retract a
//!   contribution when a later, lower-`post_id` duplicate displaces the
//!   record that produced it. [`RefCount::to_counter`] emits only keys with
//!   a non-zero count, so a fully retracted key leaves no trace — exactly
//!   as if it had never been counted.
//! - [`FirstClaim`]: "first writer wins" with retraction. Batch analyses
//!   repeatedly do `if seen.insert(key) { use this record }` while walking
//!   records in `post_id` order, so the *winning* record for a key is the
//!   one with the smallest `post_id`. `FirstClaim` keeps every live claim
//!   keyed by claimant id; the winner is always the minimum claimant, which
//!   makes `merge` order-independent and `sub` exact (the next-smallest
//!   claim takes over, even across shard boundaries).
//!
//! Both types obey merge laws (commutative, associative, identity on the
//! empty value) verified by property tests in `smishing-core`.

use std::collections::{BTreeMap, HashMap};
use std::hash::Hash;

use crate::Counter;

/// A multiset over hashable keys supporting exact retraction and merge.
#[derive(Debug, Clone)]
pub struct RefCount<K: Eq + Hash> {
    counts: HashMap<K, u64>,
}

impl<K: Eq + Hash> Default for RefCount<K> {
    fn default() -> Self {
        RefCount {
            counts: HashMap::new(),
        }
    }
}

impl<K: Eq + Hash + Clone + Ord> RefCount<K> {
    /// New empty multiset.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one occurrence of `key`.
    pub fn add(&mut self, key: K) {
        self.add_n(key, 1);
    }

    /// Add `n` occurrences of `key`.
    pub fn add_n(&mut self, key: K, n: u64) {
        if n > 0 {
            *self.counts.entry(key).or_insert(0) += n;
        }
    }

    /// Retract one occurrence of `key`. Panics if the key's count is zero —
    /// a retraction without a matching addition is always an engine bug.
    pub fn sub(&mut self, key: &K) {
        let c = self
            .counts
            .get_mut(key)
            .unwrap_or_else(|| panic!("RefCount::sub on absent key"));
        *c -= 1;
        if *c == 0 {
            self.counts.remove(key);
        }
    }

    /// Count for one key (0 if absent).
    pub fn get(&self, key: &K) -> u64 {
        self.counts.get(key).copied().unwrap_or(0)
    }

    /// Number of distinct keys with a non-zero count.
    pub fn distinct(&self) -> usize {
        self.counts.len()
    }

    /// Total multiplicity across all keys.
    pub fn total(&self) -> u64 {
        self.counts.values().sum()
    }

    /// Whether the multiset is empty.
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// Iterate over `(key, count)` pairs in unspecified order; counts are
    /// always non-zero.
    pub fn iter(&self) -> impl Iterator<Item = (&K, u64)> {
        self.counts.iter().map(|(k, &c)| (k, c))
    }

    /// Absorb another multiset.
    pub fn merge(&mut self, other: RefCount<K>) {
        for (k, c) in other.counts {
            self.add_n(k, c);
        }
    }

    /// Snapshot into a plain [`Counter`] (only non-zero keys appear, so the
    /// result is identical to counting the surviving occurrences directly).
    pub fn to_counter(&self) -> Counter<K> {
        let mut c = Counter::new();
        for (k, n) in self.counts.iter() {
            c.add_n(k.clone(), *n);
        }
        c
    }
}

impl<K: Eq + Hash + Clone + Ord> FromIterator<K> for RefCount<K> {
    fn from_iter<I: IntoIterator<Item = K>>(iter: I) -> Self {
        let mut rc = RefCount::new();
        for k in iter {
            rc.add(k);
        }
        rc
    }
}

/// First-writer-wins map with exact retraction and order-independent merge.
///
/// Each `(key, claimant, value)` triple records that the record with id
/// `claimant` would contribute `value` for `key`. The *winner* for a key is
/// the claim with the smallest claimant id — matching batch code that walks
/// records in ascending `post_id` order and keeps the first per key.
#[derive(Debug, Clone)]
pub struct FirstClaim<K: Eq + Hash, V> {
    claims: HashMap<K, BTreeMap<u64, V>>,
}

impl<K: Eq + Hash, V> Default for FirstClaim<K, V> {
    fn default() -> Self {
        FirstClaim {
            claims: HashMap::new(),
        }
    }
}

impl<K: Eq + Hash + Clone + Ord, V> FirstClaim<K, V> {
    /// New empty claim map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a claim. Panics on a duplicate `(key, claimant)` pair — a
    /// claimant (post id) claims any key at most once.
    pub fn add(&mut self, key: K, claimant: u64, value: V) {
        let prev = self.claims.entry(key).or_default().insert(claimant, value);
        assert!(
            prev.is_none(),
            "FirstClaim::add: duplicate claimant {claimant}"
        );
    }

    /// Retract a claim. Panics if the claim does not exist.
    pub fn sub(&mut self, key: &K, claimant: u64) {
        let per_key = self
            .claims
            .get_mut(key)
            .unwrap_or_else(|| panic!("FirstClaim::sub on absent key"));
        per_key
            .remove(&claimant)
            .unwrap_or_else(|| panic!("FirstClaim::sub on absent claimant {claimant}"));
        if per_key.is_empty() {
            self.claims.remove(key);
        }
    }

    /// The winning claim for `key`, if any: `(claimant, value)` with the
    /// smallest claimant id.
    pub fn winner(&self, key: &K) -> Option<(u64, &V)> {
        self.claims
            .get(key)
            .and_then(|m| m.iter().next())
            .map(|(&c, v)| (c, v))
    }

    /// Iterate winners over all keys in unspecified key order.
    pub fn winners(&self) -> impl Iterator<Item = (&K, u64, &V)> {
        self.claims
            .iter()
            .filter_map(|(k, m)| m.iter().next().map(|(&c, v)| (k, c, v)))
    }

    /// Winners sorted by claimant id ascending — the order batch code
    /// encounters them when walking records by `post_id`.
    pub fn winners_by_claimant(&self) -> Vec<(&K, u64, &V)> {
        let mut out: Vec<(&K, u64, &V)> = self.winners().collect();
        out.sort_by_key(|&(_, c, _)| c);
        out
    }

    /// Number of keys holding at least one live claim.
    pub fn len(&self) -> usize {
        self.claims.len()
    }

    /// Whether no claims are held.
    pub fn is_empty(&self) -> bool {
        self.claims.is_empty()
    }

    /// Absorb another claim map. Claim sets for shared keys are unioned, so
    /// the winner after merging is the global minimum claimant regardless
    /// of which shard saw it.
    pub fn merge(&mut self, other: FirstClaim<K, V>) {
        for (k, m) in other.claims {
            let per_key = self.claims.entry(k).or_default();
            for (c, v) in m {
                let prev = per_key.insert(c, v);
                assert!(prev.is_none(), "FirstClaim::merge: duplicate claimant {c}");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn refcount_add_sub_roundtrip() {
        let mut rc: RefCount<&str> = RefCount::new();
        rc.add("a");
        rc.add("a");
        rc.add("b");
        assert_eq!(rc.get(&"a"), 2);
        rc.sub(&"a");
        rc.sub(&"b");
        assert_eq!(rc.get(&"a"), 1);
        // Fully retracted keys vanish from the counter snapshot.
        let c = rc.to_counter();
        assert_eq!(c.distinct(), 1);
        assert_eq!(c.get(&"b"), 0);
        assert_eq!(rc.total(), 1);
    }

    #[test]
    #[should_panic(expected = "absent key")]
    fn refcount_oversub_panics() {
        let mut rc: RefCount<u8> = RefCount::new();
        rc.sub(&1);
    }

    #[test]
    fn refcount_merge_is_sum() {
        let mut a: RefCount<char> = ['x', 'y'].into_iter().collect();
        let b: RefCount<char> = ['y', 'z'].into_iter().collect();
        a.merge(b);
        assert_eq!(a.get(&'y'), 2);
        assert_eq!(a.distinct(), 3);
    }

    #[test]
    fn first_claim_min_claimant_wins() {
        let mut fc: FirstClaim<&str, u32> = FirstClaim::new();
        fc.add("d.com", 30, 300);
        fc.add("d.com", 10, 100);
        fc.add("d.com", 20, 200);
        assert_eq!(fc.winner(&"d.com"), Some((10, &100)));
        // Retract the winner: the next-smallest claim takes over.
        fc.sub(&"d.com", 10);
        assert_eq!(fc.winner(&"d.com"), Some((20, &200)));
        fc.sub(&"d.com", 20);
        fc.sub(&"d.com", 30);
        assert!(fc.is_empty());
    }

    #[test]
    fn first_claim_merge_resolves_cross_shard_winner() {
        let mut a: FirstClaim<&str, &str> = FirstClaim::new();
        a.add("d.com", 50, "shard-a");
        let mut b: FirstClaim<&str, &str> = FirstClaim::new();
        b.add("d.com", 7, "shard-b");
        b.add("e.org", 9, "shard-b");
        a.merge(b);
        assert_eq!(a.winner(&"d.com"), Some((7, &"shard-b")));
        assert_eq!(a.len(), 2);
        let by_claimant = a.winners_by_claimant();
        assert_eq!(by_claimant[0].1, 7);
        assert_eq!(by_claimant[1].1, 9);
    }

    #[test]
    #[should_panic(expected = "duplicate claimant")]
    fn first_claim_duplicate_claim_panics() {
        let mut fc: FirstClaim<u8, u8> = FirstClaim::new();
        fc.add(1, 5, 0);
        fc.add(1, 5, 1);
    }
}
