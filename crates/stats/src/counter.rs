//! Frequency counting with deterministic top-k.
//!
//! Every "Top 10 ..." table in the paper (Tables 4–8, 11, 12, 14, 17) is a
//! frequency count followed by a top-k cut. [`Counter`] makes the tie-break
//! deterministic (count descending, then key ascending) so that repeated
//! runs and tests produce identical tables.

use std::collections::HashMap;
use std::hash::Hash;

/// A frequency counter over hashable keys.
#[derive(Debug, Clone)]
pub struct Counter<K: Eq + Hash> {
    counts: HashMap<K, u64>,
    total: u64,
}

impl<K: Eq + Hash> Default for Counter<K> {
    fn default() -> Self {
        Counter {
            counts: HashMap::new(),
            total: 0,
        }
    }
}

impl<K: Eq + Hash + Clone + Ord> Counter<K> {
    /// New empty counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Count one occurrence of `key`.
    pub fn add(&mut self, key: K) {
        self.add_n(key, 1);
    }

    /// Count `n` occurrences of `key`.
    pub fn add_n(&mut self, key: K, n: u64) {
        *self.counts.entry(key).or_insert(0) += n;
        self.total += n;
    }

    /// Total number of occurrences counted (with multiplicity).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Number of distinct keys.
    pub fn distinct(&self) -> usize {
        self.counts.len()
    }

    /// Count for a single key (0 if unseen).
    pub fn get(&self, key: &K) -> u64 {
        self.counts.get(key).copied().unwrap_or(0)
    }

    /// Share of the total held by `key`, in `[0, 1]`; 0 when empty.
    pub fn share(&self, key: &K) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.get(key) as f64 / self.total as f64
        }
    }

    /// The `k` most frequent keys with their counts, sorted by count
    /// descending then key ascending (deterministic).
    pub fn top_k(&self, k: usize) -> Vec<(K, u64)> {
        let mut all = self.sorted();
        all.truncate(k);
        all
    }

    /// All (key, count) pairs sorted by count descending then key ascending.
    pub fn sorted(&self) -> Vec<(K, u64)> {
        let mut all: Vec<(K, u64)> = self.counts.iter().map(|(k, &c)| (k.clone(), c)).collect();
        all.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        all
    }

    /// Iterate over raw entries (unspecified order).
    pub fn iter(&self) -> impl Iterator<Item = (&K, u64)> {
        self.counts.iter().map(|(k, &c)| (k, c))
    }

    /// Whether nothing has been counted.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }
}

impl<K: Eq + Hash + Clone + Ord> FromIterator<K> for Counter<K> {
    fn from_iter<I: IntoIterator<Item = K>>(iter: I) -> Self {
        let mut c = Counter::new();
        for k in iter {
            c.add(k);
        }
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_and_shares() {
        let c: Counter<&str> = ["a", "b", "a", "a", "c"].into_iter().collect();
        assert_eq!(c.total(), 5);
        assert_eq!(c.distinct(), 3);
        assert_eq!(c.get(&"a"), 3);
        assert_eq!(c.get(&"z"), 0);
        assert!((c.share(&"a") - 0.6).abs() < 1e-12);
    }

    #[test]
    fn top_k_is_deterministic_on_ties() {
        let c: Counter<&str> = ["b", "a", "c", "a", "b", "c"].into_iter().collect();
        // All tied at 2 — must come back in key order.
        assert_eq!(c.top_k(3), vec![("a", 2), ("b", 2), ("c", 2)]);
        assert_eq!(c.top_k(2), vec![("a", 2), ("b", 2)]);
    }

    #[test]
    fn top_k_larger_than_population() {
        let c: Counter<u8> = [1u8, 1, 2].into_iter().collect();
        assert_eq!(c.top_k(10).len(), 2);
    }

    #[test]
    fn empty_counter() {
        let c: Counter<u32> = Counter::new();
        assert!(c.is_empty());
        assert_eq!(c.share(&1), 0.0);
        assert!(c.top_k(5).is_empty());
    }

    #[test]
    fn add_n_bulk() {
        let mut c = Counter::new();
        c.add_n("bit.ly", 1830);
        c.add_n("is.gd", 1023);
        assert_eq!(c.top_k(1), vec![("bit.ly", 1830)]);
    }
}
