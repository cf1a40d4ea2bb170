//! Mergeable accumulator primitive for sharded streaming analysis.
//!
//! The sharded engine (`smishing_core::exec`) splits the report feed across
//! worker shards. At every cut each shard folds its dedup winners once into
//! per-analysis accumulators, and the collector merges the shard states
//! into one result that must equal the batch computation exactly. Plain
//! counts merge by summing ([`Counter::merge`](crate::Counter::merge));
//! analyses that count each *key* once (a URL, a domain, a sender) need
//! [`FirstClaim`].
//!
//! - [`FirstClaim`]: "first writer wins". Batch analyses repeatedly do
//!   `if seen.insert(key) { use this record }` while walking records in
//!   `post_id` order, so the *winning* record for a key is the one with
//!   the smallest `post_id`. `FirstClaim` keeps, per key, the claim with
//!   the minimum claimant id. One domain or sender can span dedup groups
//!   held by different shards, so the minimum is taken again on merge,
//!   which makes `merge` order-independent.
//!
//! It obeys the merge laws (commutative, associative, identity on the
//! empty value) verified by property tests in `smishing-core`.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::Hash;

/// First-writer-wins map with order-independent merge.
///
/// Each `(key, claimant, value)` triple records that the record with id
/// `claimant` would contribute `value` for `key`. The *winner* for a key is
/// the claim with the smallest claimant id — matching batch code that walks
/// records in ascending `post_id` order and keeps the first per key. Only
/// the winner is kept.
#[derive(Debug, Clone)]
pub struct FirstClaim<K: Eq + Hash, V> {
    winners: HashMap<K, (u64, V)>,
}

impl<K: Eq + Hash, V> Default for FirstClaim<K, V> {
    fn default() -> Self {
        FirstClaim {
            winners: HashMap::new(),
        }
    }
}

impl<K: Eq + Hash + Clone + Ord, V> FirstClaim<K, V> {
    /// New empty claim map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a claim; it wins its key if its claimant is the smallest so
    /// far. Panics when the winning claimant claims the key again — a
    /// claimant (post id) claims any key at most once.
    pub fn add(&mut self, key: K, claimant: u64, value: V) {
        match self.winners.entry(key) {
            Entry::Vacant(slot) => {
                slot.insert((claimant, value));
            }
            Entry::Occupied(mut slot) => {
                let held = slot.get().0;
                assert!(
                    held != claimant,
                    "FirstClaim::add: duplicate claimant {claimant}"
                );
                if claimant < held {
                    slot.insert((claimant, value));
                }
            }
        }
    }

    /// The winning claim for `key`, if any: `(claimant, value)` with the
    /// smallest claimant id.
    pub fn winner(&self, key: &K) -> Option<(u64, &V)> {
        self.winners.get(key).map(|(c, v)| (*c, v))
    }

    /// Iterate winners over all keys in unspecified key order.
    pub fn winners(&self) -> impl Iterator<Item = (&K, u64, &V)> {
        self.winners.iter().map(|(k, (c, v))| (k, *c, v))
    }

    /// Winners sorted by claimant id ascending — the order batch code
    /// encounters them when walking records by `post_id`.
    pub fn winners_by_claimant(&self) -> Vec<(&K, u64, &V)> {
        let mut out: Vec<(&K, u64, &V)> = self.winners().collect();
        out.sort_by_key(|&(_, c, _)| c);
        out
    }

    /// Number of claimed keys.
    pub fn len(&self) -> usize {
        self.winners.len()
    }

    /// Whether no claims are held.
    pub fn is_empty(&self) -> bool {
        self.winners.is_empty()
    }

    /// Absorb another claim map: per shared key the smaller claimant wins,
    /// so the winner after merging is the global minimum claimant
    /// regardless of which shard saw it.
    pub fn merge(&mut self, other: FirstClaim<K, V>) {
        for (k, (c, v)) in other.winners {
            self.add(k, c, v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The six orders of three claims.
    const ORDERS: [[usize; 3]; 6] = [
        [0, 1, 2],
        [0, 2, 1],
        [1, 0, 2],
        [1, 2, 0],
        [2, 0, 1],
        [2, 1, 0],
    ];

    fn claims(cs: &[(u64, u32)]) -> FirstClaim<&'static str, u32> {
        let mut fc = FirstClaim::new();
        for &(c, v) in cs {
            fc.add("d.com", c, v);
        }
        fc
    }

    #[test]
    fn first_claim_min_claimant_wins() {
        let all = [(30, 300), (10, 100), (20, 200)];
        for order in ORDERS {
            let cs: Vec<(u64, u32)> = order.iter().map(|&i| all[i]).collect();
            assert_eq!(claims(&cs).winner(&"d.com"), Some((10, &100)), "{cs:?}");
            // Split the claims between two maps at every point and merge
            // in both orders: the minimum claimant wins wherever it was.
            for split in 0..=cs.len() {
                let (a, b) = (claims(&cs[..split]), claims(&cs[split..]));
                let mut ab = a.clone();
                ab.merge(b.clone());
                let mut ba = b;
                ba.merge(a);
                for merged in [ab, ba] {
                    assert_eq!(merged.winner(&"d.com"), Some((10, &100)), "{cs:?}");
                    assert_eq!(merged.len(), 1);
                }
            }
        }
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
