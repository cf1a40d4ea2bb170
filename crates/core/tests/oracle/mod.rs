//! Reference kernel for `linking::cluster_by_keys`.
//!
//! `cluster_by_keys` takes dense key ids and keeps its weak counts and
//! first-seen records in arrays. This is the code it replaced, kept
//! verbatim as a test oracle: the same two passes, generic over any
//! hashable key, with both tables in `HashMap`s. Both must give every
//! record the same cluster id on every input.

use smishing_core::analysis::linking::WEAK_KEY_CAP;
use smishing_stats::unionfind::UnionFind;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::Hash;

/// The anti-hub clusterer over hashable keys: returns each record's
/// cluster id, dense in order of first appearance, and the number of
/// clusters.
pub fn cluster_by_keys<K, I>(n: usize, keys_of: impl Fn(usize) -> I) -> (Vec<usize>, usize)
where
    K: Hash + Eq,
    I: IntoIterator<Item = (K, bool)>,
{
    let mut weak_freq: HashMap<K, u32> = HashMap::new();
    for i in 0..n {
        for (key, strong) in keys_of(i) {
            if !strong {
                *weak_freq.entry(key).or_default() += 1;
            }
        }
    }
    let mut uf = UnionFind::new(n);
    let mut first: HashMap<K, usize> = HashMap::new();
    for i in 0..n {
        for (key, strong) in keys_of(i) {
            if !strong && weak_freq[&key] > WEAK_KEY_CAP {
                continue;
            }
            match first.entry(key) {
                Entry::Occupied(e) => {
                    uf.union(i, *e.get());
                }
                Entry::Vacant(e) => {
                    e.insert(i);
                }
            }
        }
    }
    (uf.clusters(), uf.components())
}
