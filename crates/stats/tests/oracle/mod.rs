//! Reference kernel for `UnionFind::clusters`.
//!
//! `clusters` numbers each root through a root-indexed array. This is
//! the code it replaced, kept verbatim as a test oracle: the same walk,
//! numbering roots through a `HashMap`. Both must assign the same dense
//! first-appearance ids on every input.

use smishing_stats::UnionFind;

/// Cluster assignment: element → compacted cluster id (0-based, in
/// order of first appearance).
pub fn clusters(uf: &mut UnionFind) -> Vec<usize> {
    let n = uf.len();
    let mut map = std::collections::HashMap::new();
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let root = uf.find(i);
        let next = map.len();
        let id = *map.entry(root).or_insert(next);
        out.push(id);
    }
    out
}
