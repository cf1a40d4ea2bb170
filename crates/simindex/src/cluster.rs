//! Offline template clustering: connected components over the signature
//! graph.
//!
//! Two indexed texts get an edge when they share a band, their
//! signatures are within the configured Hamming budget *and* their exact
//! n-gram Jaccard clears the (stricter) `cluster_jaccard` floor — the
//! Jaccard gate keeps transitive chaining from welding unrelated
//! templates together. Components are then compacted into dense
//! `template_id`s in first-appearance order, so the assignment is
//! deterministic for a fixed build order.
//!
//! Edge discovery tests every pair on the signature array, so the full
//! pass is quadratic in the corpus; the band and Hamming tests cost a few
//! instructions per pair, and a pair whose endpoints already share a
//! component skips its Jaccard, since the union would change nothing.

use crate::index::{Bands, SimIndex};
use smishing_stats::unionfind::UnionFind;
use smishing_textnlp::ngram::jaccard;
use std::ops::Range;

/// Assign every indexed text a template id via connected components.
/// Returns `(template_of_doc, template_count)`.
pub fn connected_templates(idx: &SimIndex) -> (Vec<u32>, u32) {
    let n = idx.len() as u32;
    let mut uf = UnionFind::new(n as usize);
    let bands = Bands::new(idx.config().bands);
    for i in 0..n {
        link(idx, &mut uf, bands, i, i + 1..n);
    }
    let template: Vec<u32> = uf.clusters().into_iter().map(|c| c as u32).collect();
    (template, uf.components() as u32)
}

/// Incremental template assignment for a rebuild in which *every* doc of
/// `prev` was reused (`old_to_new[old] = Some(new id)`) plus the brand-new
/// docs in `fresh`.
///
/// Produces exactly the [`connected_templates`] partition without
/// re-scanning old↔old pairs: reused docs keep their signatures and
/// shingles, so the old↔old edge set is unchanged — band sharing,
/// Hamming, and Jaccard all depend only on the two endpoints — and its
/// transitive closure is the previous partition, which spanning unions
/// re-impose directly. Only edges incident to a new doc can be new, and
/// each new doc tests every other doc, so every such edge is seen.
///
/// Dense ids come out identical too: [`UnionFind::clusters`] assigns them
/// by first appearance in doc order, independent of union order.
pub fn incremental_templates(
    idx: &SimIndex,
    prev: &SimIndex,
    old_to_new: &[Option<u32>],
    fresh: &[u32],
) -> (Vec<u32>, u32) {
    let n = idx.len() as u32;
    let mut uf = UnionFind::new(n as usize);
    let bands = Bands::new(idx.config().bands);
    // Re-impose the previous partition: union each reused doc with the
    // first reused doc of its previous template.
    let mut first_of: Vec<Option<u32>> = vec![None; prev.template_count() as usize];
    for (old, new) in old_to_new.iter().enumerate() {
        let new = new.expect("incremental templates require every prev doc reused");
        let t = prev.template_of(old as u32) as usize;
        match first_of[t] {
            Some(f) => {
                uf.union(f as usize, new as usize);
            }
            None => first_of[t] = Some(new),
        }
    }
    // Discover the edges incident to new docs, with the same gates as the
    // full pass.
    for &i in fresh {
        link(idx, &mut uf, bands, i, 0..n);
    }
    let template: Vec<u32> = uf.clusters().into_iter().map(|c| c as u32).collect();
    (template, uf.components() as u32)
}

/// Union doc `i` with every other doc in `peers` it has an edge to.
/// Empty-shingle docs never edge: `i` is skipped here, and an empty peer
/// has Jaccard 0 against a non-empty `i`.
fn link(idx: &SimIndex, uf: &mut UnionFind, bands: Bands, i: u32, peers: Range<u32>) {
    let si = idx.shingles_of(i);
    if si.is_empty() {
        return;
    }
    let cfg = idx.config();
    let sig_i = idx.sig(i);
    for j in peers {
        let x = sig_i ^ idx.sig(j);
        // Hamming first: it rejects almost every pair, so the branch
        // predicts well, while about two pairs in three share a band.
        if x.count_ones() > cfg.max_hamming
            || !bands.share(x)
            || j == i
            || uf.connected(i as usize, j as usize)
        {
            continue;
        }
        if jaccard(si, idx.shingles_of(j)) >= cfg.cluster_jaccard {
            uf.union(i as usize, j as usize);
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::index::SimIndex;

    #[test]
    fn singletons_without_similar_peers() {
        let idx = SimIndex::build([
            "win a free cruise, claim your prize today",
            "your electricity bill is overdue, settle now",
            "package delivery failed, reschedule required",
        ]);
        assert_eq!(idx.template_count(), 3);
        let ids: Vec<u32> = (0..3).map(|i| idx.template_of(i)).collect();
        assert_eq!(ids, vec![0, 1, 2], "first-appearance dense ids");
    }

    #[test]
    fn empty_texts_never_cluster_together() {
        let idx = SimIndex::build([
            "https://url-only-one.test/a",
            "https://url-only-two.test/b",
            "actual words in a message here",
        ]);
        assert_ne!(idx.template_of(0), idx.template_of(1));
        assert_eq!(idx.template_count(), 3);
    }

    #[test]
    fn variants_share_a_template_across_url_rotation() {
        let idx = SimIndex::build([
            "Revolut: unusual sign-in detected, secure your account at https://rev-one.top/x now",
            "Revolut: unusual sign-in detected, secure your account at https://rev-two.xyz/y now",
            "totally different message about a dentist appointment on tuesday",
        ]);
        assert_eq!(idx.template_of(0), idx.template_of(1));
        assert_ne!(idx.template_of(0), idx.template_of(2));
        assert_eq!(idx.template_count(), 2);
    }
}
