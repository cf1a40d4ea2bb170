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
//! component skips its Jaccard, since the union would change nothing. An
//! epoch rebuild repairs the previous partition instead, testing only
//! the pairs that can have changed ([`repaired_templates`]).

use crate::index::{Bands, SimIndex};
use smishing_stats::unionfind::UnionFind;
use smishing_textnlp::ngram::jaccard;

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

/// Template assignment for a [`SimIndex::rebuild`] of `prev`:
/// `old_to_new[old]` is the new id of each reused doc of `prev`, `None`
/// for a doc that left, and `fresh` lists the brand-new docs.
///
/// Produces exactly the [`connected_templates`] partition while testing
/// only the pairs that can have changed. Reused docs keep their
/// signatures and shingles, and band sharing, Hamming and Jaccard depend
/// only on the two endpoints, so an old↔old edge exists now iff it
/// existed in `prev`, where it joined two docs of one previous component.
/// A component that lost no doc thus keeps every internal edge and is
/// still connected: spanning unions re-impose it. The survivors of a
/// component that lost a doc may have come apart, so they are re-linked
/// among themselves, and only among themselves. Every edge that touches
/// a new doc is found by testing each new doc against every doc.
///
/// Dense ids come out identical too: [`UnionFind::clusters`] assigns them
/// by first appearance in doc order, independent of union order.
pub fn repaired_templates(
    idx: &SimIndex,
    prev: &SimIndex,
    old_to_new: &[Option<u32>],
    fresh: &[u32],
) -> (Vec<u32>, u32) {
    let n = idx.len() as u32;
    let mut uf = UnionFind::new(n as usize);
    let bands = Bands::new(idx.config().bands);
    // The survivors of each previous template, and whether it lost a doc.
    let mut survivors: Vec<Vec<u32>> = vec![Vec::new(); prev.template_count() as usize];
    let mut damaged = vec![false; survivors.len()];
    for (old, new) in old_to_new.iter().enumerate() {
        let t = prev.template_of(old as u32) as usize;
        match *new {
            Some(new) => survivors[t].push(new),
            None => damaged[t] = true,
        }
    }
    for (docs, damaged) in survivors.iter().zip(damaged) {
        if damaged {
            for (k, &i) in docs.iter().enumerate() {
                link(idx, &mut uf, bands, i, docs[k + 1..].iter().copied());
            }
        } else if let Some((&first, rest)) = docs.split_first() {
            for &j in rest {
                uf.union(first as usize, j as usize);
            }
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
fn link(
    idx: &SimIndex,
    uf: &mut UnionFind,
    bands: Bands,
    i: u32,
    peers: impl IntoIterator<Item = u32>,
) {
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
