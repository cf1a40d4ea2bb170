//! Reference kernels for the near rung.
//!
//! `SimIndex::nearest` scans 64 signatures per block, buckets the ranked
//! docs by Hamming distance and re-ranks lazily; `simhash` counts set bits
//! in byte lanes. These are the code they replaced, kept verbatim as test
//! oracles: one pass that pushes every ranked `(hamming, id)`, a full
//! sort, the Jaccard of every doc in the re-rank budget, and a ±1 vote
//! per shingle and bit. Both must give the same answer on every input,
//! `NearResult`'s stage counts included.

use smishing_simindex::{NearResult, SimIndex, SimMatch, SimQuery};
use smishing_textnlp::ngram::jaccard;

/// The exact band test on `x = q ^ s`.
#[derive(Debug, Clone, Copy)]
struct Bands {
    lo: u64,
    hi: u64,
}

impl Bands {
    fn new(bands: u32) -> Bands {
        let width = 64 / bands;
        let lo = (0..bands).fold(0u64, |m, b| m | 1 << (b * width));
        Bands {
            lo,
            hi: lo << (width - 1),
        }
    }

    fn share(self, x: u64) -> bool {
        x.wrapping_sub(self.lo) & !x & self.hi != 0
    }
}

/// Top-`k` accepted near-duplicates of `q`: one pass over the signatures
/// keeps the band-sharing docs within `max_hamming`, the closest `rerank`
/// get the exact-Jaccard re-rank, and acceptance is at `min_jaccard`.
pub fn nearest(idx: &SimIndex, q: &SimQuery, k: usize) -> NearResult {
    if q.is_empty() || idx.is_empty() || k == 0 {
        return NearResult::default();
    }
    let cfg = idx.config();
    let bands = Bands::new(cfg.bands);
    let mut candidates = 0;
    let mut ranked: Vec<(u32, u32)> = Vec::new();
    for id in 0..idx.len() {
        let s = idx.sig(id as u32);
        let x = q.sig ^ s;
        let shared = bands.share(x);
        candidates += shared as usize;
        let d = x.count_ones();
        if d <= cfg.max_hamming && shared {
            ranked.push((d, id as u32));
        }
    }
    let n_ranked = ranked.len();
    ranked.sort_unstable();
    ranked.truncate(cfg.rerank);
    let n_reranked = ranked.len();
    let mut matches: Vec<SimMatch> = ranked
        .into_iter()
        .filter_map(|(d, id)| {
            let j = jaccard(&q.shingles, idx.shingles_of(id));
            (j >= cfg.min_jaccard).then_some(SimMatch {
                id,
                hamming: d,
                jaccard: j,
            })
        })
        .collect();
    matches.sort_by(|a, b| {
        a.hamming
            .cmp(&b.hamming)
            .then(b.jaccard.total_cmp(&a.jaccard))
            .then(a.id.cmp(&b.id))
    });
    matches.truncate(k);
    NearResult {
        matches,
        candidates,
        ranked: n_ranked,
        reranked: n_reranked,
    }
}

/// SplitMix64 finalizer, as `sig` diffuses shingle hashes.
fn diffuse(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    x
}

/// 64-bit SimHash of a shingle set by a ±1 vote per shingle and bit.
pub fn simhash(shingles: &[u64]) -> u64 {
    let mut votes = [0i32; 64];
    for &s in shingles {
        let h = diffuse(s);
        for (b, v) in votes.iter_mut().enumerate() {
            if (h >> b) & 1 == 1 {
                *v += 1;
            } else {
                *v -= 1;
            }
        }
    }
    let mut sig = 0u64;
    for (b, &v) in votes.iter().enumerate() {
        if v > 0 {
            sig |= 1 << b;
        }
    }
    sig
}
