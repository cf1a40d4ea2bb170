//! The flat SimHash index.
//!
//! Layout (all contiguous, no per-entry allocation on the read path):
//!
//! ```text
//! sigs:        [u64; n]                  one signature per indexed text
//! shingle_pool:[u64; Σ shingles]         all shingle sets, back to back
//! shingle_off: [u32; n+1]                text i's shingles = pool[off[i]..off[i+1]]
//! template:    [u32; n]                  connected-components template id
//! ```
//!
//! A query makes one pass over `sigs`. A doc is a candidate when it
//! agrees with the query on at least one whole `64/bands`-bit band,
//! which the `Bands` test reads off `q ^ s` without extracting a key.
//! Candidates within `max_hamming` are ranked by Hamming distance, and
//! the closest survivors re-ranked by exact n-gram Jaccard.
//!
//! The scan is linear in the corpus. Per-band buckets would not make it
//! sublinear: at 16 × 4-bit bands a random signature shares a band with
//! 1 − (15/16)¹⁶ ≈ 64% of the corpus, and unioning that many bucketed ids
//! costs more than reading every signature.

use crate::cluster;
use crate::sig::SimQuery;
use smishing_textnlp::ngram::jaccard;

/// Tuning knobs for the similarity index.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimConfig {
    /// Character n-gram size for shingling.
    pub ngram: usize,
    /// Number of signature bands; must divide 64. Candidate generation is
    /// complete up to Hamming distance `bands - 1`.
    pub bands: u32,
    /// Maximum Hamming distance for a candidate to be rankable.
    pub max_hamming: u32,
    /// Minimum exact n-gram Jaccard for a ranked candidate to be accepted
    /// as a match.
    pub min_jaccard: f64,
    /// Stricter Jaccard floor for template-clustering edges, so transitive
    /// chaining cannot weld unrelated templates together.
    pub cluster_jaccard: f64,
    /// How many Hamming-ranked candidates get the exact-Jaccard re-rank.
    pub rerank: usize,
}

impl Default for SimConfig {
    fn default() -> SimConfig {
        SimConfig {
            ngram: 4,
            bands: 16,
            max_hamming: 20,
            min_jaccard: 0.30,
            cluster_jaccard: 0.40,
            rerank: 48,
        }
    }
}

/// One accepted near-duplicate match.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimMatch {
    /// Index of the matched text (== intel entry id when built over a
    /// snapshot's entries).
    pub id: u32,
    /// Hamming distance between query and matched signatures.
    pub hamming: u32,
    /// Exact n-gram Jaccard similarity in `[0, 1]`.
    pub jaccard: f64,
}

/// Result of a near query: accepted matches plus per-stage candidate
/// accounting — how many docs share a band with the query, how many
/// survived the Hamming filter, and how many got the exact-Jaccard
/// re-rank. `candidates` is the load-shedding signal the bench
/// histograms track; the stage counts let a request trace show where a
/// slow similarity probe spent its work.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct NearResult {
    /// Accepted matches, best first (Hamming asc, then Jaccard desc).
    pub matches: Vec<SimMatch>,
    /// Docs sharing at least one whole band with the query signature.
    pub candidates: usize,
    /// Candidates within `max_hamming` of the query signature.
    pub ranked: usize,
    /// Hamming-ranked candidates that received the exact-Jaccard re-rank
    /// (≤ `rerank`).
    pub reranked: usize,
}

/// One document of a [`SimIndex::rebuild`] call: either new text to
/// shingle and sign from scratch, or a doc id in the previous index whose
/// signature and shingle set carry over unchanged — the reuse that makes
/// an epoch rebuild O(new docs) instead of O(corpus).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DocInput<'a> {
    /// New text: shingle + sign from scratch.
    Text(&'a str),
    /// Carry over the signature and shingles of doc `id` in the previous
    /// index. Each previous doc may be reused at most once.
    Reuse(u32),
}

/// Immutable SimHash index over a corpus of message texts.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimIndex {
    cfg: SimConfig,
    sigs: Vec<u64>,
    shingle_pool: Vec<u64>,
    shingle_off: Vec<u32>,
    template: Vec<u32>,
    n_templates: u32,
}

/// The exact band test. Two signatures share a band iff some
/// `64/bands`-bit field of their XOR `x` is zero. With `lo` and `hi` the
/// low and high bit of every field, `x.wrapping_sub(lo) & !x & hi` is
/// nonzero iff a field of `x` is zero: a borrow starts only at a zero
/// field, so the lowest zero field sets its high bit and no field sets
/// it when none is zero.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Bands {
    lo: u64,
    hi: u64,
}

impl Bands {
    /// The test for `bands` bands; `bands` must divide 64.
    pub(crate) fn new(bands: u32) -> Bands {
        let width = 64 / bands;
        let lo = (0..bands).fold(0u64, |m, b| m | 1 << (b * width));
        Bands {
            lo,
            hi: lo << (width - 1),
        }
    }

    /// Whether the two signatures whose XOR is `x` agree on a whole band.
    pub(crate) fn share(self, x: u64) -> bool {
        x.wrapping_sub(self.lo) & !x & self.hi != 0
    }
}

impl SimIndex {
    /// Build the index over `texts` with the default [`SimConfig`].
    pub fn build<'a, I>(texts: I) -> SimIndex
    where
        I: IntoIterator<Item = &'a str>,
    {
        SimIndex::build_with(texts, SimConfig::default())
    }

    /// Build the index over `texts`. Text order defines doc ids, so two
    /// builds over the same sequence are identical — the property that
    /// makes mid-stream republished indexes answer like batch builds.
    pub fn build_with<'a, I>(texts: I, cfg: SimConfig) -> SimIndex
    where
        I: IntoIterator<Item = &'a str>,
    {
        assert!(
            cfg.bands >= 1 && 64 % cfg.bands == 0,
            "bands must divide 64, got {}",
            cfg.bands
        );
        let mut sigs = Vec::new();
        let mut shingle_pool = Vec::new();
        let mut shingle_off = vec![0u32];
        for text in texts {
            let q = SimQuery::of(text, cfg.ngram);
            sigs.push(q.sig);
            shingle_pool.extend_from_slice(&q.shingles);
            shingle_off.push(shingle_pool.len() as u32);
        }
        let mut idx = SimIndex::pack(cfg, sigs, shingle_pool, shingle_off);
        let (template, n_templates) = cluster::connected_templates(&idx);
        idx.template = template;
        idx.n_templates = n_templates;
        idx
    }

    /// Rebuild the index for a new epoch, inheriting `prev`'s
    /// configuration. [`DocInput::Reuse`] docs copy their signature and
    /// shingle set out of `prev` instead of re-shingling, and when *every*
    /// doc of `prev` is reused (pure growth, no eviction) the template
    /// components update incrementally — only edges incident to new docs
    /// are discovered, and the previous partition is re-imposed by
    /// spanning unions. The result is byte-identical to
    /// [`SimIndex::build_with`] over the equivalent text sequence.
    pub fn rebuild<'a, I>(prev: &SimIndex, docs: I) -> SimIndex
    where
        I: IntoIterator<Item = DocInput<'a>>,
    {
        let cfg = prev.cfg;
        let mut sigs = Vec::new();
        let mut shingle_pool = Vec::new();
        let mut shingle_off = vec![0u32];
        let mut old_to_new: Vec<Option<u32>> = vec![None; prev.len()];
        let mut fresh: Vec<u32> = Vec::new();
        for doc in docs {
            let id = sigs.len() as u32;
            match doc {
                DocInput::Text(text) => {
                    let q = SimQuery::of(text, cfg.ngram);
                    sigs.push(q.sig);
                    shingle_pool.extend_from_slice(&q.shingles);
                    fresh.push(id);
                }
                DocInput::Reuse(old) => {
                    sigs.push(prev.sig(old));
                    shingle_pool.extend_from_slice(prev.shingles_of(old));
                    debug_assert!(
                        old_to_new[old as usize].is_none(),
                        "prev doc {old} reused twice"
                    );
                    old_to_new[old as usize] = Some(id);
                }
            }
            shingle_off.push(shingle_pool.len() as u32);
        }

        let mut idx = SimIndex::pack(cfg, sigs, shingle_pool, shingle_off);
        let all_reused = old_to_new.iter().all(|m| m.is_some());
        let (template, n_templates) = if all_reused {
            cluster::incremental_templates(&idx, prev, &old_to_new, &fresh)
        } else {
            // Some previous doc was evicted: its unions are no longer
            // valid, so rediscover components from scratch (shingling —
            // the expensive part — was still reused above).
            cluster::connected_templates(&idx)
        };
        idx.template = template;
        idx.n_templates = n_templates;
        idx
    }

    /// Assemble the flat layout. Templates are left empty.
    fn pack(
        cfg: SimConfig,
        sigs: Vec<u64>,
        shingle_pool: Vec<u64>,
        shingle_off: Vec<u32>,
    ) -> SimIndex {
        SimIndex {
            cfg,
            sigs,
            shingle_pool,
            shingle_off,
            template: Vec::new(),
            n_templates: 0,
        }
    }

    /// Number of indexed texts.
    pub fn len(&self) -> usize {
        self.sigs.len()
    }

    /// Whether the index holds no texts.
    pub fn is_empty(&self) -> bool {
        self.sigs.is_empty()
    }

    /// The configuration the index was built with.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// Hamming radius within which band-sharing candidate generation is
    /// provably complete (pigeonhole over the bands).
    pub fn guarantee_radius(&self) -> u32 {
        self.cfg.bands - 1
    }

    /// Signature of doc `id`.
    pub fn sig(&self, id: u32) -> u64 {
        self.sigs[id as usize]
    }

    /// Shingle set of doc `id` (sorted, deduplicated).
    pub fn shingles_of(&self, id: u32) -> &[u64] {
        let (a, b) = (
            self.shingle_off[id as usize] as usize,
            self.shingle_off[id as usize + 1] as usize,
        );
        &self.shingle_pool[a..b]
    }

    /// Template (connected-component) id of doc `id`.
    pub fn template_of(&self, id: u32) -> u32 {
        self.template[id as usize]
    }

    /// Number of distinct template ids.
    pub fn template_count(&self) -> u32 {
        self.n_templates
    }

    /// Prepare a query against this index's shingling configuration.
    pub fn query(&self, text: &str) -> SimQuery {
        SimQuery::of(text, self.cfg.ngram)
    }

    /// Every doc sharing at least one whole band with `sig`, ascending.
    /// Superset of all docs within [`Self::guarantee_radius`] of `sig`.
    pub fn candidates(&self, sig: u64) -> Vec<u32> {
        let bands = Bands::new(self.cfg.bands);
        (0..self.len() as u32)
            .filter(|&id| bands.share(sig ^ self.sigs[id as usize]))
            .collect()
    }

    /// Top-`k` accepted near-duplicates of `q`: one pass over the
    /// signatures keeps the band-sharing docs within `max_hamming`, the
    /// closest `rerank` get the exact-Jaccard re-rank, and acceptance is
    /// at `min_jaccard`.
    pub fn nearest(&self, q: &SimQuery, k: usize) -> NearResult {
        if q.is_empty() || self.is_empty() || k == 0 {
            return NearResult::default();
        }
        let bands = Bands::new(self.cfg.bands);
        let mut candidates = 0;
        let mut ranked: Vec<(u32, u32)> = Vec::new();
        for (id, &s) in self.sigs.iter().enumerate() {
            let x = q.sig ^ s;
            let shared = bands.share(x);
            candidates += shared as usize;
            let d = x.count_ones();
            if d <= self.cfg.max_hamming && shared {
                ranked.push((d, id as u32));
            }
        }
        let n_ranked = ranked.len();
        ranked.sort_unstable();
        ranked.truncate(self.cfg.rerank);
        let n_reranked = ranked.len();
        let mut matches: Vec<SimMatch> = ranked
            .into_iter()
            .filter_map(|(d, id)| {
                let j = jaccard(&q.shingles, self.shingles_of(id));
                (j >= self.cfg.min_jaccard).then_some(SimMatch {
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The `band`-th `64/bands`-bit key of `sig`: the per-band reference
    /// the [`Bands`] test must agree with.
    fn band_key(sig: u64, band: u32, bands: u32) -> u64 {
        let width = 64 / bands;
        let mask = u64::MAX >> (64 - width);
        (sig >> (band * width)) & mask
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        /// The zero-field test agrees with comparing every band key, for
        /// every legal band count. ANDing 2–4 random words clears most
        /// bits, so zero fields — the case the test exists for — occur
        /// often, next to plain random XORs.
        #[test]
        fn band_test_matches_per_band_keys(
            a in 0u64..=u64::MAX,
            words in prop::collection::vec(0u64..=u64::MAX, 2..=4),
            sparse in 0u8..2,
        ) {
            let x = if sparse == 1 {
                words.iter().fold(u64::MAX, |m, w| m & w)
            } else {
                words[0]
            };
            let b = a ^ x;
            for bands in [1, 2, 4, 8, 16, 32, 64] {
                let by_keys =
                    (0..bands).any(|band| band_key(a, band, bands) == band_key(b, band, bands));
                prop_assert_eq!(Bands::new(bands).share(x), by_keys, "bands {} x {:#x}", bands, x);
            }
        }
    }

    fn corpus() -> Vec<&'static str> {
        vec![
            "USPS: your parcel is held at the depot, pay the customs fee at https://a.example/1 to release it",
            "USPS: your parcel is held at the depot, pay the customs fee at https://b.example/2 to release it",
            "USPS: your parcel is held at the depot, pay the release fee at https://c.example/3 to release it",
            "Chase alert: your account has been locked, verify your identity at https://d.example/4 immediately",
            "Chase alert: your account has been locked, confirm your identity at https://e.example/5 immediately",
            "Hi grandma, this is my new number, my old phone broke, text me back when you can",
        ]
    }

    #[test]
    fn builds_are_deterministic() {
        let texts = corpus();
        let a = SimIndex::build(texts.iter().copied());
        let b = SimIndex::build(texts.iter().copied());
        assert_eq!(a, b);
        assert_eq!(a.len(), texts.len());
    }

    #[test]
    fn identical_text_is_its_own_nearest_match() {
        // Docs 0 and 1 differ only in URL, so they are shingle-identical;
        // the top match for either is the shingle-equal doc with the
        // lowest id, at Hamming 0 / Jaccard 1.
        let texts = corpus();
        let idx = SimIndex::build(texts.iter().copied());
        for (i, t) in texts.iter().enumerate() {
            let q = idx.query(t);
            let r = idx.nearest(&q, 1);
            let m = r.matches.first().expect("self-match");
            assert_eq!(m.hamming, 0, "{t}");
            assert!((m.jaccard - 1.0).abs() < 1e-12, "{t}");
            assert_eq!(idx.shingles_of(m.id), &q.shingles[..], "{t}");
            assert!(m.id as usize <= i);
        }
    }

    #[test]
    fn rotated_url_variant_matches_its_family() {
        let texts = corpus();
        let idx = SimIndex::build(texts.iter().copied());
        // Same template, fresh URL never indexed.
        let probe = "USPS: your parcel is held at the depot, pay the customs fee at https://zz.example/99 to release it";
        let r = idx.nearest(&idx.query(probe), 3);
        assert!(!r.matches.is_empty());
        assert!(r.matches.iter().all(|m| m.id <= 2), "{:?}", r.matches);
        assert!(r.candidates >= r.matches.len());
    }

    #[test]
    fn stage_accounting_is_monotone() {
        let texts = corpus();
        let idx = SimIndex::build(texts.iter().copied());
        let probe = "USPS: your parcel is held at the depot, pay the customs fee at https://zz.example/99 to release it";
        let r = idx.nearest(&idx.query(probe), 3);
        // Each stage can only shrink the set.
        assert!(r.candidates >= r.ranked, "{r:?}");
        assert!(r.ranked >= r.reranked, "{r:?}");
        assert!(r.reranked >= r.matches.len(), "{r:?}");
        assert!(r.reranked <= idx.config().rerank, "{r:?}");
        assert!(r.ranked > 0, "template family must survive Hamming");
        let empty = idx.nearest(&idx.query(""), 3);
        assert_eq!((empty.candidates, empty.ranked, empty.reranked), (0, 0, 0));
    }

    #[test]
    fn unrelated_text_is_rejected() {
        let idx = SimIndex::build(corpus().iter().copied());
        let r = idx.nearest(&idx.query("lunch tomorrow at the usual place?"), 3);
        assert!(r.matches.is_empty(), "{:?}", r.matches);
    }

    #[test]
    fn empty_query_and_empty_index() {
        let idx = SimIndex::build(corpus().iter().copied());
        assert!(idx
            .nearest(&idx.query("https://only.a.url/x"), 3)
            .matches
            .is_empty());
        let empty = SimIndex::build(std::iter::empty());
        assert!(empty.is_empty());
        assert!(empty
            .nearest(&idx.query("anything at all"), 3)
            .matches
            .is_empty());
    }

    #[test]
    fn candidates_cover_guarantee_radius_brute_force() {
        let texts = corpus();
        let idx = SimIndex::build(texts.iter().copied());
        let r = idx.guarantee_radius();
        for i in 0..idx.len() as u32 {
            let sig = idx.sig(i);
            let cand = idx.candidates(sig);
            for j in 0..idx.len() as u32 {
                if crate::sig::hamming(sig, idx.sig(j)) <= r {
                    assert!(cand.binary_search(&j).is_ok(), "doc {j} within {r} of {i}");
                }
            }
        }
    }

    #[test]
    fn templates_group_families() {
        let texts = corpus();
        let idx = SimIndex::build(texts.iter().copied());
        assert_eq!(idx.template_of(0), idx.template_of(1));
        assert_eq!(idx.template_of(0), idx.template_of(2));
        assert_eq!(idx.template_of(3), idx.template_of(4));
        assert_ne!(idx.template_of(0), idx.template_of(3));
        assert_ne!(idx.template_of(0), idx.template_of(5));
        assert_eq!(idx.template_count(), 3);
    }

    #[test]
    fn bands_four_also_covers_its_radius() {
        let cfg = SimConfig {
            bands: 4,
            ..SimConfig::default()
        };
        let texts = corpus();
        let idx = SimIndex::build_with(texts.iter().copied(), cfg);
        assert_eq!(idx.guarantee_radius(), 3);
        let probe = idx.query(texts[1]);
        let r = idx.nearest(&probe, 1);
        // Doc 0 is shingle-identical to doc 1 (URL-only difference) and
        // wins the tie by id.
        assert_eq!(r.matches.first().map(|m| m.id), Some(0));
        assert_eq!(r.matches.first().map(|m| m.hamming), Some(0));
    }
}
