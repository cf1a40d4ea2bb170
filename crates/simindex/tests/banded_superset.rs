//! The candidate generator's contracts, property-tested over corpora
//! produced by real pipeline runs across shard counts {1, 4} and fault
//! profiles {none, mild} (the same grid `index_equivalence.rs` pins for
//! the exact indexes), for both the default and a coarse 4-band
//! configuration:
//!
//! - candidates *equal* the reference: a per-band bucket union built
//!   here;
//! - candidates ⊇ the brute-force linear scan at the pigeonhole guarantee
//!   radius (`bands − 1` differing bits);
//! - template clustering equals an all-pairs pass with no shortcuts.

use proptest::prelude::*;
use smishing_core::exec::ExecPlan;
use smishing_core::pipeline::Pipeline;
use smishing_fault::FaultPlan;
use smishing_obs::Obs;
use smishing_simindex::{hamming, SimConfig, SimIndex};
use smishing_stats::unionfind::UnionFind;
use smishing_textnlp::ngram::jaccard;
use smishing_worldsim::{World, WorldConfig};
use std::collections::{HashMap, HashSet};
use std::sync::OnceLock;

/// (shards, mild faults?) — the grid the satellite pins.
const CONFIGS: [(usize, bool); 4] = [(1, false), (4, false), (1, true), (4, true)];

struct Built {
    texts: Vec<String>,
    default_idx: Indexed,
    coarse_idx: Indexed,
}

/// An index next to the reference generator: per band, every doc
/// bucketed by its band key.
struct Indexed {
    idx: SimIndex,
    buckets: Vec<HashMap<u64, Vec<u32>>>,
}

impl Indexed {
    fn new(idx: SimIndex) -> Indexed {
        let bands = idx.config().bands;
        let mut buckets = vec![HashMap::<u64, Vec<u32>>::new(); bands as usize];
        for id in 0..idx.len() as u32 {
            for (b, bucket) in buckets.iter_mut().enumerate() {
                bucket
                    .entry(band_key(idx.sig(id), b as u32, bands))
                    .or_default()
                    .push(id);
            }
        }
        Indexed { idx, buckets }
    }

    /// The union of `sig`'s band buckets, sorted and deduplicated.
    fn bucket_union(&self, sig: u64) -> Vec<u32> {
        let bands = self.idx.config().bands;
        let mut out: Vec<u32> = self
            .buckets
            .iter()
            .enumerate()
            .filter_map(|(b, bucket)| bucket.get(&band_key(sig, b as u32, bands)))
            .flatten()
            .copied()
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }
}

/// The `band`-th `64/bands`-bit key of `sig`.
fn band_key(sig: u64, band: u32, bands: u32) -> u64 {
    let width = 64 / bands;
    (sig >> (band * width)) & (u64::MAX >> (64 - width))
}

fn built(cfg_idx: usize) -> &'static Built {
    static CELLS: [OnceLock<Built>; 4] = [
        OnceLock::new(),
        OnceLock::new(),
        OnceLock::new(),
        OnceLock::new(),
    ];
    CELLS[cfg_idx].get_or_init(|| {
        let (shards, faulty) = CONFIGS[cfg_idx];
        let mut world = World::generate(WorldConfig {
            scale: 0.01,
            seed: 11,
            ..WorldConfig::default()
        });
        if faulty {
            world.set_fault_plan(&FaultPlan::mild(0xFA11));
        }
        let pipeline = Pipeline {
            exec: ExecPlan {
                shards,
                ..ExecPlan::default()
            },
            ..Pipeline::default()
        };
        let out = pipeline.run(&world, &Obs::noop());
        let texts: Vec<String> = out.records.iter().map(|r| r.curated.text.clone()).collect();
        let default_idx = Indexed::new(SimIndex::build(texts.iter().map(|s| s.as_str())));
        let coarse_idx = Indexed::new(SimIndex::build_with(
            texts.iter().map(|s| s.as_str()),
            SimConfig {
                bands: 4,
                ..SimConfig::default()
            },
        ));
        Built {
            texts,
            default_idx,
            coarse_idx,
        }
    })
}

/// The oracle: every indexed document within `radius` bits of `sig`.
fn brute_force_within(idx: &SimIndex, sig: u64, radius: u32) -> Vec<u32> {
    (0..idx.len() as u32)
        .filter(|&i| hamming(sig, idx.sig(i)) <= radius)
        .collect()
}

/// Candidates must equal the bucket union and be a superset of the
/// brute-force scan at the guarantee radius, and everything `nearest`
/// returns must have come from the candidate set while obeying the
/// configured filters.
fn assert_superset(indexed: &Indexed, text: &str) {
    let idx = &indexed.idx;
    let q = idx.query(text);
    if q.is_empty() {
        return;
    }
    let radius = idx.guarantee_radius();
    let listed = idx.candidates(q.sig);
    assert_eq!(
        listed,
        indexed.bucket_union(q.sig),
        "candidates differ from the band-bucket union"
    );
    let cands: HashSet<u32> = listed.into_iter().collect();
    for id in brute_force_within(idx, q.sig, radius) {
        assert!(
            cands.contains(&id),
            "doc {id} lies within guarantee radius {radius} but the banded \
             generator never surfaced it"
        );
    }
    let r = idx.nearest(&q, 5);
    assert_eq!(r.candidates, cands.len(), "candidate count reported");
    for m in &r.matches {
        assert!(cands.contains(&m.id), "match {} not a candidate", m.id);
        assert!(m.hamming <= idx.config().max_hamming);
        assert!(m.jaccard >= idx.config().min_jaccard);
    }
}

/// A deterministic sweep: every seventh corpus text, verbatim, on every
/// config — the non-fuzzed floor under the property below.
#[test]
fn corpus_texts_are_always_covered() {
    for cfg_idx in 0..CONFIGS.len() {
        let b = built(cfg_idx);
        assert!(!b.texts.is_empty(), "pipeline produced a corpus");
        for text in b.texts.iter().step_by(7) {
            assert_superset(&b.default_idx, text);
            assert_superset(&b.coarse_idx, text);
        }
    }
}

/// Shard count and mild faults must not change the similarity index at
/// all: the engine's byte-identity invariant extends to signatures,
/// shingles, and template assignments.
#[test]
fn sharding_and_mild_faults_never_change_the_index() {
    assert_eq!(
        built(0).default_idx.idx,
        built(1).default_idx.idx,
        "shards 1 vs 4"
    );
    assert_eq!(
        built(2).default_idx.idx,
        built(3).default_idx.idx,
        "mild: shards 1 vs 4"
    );
}

/// The reference clustering: every pair that shares a band, lies within
/// `max_hamming` and clears `cluster_jaccard` is an edge, with no
/// same-component shortcut; components are numbered by first appearance.
fn all_pairs_templates(idx: &SimIndex) -> (Vec<u32>, u32) {
    let cfg = idx.config();
    let n = idx.len() as u32;
    let mut uf = UnionFind::new(n as usize);
    for i in 0..n {
        for j in i + 1..n {
            let (a, b) = (idx.sig(i), idx.sig(j));
            let shares_band = (0..cfg.bands)
                .any(|band| band_key(a, band, cfg.bands) == band_key(b, band, cfg.bands));
            if shares_band
                && hamming(a, b) <= cfg.max_hamming
                && jaccard(idx.shingles_of(i), idx.shingles_of(j)) >= cfg.cluster_jaccard
            {
                uf.union(i as usize, j as usize);
            }
        }
    }
    let template = uf.clusters().into_iter().map(|c| c as u32).collect();
    (template, uf.components() as u32)
}

/// Template ids and count equal the all-pairs reference on every corpus
/// of the grid, for both band configurations.
#[test]
fn templates_equal_the_all_pairs_reference() {
    for cfg_idx in 0..CONFIGS.len() {
        let b = built(cfg_idx);
        for indexed in [&b.default_idx, &b.coarse_idx] {
            let idx = &indexed.idx;
            let (template, count) = all_pairs_templates(idx);
            let got: Vec<u32> = (0..idx.len() as u32).map(|i| idx.template_of(i)).collect();
            assert_eq!(
                got,
                template,
                "config {cfg_idx}, {} bands",
                idx.config().bands
            );
            assert_eq!(idx.template_count(), count, "config {cfg_idx}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Fuzzed queries — verbatim, token-appended, and URL-rotated variants
    /// of real corpus texts — get exactly the bucket union and never
    /// escape the superset guarantee.
    #[test]
    fn banded_candidates_cover_the_guarantee_radius(
        cfg_idx in 0usize..CONFIGS.len(),
        pick in 0usize..4096usize,
        salt in 0u64..u64::MAX,
    ) {
        let b = built(cfg_idx);
        prop_assume!(!b.texts.is_empty());
        let base = &b.texts[pick % b.texts.len()];
        let query = match salt % 3 {
            0 => base.clone(),
            // An appended token perturbs the signature a few bits.
            1 => format!("{base} urgent{salt:x}"),
            // Rotating the URL models a campaign moving infrastructure.
            _ => base
                .split_whitespace()
                .map(|w| {
                    if w.contains("://") || w.starts_with("www.") {
                        format!("https://rot-{salt:x}.example/p")
                    } else {
                        w.to_string()
                    }
                })
                .collect::<Vec<_>>()
                .join(" "),
        };
        assert_superset(&b.default_idx, &query);
        assert_superset(&b.coarse_idx, &query);
    }
}
