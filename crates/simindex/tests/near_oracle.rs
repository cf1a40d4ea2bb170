//! `SimIndex::nearest` and `simhash` against the kernels they replaced
//! (`oracle/mod.rs`): the full sort with a Jaccard for every doc in the
//! re-rank budget, and the ±1 vote loop.
//!
//! - Property: generated corpora with shingle-identical duplicates
//!   (Jaccard-1.0 ties across ids), chained template variants and empty
//!   or URL-only docs, over every band count that divides 64 in
//!   {1, 2, 4, 8, 16, 64}, re-rank budgets 0..=8 and 48, Hamming radii up
//!   to `u32::MAX` and `k` in {1, 2, 3, 5, 64}: the whole `NearResult`
//!   is equal, stage counts included.
//! - Property: `simhash` on up to 1,100 arbitrary hashes, on a few hashes
//!   repeated up to 1,100 times (a bit's count passes the 255-shingle
//!   spill) and on small even sets, where a bit's count can tie at
//!   exactly half.
//! - Fixture: every entry text of a pipeline-built corpus, generated ham
//!   and one-word-dropped variants, on the default and a 4-band index.

mod oracle;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use smishing_core::pipeline::Pipeline;
use smishing_obs::Obs;
use smishing_simindex::{simhash, SimConfig, SimIndex};
use smishing_textnlp::ham::generate_ham;
use smishing_worldsim::{World, WorldConfig};

const KS: [usize; 5] = [1, 2, 3, 5, 64];

/// Lure templates the generated corpora vary.
const TEMPLATES: [&str; 5] = [
    "USPS: your parcel is held at the depot, pay the customs fee to release it today",
    "Chase alert: your account has been locked, verify your identity immediately or lose access",
    "Hi mum, this is my new number, my old phone broke, text me back when you can",
    "Your toll balance is overdue, settle the outstanding amount now to avoid a penalty",
    "Congratulations, you have won a gift card, claim your reward before it expires tonight",
];

/// `text` with word `at` (modulo the word count) removed.
fn drop_word(text: &str, at: usize) -> String {
    let words: Vec<&str> = text.split_whitespace().collect();
    if words.len() < 2 {
        return text.to_string();
    }
    let at = at % words.len();
    words
        .iter()
        .enumerate()
        .filter(|&(i, _)| i != at)
        .map(|(_, w)| *w)
        .collect::<Vec<_>>()
        .join(" ")
}

/// One generated doc: a template copy under a fresh URL, a one-word
/// edit of the previous doc, an empty or URL-only text, or a template
/// with a word swapped in.
fn doc(kind: u8, template: usize, salt: u32, prev: Option<&str>) -> String {
    let base = TEMPLATES[template % TEMPLATES.len()];
    match kind {
        // Shingle-identical to every other copy of the template: URLs
        // never reach the shingles.
        0 => format!("{base} https://t{salt:x}.example/p"),
        1 => drop_word(prev.unwrap_or(base), salt as usize),
        2 if salt.is_multiple_of(2) => String::new(),
        2 => format!("https://only-{salt:x}.example/x"),
        _ => base.replacen(' ', &format!(" word{} ", salt % 7), 1 + salt as usize % 3),
    }
}

fn corpus(spec: &[(u8, usize, u32)]) -> Vec<String> {
    let mut texts: Vec<String> = Vec::new();
    for &(kind, template, salt) in spec {
        let text = doc(kind, template, salt, texts.last().map(String::as_str));
        texts.push(text);
    }
    texts
}

/// Every `k` in [`KS`]: the index and the oracle agree on `text`.
fn assert_agrees(idx: &SimIndex, text: &str) {
    let q = idx.query(text);
    assert_eq!(simhash(&q.shingles), oracle::simhash(&q.shingles));
    for k in KS {
        assert_eq!(
            idx.nearest(&q, k),
            oracle::nearest(idx, &q, k),
            "k {k}, {:?}, query {text:?}",
            idx.config()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn nearest_equals_the_full_sort_oracle(
        spec in prop::collection::vec((0u8..4, 0usize..TEMPLATES.len(), 0u32..=u32::MAX), 1..40),
        bands in prop::sample::select(vec![1u32, 2, 4, 8, 16, 64]),
        rerank in prop::sample::select(vec![0usize, 1, 2, 3, 4, 5, 6, 7, 8, 48]),
        max_hamming in prop::sample::select(vec![0u32, 5, 20, 64, u32::MAX]),
        min_jaccard in prop::sample::select(vec![0.0f64, 0.30, 0.9]),
        probe in 0u32..=u32::MAX,
    ) {
        let texts = corpus(&spec);
        let cfg = SimConfig {
            bands,
            rerank,
            max_hamming,
            min_jaccard,
            ..SimConfig::default()
        };
        let idx = SimIndex::build_with(texts.iter().map(String::as_str), cfg);
        for text in &texts {
            assert_agrees(&idx, text);
            assert_agrees(&idx, &drop_word(text, probe as usize));
        }
        let template = TEMPLATES[probe as usize % TEMPLATES.len()];
        assert_agrees(&idx, template);
        assert_agrees(&idx, &format!("{template} and one more line"));
    }

    #[test]
    fn simhash_equals_the_vote_loop(shingles in prop::collection::vec(0u64..=u64::MAX, 0..=1100)) {
        prop_assert_eq!(simhash(&shingles), oracle::simhash(&shingles));
    }

    /// A few hashes repeated up to 1,100 times: a bit they all set counts
    /// past 255, which overflows a byte counter not spilled every 255
    /// shingles.
    #[test]
    fn simhash_counts_repeats_past_a_byte(
        distinct in prop::collection::vec(0u64..=u64::MAX, 1..=3),
        n in 0usize..=1100,
    ) {
        let shingles: Vec<u64> = distinct.iter().copied().cycle().take(n).collect();
        prop_assert_eq!(simhash(&shingles), oracle::simhash(&shingles));
    }

    /// With an even count a bit can have exactly half of its hashes set,
    /// a zero tally, which signs to 0. Two distinct hashes tie on every
    /// bit where they differ.
    #[test]
    fn simhash_ties_sign_like_the_vote_loop(
        shingles in prop::collection::vec(0u64..=u64::MAX, 0..=16),
    ) {
        let even = &shingles[..shingles.len() & !1];
        prop_assert_eq!(simhash(even), oracle::simhash(even));
    }
}

/// Every entry text of a pipeline-built corpus, 300 generated ham texts
/// and a one-word-dropped variant of every entry text, on the default
/// and a 4-band index.
#[test]
fn pipeline_corpus_agrees_with_the_oracle() {
    let world = World::generate(WorldConfig {
        scale: 0.02,
        seed: 23,
        ..WorldConfig::default()
    });
    let out = Pipeline::default().run(&world, &Obs::noop());
    let texts: Vec<String> = out.records.iter().map(|r| r.curated.text.clone()).collect();
    assert!(texts.len() > 100, "pipeline produced a corpus");
    let mut rng = StdRng::seed_from_u64(23);
    let ham: Vec<String> = generate_ham(300, &mut rng)
        .into_iter()
        .map(|h| h.text)
        .collect();
    let coarse = SimConfig {
        bands: 4,
        ..SimConfig::default()
    };
    for cfg in [SimConfig::default(), coarse] {
        let idx = SimIndex::build_with(texts.iter().map(String::as_str), cfg);
        for (i, text) in texts.iter().enumerate() {
            assert_agrees(&idx, text);
            assert_agrees(&idx, &drop_word(text, i));
        }
        for text in &ham {
            assert_agrees(&idx, text);
        }
    }
}
