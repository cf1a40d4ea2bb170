//! Property-based tests over the text-analysis stack.

mod oracle;

use proptest::prelude::*;
use smishing_textnlp::annotator::{Annotator, PipelineAnnotator};
use smishing_textnlp::ngram::canonical_text;
use smishing_textnlp::templates::{match_pattern, render_pattern, Fills, TemplateLibrary};
use smishing_textnlp::tokenize::looks_like_url;
use smishing_textnlp::{
    detect_lures, extract_brand, identify_language, normalize_text, normalize_token,
};

proptest! {
    #[test]
    fn nothing_panics_on_arbitrary_text(s in "\\PC{0,120}") {
        let _ = normalize_text(&s);
        let _ = identify_language(&s);
        let _ = extract_brand(&s);
        let _ = detect_lures(&s, None);
        let _ = PipelineAnnotator::new().annotate(&s);
    }

    #[test]
    fn normalization_is_idempotent_and_ascii_lowercase_on_ascii(s in "[ -~]{0,60}") {
        let once = normalize_text(&s);
        prop_assert_eq!(normalize_text(&once), once.clone());
        prop_assert!(once.chars().all(|c| !c.is_ascii_uppercase()));
    }

    #[test]
    fn render_then_match_extracts_the_same_fills(
        brand in "[A-Z][a-z]{2,8}",
        code in "[0-9]{6}",
        amount in "[1-9][0-9]{0,3}",
    ) {
        let pattern = "{brand}: your code is {code}, a charge of £{amount} is pending.";
        let fills = Fills {
            brand: Some(brand.clone()),
            code: Some(code.clone()),
            amount: Some(amount.clone()),
            ..Fills::default()
        };
        let rendered = render_pattern(pattern, &fills);
        let extracted = match_pattern(pattern, &rendered).expect("own rendering matches");
        prop_assert_eq!(extracted.brand.as_deref(), Some(brand.as_str()));
        prop_assert_eq!(extracted.code.as_deref(), Some(code.as_str()));
        prop_assert_eq!(extracted.amount.as_deref(), Some(amount.as_str()));
    }

    #[test]
    fn every_template_renders_without_leftover_placeholders(
        url in "https://[a-z]{3,8}\\.(com|ly)/[a-z0-9]{3,6}",
        name in "[A-Z][a-z]{2,6}",
    ) {
        let fills = Fills {
            brand: Some("Santander".into()),
            url: Some(url),
            name: Some(name),
            amount: Some("£12.00".into()),
            tracking: Some("RM123456789GB".into()),
            code: Some("123456".into()),
            number: Some("+447900000001".into()),
        };
        for t in TemplateLibrary::global().all() {
            let rendered = t.render(&fills);
            prop_assert!(!rendered.contains('{'), "template {}: {}", t.id, rendered);
            let english = t.render_english(&fills);
            prop_assert!(!english.contains('}'), "template {}: {}", t.id, english);
        }
    }

    #[test]
    fn brand_ner_survives_case_and_leet(variant in 0u8..4) {
        let base = "netflix";
        let mutated: String = match variant {
            0 => base.to_uppercase(),
            1 => "N3tflix".to_string(),
            2 => "Netfl1x".to_string(),
            _ => "n-e-t-f-l-i-x".to_string(),
        };
        let text = format!("Your {mutated} subscription is on hold");
        let found = extract_brand(&text).map(|b| b.name);
        prop_assert_eq!(found, Some("Netflix"), "{}", text);
    }

    #[test]
    fn annotation_is_deterministic(s in "[ -~]{0,80}") {
        let a = PipelineAnnotator::new().annotate(&s);
        let b = PipelineAnnotator::new().annotate(&s);
        prop_assert_eq!(a.scam_type, b.scam_type);
        prop_assert_eq!(a.brand, b.brand);
        prop_assert_eq!(a.lures, b.lures);
    }
}

/// Every one-char edit of every single-word alias — each of `a`–`z` and
/// `0` substituted or inserted at each position, each char deleted, each
/// adjacent pair swapped — finds the brand the alias scan finds. This
/// reaches the fuzzy fallback's corners exhaustively: "ciwibank" is one
/// edit from both Citibank and Kiwibank (the lower rank wins), and
/// "phase", one edit from "chase", is on the stoplist.
#[test]
fn brand_lookup_matches_the_alias_scan_on_every_one_edit_alias_variant() {
    let fills: Vec<char> = ('a'..='z').chain(['0']).collect();
    let mut checked = 0usize;
    for alias in oracle::surface_aliases() {
        let alias = alias.to_lowercase();
        if alias.contains(' ') {
            continue;
        }
        for at in 0..alias.chars().count() {
            let mut variants = vec![
                oracle::edit_one(&alias, 1, at, ' '),
                oracle::edit_one(&alias, 3, at, ' '),
            ];
            for &c in &fills {
                variants.push(oracle::edit_one(&alias, 0, at, c));
                variants.push(oracle::edit_one(&alias, 2, at, c));
            }
            for text in variants {
                assert_eq!(
                    extract_brand(&text),
                    oracle::brand_by_scan(&text),
                    "{text:?}"
                );
                checked += 1;
            }
        }
    }
    assert!(checked > 10_000, "{checked} variants");
}

/// Leetspeak spelling of `s`: the digits and symbols normalization folds
/// back.
fn leet(s: &str) -> String {
    s.chars()
        .map(|c| match c {
            'o' | 'O' => '0',
            'e' | 'E' => '3',
            'a' | 'A' => '4',
            's' | 'S' => '5',
            't' | 'T' => '7',
            'i' | 'I' => '!',
            'l' | 'L' => '1',
            c => c,
        })
        .collect()
}

/// Text built around catalog aliases: each alias as written, in leet,
/// uppercased, or one char edited (substitution, deletion, insertion,
/// transposition), optionally after a channel marker, between filler
/// words.
fn alias_text() -> impl Strategy<Value = String> {
    let alias = (
        prop::sample::select(oracle::surface_aliases()),
        0u8..7,
        0usize..40,
        prop::sample::select(vec!['a', 'e', 'o', 'x', '0', '1', '!', 'é']),
        prop::sample::select(vec!["", "", "on ", "via ", "over ", "pay "]),
    )
        .prop_map(|(alias, how, at, c, marker)| {
            let spelled = match how {
                0 => alias.to_string(),
                1 => leet(alias),
                2 => alias.to_uppercase(),
                k => oracle::edit_one(alias, k - 3, at, c),
            };
            format!("{marker}{spelled}")
        });
    (
        prop::collection::vec(alias, 1..4),
        "[a-z]{0,9}( [a-z]{2,8}){0,3}",
    )
        .prop_map(|(aliases, filler)| {
            let mut words = vec![filler];
            for a in aliases {
                words.push(a);
                words.push("your account".to_string());
            }
            words.join(" ")
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn brand_lookup_matches_the_alias_scan_on_arbitrary_text(s in "\\PC{0,120}") {
        prop_assert_eq!(extract_brand(&s), oracle::brand_by_scan(&s), "{:?}", s);
    }

    #[test]
    fn brand_lookup_matches_the_alias_scan_around_aliases(s in alias_text()) {
        prop_assert_eq!(extract_brand(&s), oracle::brand_by_scan(&s), "{:?}", s);
    }

    #[test]
    fn language_lookup_matches_the_lexicon_loop(s in "\\PC{0,120}") {
        prop_assert_eq!(identify_language(&s), oracle::language_by_loop(&s), "{:?}", s);
    }

    #[test]
    fn language_lookup_matches_the_lexicon_loop_on_lexicon_words(
        words in prop::collection::vec(
            prop::sample::select(
                smishing_types::Language::ALL
                    .iter()
                    .flat_map(|&l| smishing_textnlp::lexicon::lexicon(l).iter().copied())
                    .collect::<Vec<_>>(),
            ),
            0..12,
        ),
        shout in 0u8..3,
    ) {
        let text = words.join(" ");
        let text = if shout == 0 { text.to_uppercase() } else { text };
        prop_assert_eq!(identify_language(&text), oracle::language_by_loop(&text), "{:?}", text);
    }

    #[test]
    fn url_check_matches_a_lowercased_copy(t in "(HtTp|hXxP|wWw|[a-z]{0,3})[:/.\\[\\]]{0,4}\\PC{0,12}") {
        prop_assert_eq!(looks_like_url(&t), oracle::url_by_lowercase(&t), "{:?}", t);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// The one-pass word fold writes the bytes the per-chunk folds it
    /// replaced wrote: every chunk, and every non-URL chunk.
    #[test]
    fn word_fold_matches_the_per_chunk_oracle_on_arbitrary_text(s in "\\PC{0,160}") {
        prop_assert_eq!(normalize_text(&s), oracle::normalize_text(&s), "{:?}", s);
        prop_assert_eq!(canonical_text(&s), oracle::canonical_text(&s), "{:?}", s);
        prop_assert_eq!(normalize_token(&s), oracle::normalize_token(&s), "{:?}", s);
    }

    #[test]
    fn word_fold_matches_the_per_chunk_oracle_on_chunked_text(s in oracle::fold_text()) {
        prop_assert_eq!(normalize_text(&s), oracle::normalize_text(&s), "{:?}", s);
        prop_assert_eq!(canonical_text(&s), oracle::canonical_text(&s), "{:?}", s);
        prop_assert_eq!(normalize_token(&s), oracle::normalize_token(&s), "{:?}", s);
    }
}
