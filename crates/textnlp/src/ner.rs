//! Brand extraction (§3.3.6).
//!
//! Off-the-shelf NER fails on smishing because of leetspeak evasion and
//! globally unknown entities. The extractor here:
//!
//! 1. normalizes the text ([`crate::normalize`]), defeating `N3tfl!x`-style
//!    evasion,
//! 2. looks up every run of whole words (up to the longest alias's word
//!    count) in a hash map of the normalized aliases and keeps the
//!    lowest-ranked hit. Aliases rank longest first, so "bank of america"
//!    beats "bank". An alias occurs at word boundaries exactly when it
//!    equals such a run, so no substring scan is needed,
//! 3. falls back to edit-distance-1 matching for typo-squatted single-word
//!    aliases (`amazom` → Amazon). Each token and its one-char deletions
//!    are looked up in a SymSpell-style map from the aliases' own
//!    deletion neighbourhoods. Every pair within one edit shares a key
//!    there, and so does a transposition, so each candidate is verified
//!    with an exact edit-distance check.
//!
//! Both lookups are built once, with the [`BrandCatalog`]. Their answers
//! equal a scan of every alias in rank order.

use crate::brands::{Brand, BrandCatalog};
use crate::normalize::normalize_text;
use std::collections::HashMap;

/// Levenshtein distance, early-exiting at > 1 since we only use d ≤ 1.
fn within_edit_one(a: &str, b: &str) -> bool {
    let (la, lb) = (a.chars().count(), b.chars().count());
    if la.abs_diff(lb) > 1 {
        return false;
    }
    let av: Vec<char> = a.chars().collect();
    let bv: Vec<char> = b.chars().collect();
    let (mut i, mut j, mut edits) = (0usize, 0usize, 0usize);
    while i < av.len() && j < bv.len() {
        if av[i] == bv[j] {
            i += 1;
            j += 1;
            continue;
        }
        edits += 1;
        if edits > 1 {
            return false;
        }
        if av.len() == bv.len() {
            i += 1;
            j += 1; // substitution
        } else if av.len() > bv.len() {
            i += 1; // deletion from a
        } else {
            j += 1; // insertion into a
        }
    }
    edits + (av.len() - i) + (bv.len() - j) <= 1
}

/// Calls `f` on `word` and on every string left by deleting one char of
/// it: the word's deletion neighbourhood. Two words within one edit
/// always share a member.
fn for_each_deletion(word: &str, mut f: impl FnMut(&str)) {
    f(word);
    let mut buf = String::with_capacity(word.len());
    for (i, c) in word.char_indices() {
        buf.clear();
        buf.push_str(&word[..i]);
        buf.push_str(&word[i + c.len_utf8()..]);
        f(&buf);
    }
}

/// Shortest alias the exact lookup matches, in bytes.
const MIN_EXACT_LEN: usize = 2;

/// Shortest token, and single-word alias, the fuzzy fallback matches, in
/// bytes.
const MIN_FUZZY_LEN: usize = 5;

/// The normalized aliases and the two lookups [`extract_brand`] answers
/// from, built once with the [`BrandCatalog`].
#[derive(Debug)]
pub(crate) struct AliasIndex {
    /// Each normalized alias with its brand index, longest alias first
    /// (ties alphabetical). A position here is the alias's rank; the
    /// lowest rank wins.
    ranked: Vec<(String, usize)>,
    /// Each alias of at least [`MIN_EXACT_LEN`] bytes → its lowest rank.
    exact: HashMap<String, usize>,
    /// The most words in one alias.
    max_words: usize,
    /// Each single-word alias of at least [`MIN_FUZZY_LEN`] bytes, and
    /// each of its one-char deletions → the lowest ranks of the aliases
    /// that produce it, ascending.
    deletions: HashMap<String, Vec<usize>>,
}

impl AliasIndex {
    /// Index every alias and canonical name of `brands`, each normalized
    /// with [`normalize_text`].
    pub(crate) fn new(brands: &[Brand]) -> AliasIndex {
        let mut ranked: Vec<(String, usize)> = Vec::new();
        for (i, brand) in brands.iter().enumerate() {
            for alias in brand.aliases.iter().chain([&brand.name]) {
                ranked.push((normalize_text(alias), i));
            }
        }
        // Longer aliases first so multi-word matches win.
        ranked.sort_by(|a, b| b.0.len().cmp(&a.0.len()).then_with(|| a.0.cmp(&b.0)));
        let mut exact: HashMap<String, usize> = HashMap::new();
        let mut deletions: HashMap<String, Vec<usize>> = HashMap::new();
        for (rank, (alias, _)) in ranked.iter().enumerate() {
            if alias.len() < MIN_EXACT_LEN || exact.contains_key(alias) {
                continue;
            }
            exact.insert(alias.clone(), rank);
            if alias.len() >= MIN_FUZZY_LEN && !alias.contains(' ') {
                for_each_deletion(alias, |key| {
                    let ranks = deletions.entry(key.to_string()).or_default();
                    if ranks.last() != Some(&rank) {
                        ranks.push(rank);
                    }
                });
            }
        }
        let max_words = exact
            .keys()
            .map(|a| a.split(' ').count())
            .max()
            .unwrap_or(0);
        AliasIndex {
            ranked,
            exact,
            max_words,
            deletions,
        }
    }

    /// The lowest-ranked alias that equals a run of whole words of `norm`
    /// and is not a channel mention.
    fn exact_match(&self, norm: &str) -> Option<usize> {
        let mut spans: Vec<(usize, usize)> = Vec::new();
        let mut start = 0;
        for (i, b) in norm.bytes().enumerate() {
            if b == b' ' {
                spans.push((start, i));
                start = i + 1;
            }
        }
        spans.push((start, norm.len()));
        let mut best: Option<usize> = None;
        for (i, &(from, _)) in spans.iter().enumerate() {
            for &(_, to) in spans[i..].iter().take(self.max_words) {
                let run = &norm[from..to];
                if let Some(&rank) = self.exact.get(run) {
                    if best.is_none_or(|b| rank < b) && !is_channel_mention(norm, run) {
                        best = Some(rank);
                    }
                }
            }
        }
        best
    }

    /// The lowest-ranked single-word alias within one edit of `token`
    /// that is not a channel mention in `norm`.
    fn fuzzy_match(&self, token: &str, norm: &str) -> Option<usize> {
        let mut best: Option<usize> = None;
        for_each_deletion(token, |key| {
            for &rank in self.deletions.get(key).map_or(&[][..], Vec::as_slice) {
                if best.is_some_and(|b| b <= rank) {
                    break;
                }
                let alias = &self.ranked[rank].0;
                if within_edit_one(token, alias) && !is_channel_mention(norm, alias) {
                    best = Some(rank);
                }
            }
        });
        best
    }
}

/// Common words that must never fuzzy-match a brand ("apply" is one edit
/// from "Apple").
const FUZZY_STOPLIST: &[&str] = &[
    "apply", "applies", "applied", "change", "charge", "choose", "please", "amazing", "chases",
    "paying", "ranges", "cause", "phase",
];

/// Messaging channels: a mention like "message me on WhatsApp" is a channel
/// reference, not an impersonation of the channel brand.
fn is_channel_mention(norm: &str, alias: &str) -> bool {
    if alias != "whatsapp" && alias != "telegram" {
        return false;
    }
    for marker in ["on ", "via ", "over "] {
        if norm.contains(&format!("{marker}{alias}")) {
            return true;
        }
    }
    false
}

/// Extract the impersonated brand from a message text (any language — the
/// alias forms are proper names that survive translation).
pub fn extract_brand(text: &str) -> Option<&'static Brand> {
    let norm = normalize_text(text);
    if norm.is_empty() {
        return None;
    }
    let cat = BrandCatalog::global();
    let index = cat.alias_index();
    let rank = index.exact_match(&norm).or_else(|| {
        // Fuzzy fallback: the first token with a match at edit distance 1.
        norm.split(' ')
            .filter(|t| t.len() >= MIN_FUZZY_LEN && !FUZZY_STOPLIST.contains(t))
            .find_map(|t| index.fuzzy_match(t, &norm))
    })?;
    Some(&cat.brands()[index.ranked[rank].1])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_of(text: &str) -> Option<&'static str> {
        extract_brand(text).map(|b| b.name)
    }

    #[test]
    fn plain_mentions() {
        assert_eq!(
            name_of("Your SBI account is blocked, update KYC now"),
            Some("State Bank of India")
        );
        assert_eq!(name_of("Netflix: your payment failed"), Some("Netflix"));
        assert_eq!(name_of("Rabobank: uw pas verloopt"), Some("Rabobank"));
    }

    #[test]
    fn leetspeak_evasion_defeated() {
        // The paper's motivating example.
        assert_eq!(
            name_of("Your N3tfl!x subscription is on hold"),
            Some("Netflix")
        );
        assert_eq!(name_of("AMAZ0N: parcel fee due"), Some("Amazon"));
        assert_eq!(name_of("P4yPal: verify y0ur account"), Some("PayPal"));
    }

    #[test]
    fn multiword_beats_substring() {
        assert_eq!(
            name_of("Bank of America alert: card locked"),
            Some("Bank of America")
        );
        assert_eq!(
            name_of("Royal Mail: your parcel is waiting"),
            Some("Royal Mail")
        );
    }

    #[test]
    fn typo_squats() {
        assert_eq!(
            name_of("Your Amazom order could not be shipped"),
            Some("Amazon")
        );
        assert_eq!(
            name_of("Netflxi account suspended"),
            None,
            "transposition is distance 2"
        );
    }

    #[test]
    fn no_brand() {
        assert_eq!(
            name_of("Hi mum, my phone broke, text me on this number"),
            None
        );
        assert_eq!(name_of(""), None);
    }

    #[test]
    fn word_boundaries_prevent_false_hits() {
        // "upset" contains "ups"? Not at word boundary in normalized text.
        assert_eq!(name_of("I am very upset about this"), None);
        // "fee" must not fuzzy-match "ee".
        assert_eq!(name_of("a small fee applies"), None);
    }

    #[test]
    fn edit_distance_helper() {
        assert!(within_edit_one("amazon", "amazon"));
        assert!(within_edit_one("amazon", "amazom"));
        assert!(within_edit_one("amazon", "amazn"));
        assert!(within_edit_one("amazon", "amazons"));
        assert!(!within_edit_one("amazon", "amzaon")); // transposition = 2 edits
        assert!(!within_edit_one("amazon", "amzn"));
    }
}
