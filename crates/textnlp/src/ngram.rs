//! Hashed character n-gram shingling — the shared tokenization layer
//! under the similarity index (`smishing-simindex`).
//!
//! The text is first put in canonical form by the word fold
//! [`normalize`](crate::normalize) owns: URL-looking chunks are dropped
//! (tested raw, before any folding erases the `://` that makes them
//! recognizable), each surviving word is normalized (casefold +
//! homoglyph/leetspeak folding), and the words are joined with single
//! spaces. Shingles are 64-bit FNV-1a hashes of every `n`
//! consecutive characters of that canonical string — so a campaign that
//! rotates its landing domain, defangs its spelling, or swaps one word of
//! the template still produces a mostly-overlapping shingle set.
//! Character grams (rather than word grams) matter for SMS-length texts:
//! they yield enough shingles that a one-word paraphrase perturbs only a
//! small fraction of the set, keeping SimHash distances stable.

use crate::normalize::fold_words;
use smishing_types::fnv1a;

/// FNV-1a over a window of chars.
fn fnv1a_chars(chars: &[char]) -> u64 {
    fnv1a(0, chars.iter().copied())
}

/// The canonical form shingling operates on: the word fold of
/// [`normalize_text`](crate::normalize::normalize_text) with URL chunks
/// dropped rather than folded.
///
/// Whitespace chunks stay whole so interior-punctuation evasion
/// (`N3tfl!x`) folds back to the brand.
pub fn canonical_text(text: &str) -> String {
    fold_words(text, true)
}

/// Hash the character n-grams of `text` into a sorted, deduplicated
/// shingle set.
///
/// The set representation (rather than multiset) makes the exact Jaccard
/// used for re-ranking well-defined, and sorting makes intersection a
/// linear merge. Texts shorter than `n` characters collapse to a single
/// whole-string shingle; empty texts — or texts that are all URLs —
/// return an empty set.
pub fn hashed_ngrams(text: &str, n: usize) -> Vec<u64> {
    let n = n.max(1);
    let canonical = canonical_text(text);
    let chars: Vec<char> = canonical.chars().collect();
    let mut out: Vec<u64> = if chars.len() >= n {
        chars.windows(n).map(fnv1a_chars).collect()
    } else if chars.is_empty() {
        Vec::new()
    } else {
        vec![fnv1a_chars(&chars)]
    };
    out.sort_unstable();
    out.dedup();
    out
}

/// Exact Jaccard similarity of two sorted, deduplicated shingle sets.
///
/// Returns 0.0 when either set is empty — an empty text is similar to
/// nothing, including another empty text.
pub fn jaccard(a: &[u64], b: &[u64]) -> f64 {
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    let (mut i, mut j, mut inter) = (0usize, 0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                inter += 1;
                i += 1;
                j += 1;
            }
        }
    }
    let union = a.len() + b.len() - inter;
    inter as f64 / union as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// `fnv1a_chars` as it was before it called `fnv1a`, verbatim.
    fn fnv1a_chars_loop(chars: &[char]) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325_u64;
        for &c in chars {
            h ^= u64::from(u32::from(c));
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    proptest! {
        #[test]
        fn fnv1a_chars_matches_its_former_loop(s in "\\PC{0,24}") {
            let chars: Vec<char> = s.chars().collect();
            prop_assert_eq!(fnv1a_chars(&chars), fnv1a_chars_loop(&chars));
        }
    }

    #[test]
    fn identical_texts_identical_shingles() {
        let a = hashed_ngrams("Your package is waiting, pay the fee", 4);
        let b = hashed_ngrams("Your package is waiting, pay the fee", 4);
        assert_eq!(a, b);
        assert!(!a.is_empty());
    }

    #[test]
    fn url_rotation_does_not_change_shingles() {
        let a = hashed_ngrams("pay the fee at https://evil-one.top/a now", 4);
        let b = hashed_ngrams("pay the fee at https://other-site.xyz/b now", 4);
        assert_eq!(a, b);
    }

    #[test]
    fn short_text_collapses_to_one_shingle() {
        assert_eq!(hashed_ngrams("hi", 4).len(), 1);
        assert_ne!(hashed_ngrams("hi", 4), hashed_ngrams("yo", 4));
    }

    #[test]
    fn empty_and_url_only_texts_are_empty() {
        assert!(hashed_ngrams("", 4).is_empty());
        assert!(hashed_ngrams("https://evil.com/x", 4).is_empty());
    }

    #[test]
    fn jaccard_bounds_and_identity() {
        let a = hashed_ngrams("your bank account has been locked today", 4);
        let b = hashed_ngrams("your bank account has been frozen today", 4);
        let c = hashed_ngrams("lunch at noon?", 4);
        assert!((jaccard(&a, &a) - 1.0).abs() < 1e-12);
        let ab = jaccard(&a, &b);
        assert!(ab > 0.3 && ab < 1.0, "{ab}");
        assert!(jaccard(&a, &c) < 0.2);
        assert_eq!(jaccard(&[], &[]), 0.0);
    }

    #[test]
    fn normalization_folds_evasive_spellings() {
        let a = hashed_ngrams("Netflix account suspended verify now", 4);
        let b = hashed_ngrams("N3tfl!x account suspended verify now", 4);
        assert_eq!(a, b);
    }

    #[test]
    fn canonical_text_is_url_free_and_folded() {
        assert_eq!(
            canonical_text("URGENT: verify N3tfl!x at https://bad.top/x"),
            "urgent verify netflix at"
        );
    }
}
