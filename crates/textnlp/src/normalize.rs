//! Homoglyph / leetspeak normalization (§3.3.6).
//!
//! Scammers write `N3tfl!x` so operator filters and off-the-shelf NER miss
//! the brand. Normalization maps confusable characters to their canonical
//! lowercase ASCII letter and strips separator noise, so `N3tfl!x`,
//! `NETFL1X` and `n-e-t-f-l-i-x` all collapse to `netflix`.
//!
//! This module owns the one word fold the crate and its dependants share:
//! one edge-trim predicate, one token fold and one pass that writes every
//! folded word into a single `String`. [`normalize_text`] (the dedup key,
//! brand NER and the link skeleton) is that pass over every chunk;
//! [`canonical_text`](crate::ngram::canonical_text) (similarity shingles)
//! is the pass that skips URL chunks, and `smishing_detect::featurize`
//! takes its words from `canonical_text`. [`normalize_token`] is the
//! one-token view.

use crate::tokenize::looks_like_url;

/// Map one confusable character to its canonical letter, if any.
fn fold_char(c: char) -> Option<char> {
    let out = match c {
        // Leetspeak digits and symbols.
        '0' => 'o',
        '1' => 'l', // visually closest; '1'→'i' is handled by fuzzy matching
        '3' => 'e',
        '4' => 'a',
        '5' => 's',
        '7' => 't',
        '8' => 'b',
        '@' => 'a',
        '$' => 's',
        '!' => 'i',
        '|' => 'l',
        '€' => 'e',
        '£' => 'l',
        // Common Unicode homoglyphs (Cyrillic/Greek lookalikes).
        'а' => 'a',
        'е' => 'e',
        'о' => 'o',
        'р' => 'p',
        'с' => 'c',
        'х' => 'x',
        'у' => 'y',
        'і' => 'i',
        'ο' => 'o',
        'α' => 'a',
        'ν' => 'v',
        _ => return None,
    };
    Some(out)
}

/// Edge punctuation a whitespace chunk sheds before folding (`renew!` →
/// `renew`); interior punctuation stays, so `N3tfl!x` folds as one token.
fn is_edge_punct(c: char) -> bool {
    matches!(
        c,
        '.' | ',' | '!' | '?' | ';' | ':' | '"' | '\'' | '(' | ')' | '[' | ']'
    )
}

/// Append the fold of one token to `out` (see [`normalize_token`]).
fn fold_token(token: &str, out: &mut String) {
    let has_letter = token.chars().any(|c| c.is_alphabetic());
    for c in token.chars() {
        let c = c.to_lowercase().next().unwrap_or(c);
        let fold = if has_letter { fold_char(c) } else { None };
        if let Some(f) = fold {
            out.push(f);
        } else if c.is_alphanumeric() {
            out.push(c);
        }
        // separators ('-', '.', '_', spaces inside token) vanish
    }
}

/// Normalize one token for brand matching: casefold, fold confusables,
/// drop separators entirely.
///
/// Digit folding only applies to *mixed* tokens (at least one letter):
/// `N3tfl!x` folds, but a standalone amount like `24` stays `24` — folding
/// pure numbers would corrupt ordinary message content.
pub fn normalize_token(token: &str) -> String {
    let mut out = String::with_capacity(token.len());
    fold_token(token, &mut out);
    out
}

/// The one word fold: every whitespace chunk — URL chunks skipped when
/// `skip_urls` — edge-trimmed and folded into one buffer, the non-empty
/// words one space apart. The URL test reads the raw chunk, before any
/// trim or fold erases the `://` or `[.]` that marks it.
pub(crate) fn fold_words(text: &str, skip_urls: bool) -> String {
    let mut out = String::with_capacity(text.len());
    for chunk in text.split_whitespace() {
        if skip_urls && looks_like_url(chunk) {
            continue;
        }
        let mark = out.len();
        if mark > 0 {
            out.push(' ');
        }
        let word = out.len();
        fold_token(chunk.trim_matches(is_edge_punct), &mut out);
        if out.len() == word {
            // The chunk folded to nothing: take back its separator.
            out.truncate(mark);
        }
    }
    out
}

/// Normalize a whole text for brand matching: the word fold over every
/// chunk.
///
/// Splits on whitespace (NOT on interior punctuation — `N3tfl!x` must stay
/// one token), trims *edge* sentence punctuation (`renew!` → `renew`), then
/// folds each chunk.
pub fn normalize_text(text: &str) -> String {
    fold_words(text, false)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn netflix_evasion_from_the_paper() {
        // §3.3.6: "N3tfl!x cannot be detected as Netflix from off-the-shelf
        // models".
        assert_eq!(normalize_token("N3tfl!x"), "netflix");
    }

    #[test]
    fn separator_noise() {
        assert_eq!(normalize_token("n-e-t.f_l-i-x"), "netflix");
        assert_eq!(normalize_token("PAY-TM"), "paytm");
    }

    #[test]
    fn pure_digit_tokens_unfolded() {
        assert_eq!(normalize_token("24"), "24");
        assert_eq!(normalize_token("100"), "100");
    }

    #[test]
    fn leet_digits() {
        assert_eq!(normalize_token("AMAZ0N"), "amazon");
        assert_eq!(normalize_token("PayPa1"), "paypal");
        assert_eq!(normalize_token("5BI"), "sbi");
    }

    #[test]
    fn cyrillic_homoglyphs() {
        assert_eq!(normalize_token("Sаntаnder"), "santander"); // Cyrillic а
    }

    #[test]
    fn plain_tokens_pass_through() {
        assert_eq!(normalize_token("Vodafone"), "vodafone");
        assert_eq!(normalize_token("hsbc"), "hsbc");
    }

    #[test]
    fn whole_text() {
        assert_eq!(
            normalize_text("Your N3tfl!x account: renew!"),
            "your netflix account renew"
        );
    }

    #[test]
    fn edge_punctuation_trims_but_interior_folds() {
        assert_eq!(normalize_text("renew!"), "renew");
        assert_eq!(normalize_text("N3tfl!x!"), "netflix");
        assert_eq!(normalize_text("(urgent)"), "urgent");
    }
}
