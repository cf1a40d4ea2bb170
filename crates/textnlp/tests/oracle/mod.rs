//! Reference scans for brand extraction and language scoring, and the
//! word folds `normalize` replaced.
//!
//! `extract_brand` and `identify_language` answer by hash lookup. These
//! are the scans they replaced, kept verbatim as test oracles: a
//! substring scan of every normalized alias in rank order with a
//! token × alias edit-distance fallback, and a per-language lexicon loop
//! (plus the URL check's lowercased copy).
//! The lookups must give the same answer on every input, rank order,
//! channel-mention rule and fuzzy stoplist included.
//!
//! `normalize_text` and `ngram::canonical_text` are one word-fold pass
//! over a single buffer. The per-chunk folds they replaced — each chunk
//! trimmed and folded into its own `String`, collected and joined — are
//! kept here verbatim with the token fold they call, so the pass must
//! produce the same bytes on every input. [`fold_text`] generates text
//! shaped to reach the fold's corners, as a pattern for the proptest
//! string strategy.
//!
//! Shared by the textnlp and detect proptests and the core fixture test
//! (the last two include this file by path); each uses part of it.
#![allow(dead_code)]

use smishing_textnlp::langid::dominant_script;
use smishing_textnlp::lexicon::lexicon;
use smishing_textnlp::tokenize::{looks_like_url, words_lower};
use smishing_textnlp::{Brand, BrandCatalog};
use smishing_types::{Language, Script};
use std::sync::OnceLock;

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

/// Normalize one token for brand matching: casefold, fold confusables,
/// drop separators entirely.
///
/// Digit folding only applies to *mixed* tokens (at least one letter):
/// `N3tfl!x` folds, but a standalone amount like `24` stays `24` — folding
/// pure numbers would corrupt ordinary message content.
pub fn normalize_token(token: &str) -> String {
    let has_letter = token.chars().any(|c| c.is_alphabetic());
    let mut out = String::with_capacity(token.len());
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
    out
}

/// Normalize a whole text for brand matching.
///
/// Splits on whitespace (NOT on interior punctuation — `N3tfl!x` must stay
/// one token), trims *edge* sentence punctuation (`renew!` → `renew`), then
/// folds each chunk.
pub fn normalize_text(text: &str) -> String {
    text.split_whitespace()
        .map(|chunk| {
            let trimmed = chunk.trim_matches(|c: char| {
                matches!(
                    c,
                    '.' | ',' | '!' | '?' | ';' | ':' | '"' | '\'' | '(' | ')' | '[' | ']'
                )
            });
            normalize_token(trimmed)
        })
        .filter(|t| !t.is_empty())
        .collect::<Vec<_>>()
        .join(" ")
}

/// The canonical form shingling operates on: URL chunks removed, words
/// normalized, single-space separated.
pub fn canonical_text(text: &str) -> String {
    text.split_whitespace()
        .filter(|chunk| !looks_like_url(chunk))
        .map(|chunk| {
            let trimmed = chunk.trim_matches(|c: char| {
                matches!(
                    c,
                    '.' | ',' | '!' | '?' | ';' | ':' | '"' | '\'' | '(' | ')' | '[' | ']'
                )
            });
            normalize_token(trimmed)
        })
        .filter(|w| !w.is_empty())
        .collect::<Vec<_>>()
        .join(" ")
}

/// A pattern for text the fold must agree on: whitespace chunks joined
/// by runs of Unicode whitespace. Each chunk carries up to two edge
/// punctuation marks either side of one of: Cyrillic and Greek
/// confusables, leet digits and symbols, interior punctuation, a URL
/// form, ASCII or non-ASCII digits, a chunk that folds to nothing, or
/// letters whose lowercase form is longer (in chars or bytes).
pub fn fold_text() -> String {
    let edge = r#"[.,!?;:"'()\[\]]{0,2}"#;
    let url = r"(http://|HTTPS://|hXXp://|hxxp|www\.|WWW\.|bit\.ly/|cutt\.ly/|t\.co/|tinyurl\.com/)?[a-zA-Z0-9-]{0,6}(/x|\.apk|\[\.\]com|a\.b/c|/|\.|\.com)?";
    let chunk = [
        "[a-zA-Zаеорсхуіοαν]{1,8}",
        "[a-zA-Z0-9@$!|€£]{1,8}",
        "[a-zA-Z]{1,4}[-._!|/:'@]{1,2}[a-zA-Z0-9]{1,4}",
        url,
        "[0-9]{1,8}",
        "[٠-٩۰-۹०-९０-９]{1,4}",
        r"(!!|\./|\.\.\.|-|\(\)|'|—|¿\?|\[\])",
        "[a-z\u{130}\u{1e9e}\u{23a}\u{3a3}\u{212a}]{1,4}",
    ]
    .join("|");
    let gap = "[ \t\n\u{a0}\u{85}\u{2003}\u{2028}\u{3000}]{1,3}";
    format!("[ \t\u{3000}]{{0,2}}({edge}({chunk}){edge}{gap}){{0,10}}")
}

/// Every alias and canonical name, normalized, with its brand index:
/// longest first, ties alphabetical, stable in catalog order.
fn alias_index() -> &'static [(String, usize)] {
    static INDEX: OnceLock<Vec<(String, usize)>> = OnceLock::new();
    INDEX.get_or_init(|| {
        let mut index = Vec::new();
        for (i, brand) in BrandCatalog::global().brands().iter().enumerate() {
            for alias in brand.aliases {
                index.push((normalize_text(alias), i));
            }
            index.push((normalize_text(brand.name), i));
        }
        index.sort_by(|a, b| b.0.len().cmp(&a.0.len()).then_with(|| a.0.cmp(&b.0)));
        index
    })
}

/// Every alias and canonical name as the catalog spells it.
pub fn surface_aliases() -> Vec<&'static str> {
    BrandCatalog::global()
        .brands()
        .iter()
        .flat_map(|b| b.aliases.iter().copied().chain([b.name]))
        .collect()
}

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
            j += 1;
        } else if av.len() > bv.len() {
            i += 1;
        } else {
            j += 1;
        }
    }
    edits + (av.len() - i) + (bv.len() - j) <= 1
}

fn contains_at_word_boundary(hay: &str, needle: &str) -> bool {
    let mut start = 0;
    while let Some(pos) = hay[start..].find(needle) {
        let abs = start + pos;
        let before_ok = abs == 0 || hay.as_bytes()[abs - 1] == b' ';
        let after = abs + needle.len();
        let after_ok = after == hay.len() || hay.as_bytes()[after] == b' ';
        if before_ok && after_ok {
            return true;
        }
        start = abs + hay[abs..].chars().next().map(char::len_utf8).unwrap_or(1);
        if start >= hay.len() {
            break;
        }
    }
    false
}

const FUZZY_STOPLIST: &[&str] = &[
    "apply", "applies", "applied", "change", "charge", "choose", "please", "amazing", "chases",
    "paying", "ranges", "cause", "phase",
];

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

/// The brand a scan of every alias finds: the first alias in rank order
/// at word boundaries, else the first token (≥ 5 bytes, off the
/// stoplist) within one edit of a single-word alias of ≥ 5 bytes.
pub fn brand_by_scan(text: &str) -> Option<&'static Brand> {
    let norm = normalize_text(text);
    if norm.is_empty() {
        return None;
    }
    let brands = BrandCatalog::global().brands();
    for (alias, idx) in alias_index() {
        if alias.len() >= 2
            && contains_at_word_boundary(&norm, alias)
            && !is_channel_mention(&norm, alias)
        {
            return Some(&brands[*idx]);
        }
    }
    for token in norm.split(' ') {
        if token.len() < 5 || FUZZY_STOPLIST.contains(&token) {
            continue;
        }
        for (alias, idx) in alias_index() {
            if !alias.contains(' ')
                && alias.len() >= 5
                && within_edit_one(token, alias)
                && !is_channel_mention(&norm, alias)
            {
                return Some(&brands[*idx]);
            }
        }
    }
    None
}

/// The language a loop over every candidate's lexicon scores highest.
pub fn language_by_loop(text: &str) -> Option<Language> {
    let script = dominant_script(text)?;
    let candidates: Vec<Language> = Language::ALL
        .iter()
        .copied()
        .filter(|l| l.script() == script || (script == Script::Han && l.script() == Script::Kana))
        .collect();
    if candidates.is_empty() {
        return None;
    }
    if candidates.len() == 1 {
        return Some(candidates[0]);
    }
    let words = words_lower(text);
    let spaced = !words.is_empty() && words.iter().any(|w| w.chars().count() < 8);
    let lower = text.to_lowercase();
    let mut best: Option<(Language, usize)> = None;
    for &lang in &candidates {
        let lex = lexicon(lang);
        let score = if spaced && script == Script::Latin {
            words.iter().filter(|w| lex.contains(&w.as_str())).count()
        } else {
            lex.iter().filter(|w| lower.contains(*w)).count()
        };
        if score > 0 && best.is_none_or(|(_, s)| score > s) {
            best = Some((lang, score));
        }
    }
    match best {
        Some((lang, _)) => Some(lang),
        None => Some(candidates[0]),
    }
}

/// Whether `token` looks like a URL, by a lowercased copy.
pub fn url_by_lowercase(token: &str) -> bool {
    let t = token.to_ascii_lowercase();
    t.starts_with("http://")
        || t.starts_with("https://")
        || t.starts_with("hxxp")
        || t.starts_with("www.")
        || (t.contains('.') && t.contains('/'))
        || t.contains("[.]")
}

/// `text` with one char edited at char position `at` (modulo its
/// length): 0 substitutes `c`, 1 deletes, 2 inserts `c`, 3 swaps with the
/// next char. Empty text comes back unchanged.
pub fn edit_one(text: &str, kind: u8, at: usize, c: char) -> String {
    let mut chars: Vec<char> = text.chars().collect();
    if chars.is_empty() {
        return String::new();
    }
    let at = at % chars.len();
    match kind % 4 {
        0 => chars[at] = c,
        1 => {
            chars.remove(at);
        }
        2 => chars.insert(at, c),
        _ => {
            if at + 1 < chars.len() {
                chars.swap(at, at + 1);
            }
        }
    }
    chars.into_iter().collect()
}
