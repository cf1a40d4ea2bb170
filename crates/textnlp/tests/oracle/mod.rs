//! Reference scans for brand extraction and language scoring.
//!
//! `extract_brand` and `identify_language` answer by hash lookup. These
//! are the scans they replaced, kept verbatim as test oracles: a
//! substring scan of every normalized alias in rank order with a
//! token × alias edit-distance fallback, and a per-language lexicon loop
//! (plus the URL check's lowercased copy).
//! The lookups must give the same answer on every input, rank order,
//! channel-mention rule and fuzzy stoplist included.
//!
//! Shared by the textnlp proptests and the core fixture test (which
//! includes this file by path); each uses part of it.
#![allow(dead_code)]

use smishing_textnlp::langid::dominant_script;
use smishing_textnlp::lexicon::lexicon;
use smishing_textnlp::tokenize::words_lower;
use smishing_textnlp::{normalize_text, Brand, BrandCatalog};
use smishing_types::{Language, Script};
use std::sync::OnceLock;

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
