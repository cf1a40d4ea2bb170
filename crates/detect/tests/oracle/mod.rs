//! The per-chunk featurizer `featurize` replaced, kept verbatim as a test
//! oracle: it trimmed and folded every non-URL chunk itself, where
//! `featurize` now takes `canonical_text`'s words. The two must give the
//! same words and markers in the same order on every input, so the
//! model's weights and scores cannot move.
#![allow(dead_code)]

use smishing_detect::features::markers;
use smishing_textnlp::normalize::normalize_token;
use smishing_textnlp::tokenize::looks_like_url;

/// Turn a message text into a feature token vector.
pub fn featurize(text: &str) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    let mut has_url = false;
    let mut url_apk = false;
    let mut has_shortener = false;

    for raw in text.split_whitespace() {
        if looks_like_url(raw) {
            has_url = true;
            let lower = raw.to_ascii_lowercase();
            if lower.trim_end_matches(['.', ',']).ends_with(".apk") {
                url_apk = true;
            }
            if let Some(parsed) = host_of(&lower) {
                if SHORTENER_HOSTS.contains(&parsed.as_str()) {
                    has_shortener = true;
                }
            }
        }
    }
    for chunk in text.split_whitespace() {
        if looks_like_url(chunk) {
            continue;
        }
        // Whitespace chunks with edge punctuation trimmed — interior
        // punctuation must survive so `N3tfl!x` normalizes to `netflix`.
        let trimmed = chunk.trim_matches(|c: char| {
            matches!(
                c,
                '.' | ',' | '!' | '?' | ';' | ':' | '"' | '\'' | '(' | ')' | '[' | ']'
            )
        });
        let norm = normalize_token(trimmed);
        if !norm.is_empty() && !norm.chars().all(|c| c.is_ascii_digit()) {
            out.push(norm);
        }
    }

    if has_url {
        out.push(markers::HAS_URL.to_string());
    }
    if has_shortener {
        out.push(markers::HAS_SHORTENER.to_string());
    }
    if url_apk {
        out.push(markers::URL_APK.to_string());
    }
    if text
        .chars()
        .any(|c| matches!(c, '£' | '€' | '$' | '₹' | '¥' | '₺' | '₦'))
    {
        out.push(markers::HAS_AMOUNT.to_string());
    }
    if has_digit_run(text, 6) {
        out.push(markers::HAS_DIGIT_RUN.to_string());
    }
    if text.split_whitespace().any(|w| {
        let w = w.trim_matches(|c: char| !c.is_alphanumeric());
        w.len() >= 4 && w.chars().all(|c| c.is_ascii_uppercase())
    }) {
        out.push(markers::HAS_SHOUTING.to_string());
    }
    out
}

/// Local copy of the shortener hosts (a detector ships its own lists; keep
/// this aligned with `smishing_webinfra::shortener::SHORTENER_HOSTS`).
const SHORTENER_HOSTS: &[&str] = &[
    "bit.ly",
    "is.gd",
    "cutt.ly",
    "tinyurl.com",
    "bit.do",
    "shrtco.de",
    "rb.gy",
    "t.ly",
    "bitly.ws",
    "t.co",
    "goo.gl",
    "ow.ly",
    "tiny.cc",
    "rebrand.ly",
    "v.gd",
];

fn host_of(url: &str) -> Option<String> {
    let rest = url
        .strip_prefix("https://")
        .or_else(|| url.strip_prefix("http://"))
        .unwrap_or(url);
    let host = rest.split(['/', '?']).next()?;
    if host.contains('.') {
        Some(host.to_string())
    } else {
        None
    }
}

fn has_digit_run(text: &str, k: usize) -> bool {
    let mut run = 0;
    for c in text.chars() {
        if c.is_ascii_digit() {
            run += 1;
            if run >= k {
                return true;
            }
        } else {
            run = 0;
        }
    }
    false
}
