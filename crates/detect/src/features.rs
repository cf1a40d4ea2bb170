//! Feature extraction for SMS texts.
//!
//! Bag-of-words over normalized tokens plus the structural markers the
//! smishing-detection literature uses (§2: URL presence, URL-to-APK,
//! blocklist membership; we add shortener and sender-shape features).
//! The words come from the one word fold `smishing_textnlp::normalize`
//! owns: they are `ngram::canonical_text`'s words (URL chunks dropped,
//! edge punctuation trimmed, homoglyphs and leetspeak folded) minus pure
//! numbers.

use smishing_textnlp::ngram::canonical_text;
use smishing_textnlp::tokenize::looks_like_url;

/// Structural feature tokens (prefixed so they cannot collide with words).
pub mod markers {
    /// The message carries a URL.
    pub const HAS_URL: &str = "\u{1}has_url";
    /// The URL host is a known shortener.
    pub const HAS_SHORTENER: &str = "\u{1}has_shortener";
    /// The URL path ends in `.apk`.
    pub const URL_APK: &str = "\u{1}url_apk";
    /// A currency amount appears.
    pub const HAS_AMOUNT: &str = "\u{1}has_amount";
    /// A long digit run (tracking code / phone number) appears.
    pub const HAS_DIGIT_RUN: &str = "\u{1}has_digit_run";
    /// ALL-CAPS word (screaming) appears.
    pub const HAS_SHOUTING: &str = "\u{1}has_shouting";
}

/// Turn a message text into a feature token vector.
pub fn featurize(text: &str) -> Vec<String> {
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
    // The model's words are the similarity tier's canonical words minus
    // pure numbers (the empty string counts as one, so an empty text
    // yields no word).
    let mut out: Vec<String> = canonical_text(text)
        .split(' ')
        .filter(|w| !w.chars().all(|c| c.is_ascii_digit()))
        .map(str::to_string)
        .collect();

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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn words_and_markers() {
        let f = featurize("URGENT: your account is locked. Visit https://bit.ly/x9 now");
        assert!(f.contains(&"urgent".to_string()));
        assert!(f.contains(&"account".to_string()));
        assert!(f.contains(&markers::HAS_URL.to_string()));
        assert!(f.contains(&markers::HAS_SHORTENER.to_string()));
        assert!(f.contains(&markers::HAS_SHOUTING.to_string()));
    }

    #[test]
    fn apk_marker() {
        let f = featurize("install from download.china-telecom.cn/internet.apk now");
        assert!(f.contains(&markers::URL_APK.to_string()));
    }

    #[test]
    fn ham_has_fewer_markers() {
        let f = featurize("Running 10 mins late, order me a flat white please x");
        assert!(!f.contains(&markers::HAS_URL.to_string()));
        assert!(!f.contains(&markers::HAS_AMOUNT.to_string()));
    }

    #[test]
    fn amount_and_digit_run() {
        let f = featurize("You spent £12.40; parcel JD0012345678 arrives tomorrow");
        assert!(f.contains(&markers::HAS_AMOUNT.to_string()));
        assert!(f.contains(&markers::HAS_DIGIT_RUN.to_string()));
    }

    #[test]
    fn leetspeak_is_normalized_into_words() {
        let f = featurize("N3tfl!x payment failed");
        assert!(f.contains(&"netflix".to_string()), "{f:?}");
    }

    #[test]
    fn pure_numbers_are_dropped_as_words() {
        let f = featurize("code 123456 expires");
        assert!(!f.contains(&"123456".to_string()));
        assert!(f.contains(&markers::HAS_DIGIT_RUN.to_string()));
    }
}
