//! Unicode-aware tokenization.
//!
//! Splits on anything that is neither alphanumeric nor an in-word
//! apostrophe/hyphen. URLs are kept whole so downstream stages can skip
//! them when counting stopwords.

/// Tokenize text into word tokens, preserving URL-looking tokens intact.
pub fn tokenize(text: &str) -> Vec<&str> {
    let mut out = Vec::new();
    for raw in text.split_whitespace() {
        if looks_like_url(raw) {
            out.push(raw);
            continue;
        }
        let trimmed = raw.trim_matches(|c: char| !c.is_alphanumeric());
        if trimmed.is_empty() {
            continue;
        }
        // Split interior punctuation except ' and - (don't split "don't").
        let mut start = None;
        for (i, c) in trimmed.char_indices() {
            let wordy = c.is_alphanumeric() || c == '\'' || c == '-';
            match (wordy, start) {
                (true, None) => start = Some(i),
                (false, Some(s)) => {
                    out.push(&trimmed[s..i]);
                    start = None;
                }
                _ => {}
            }
        }
        if let Some(s) = start {
            out.push(&trimmed[s..]);
        }
    }
    out
}

/// Heuristic: does this whitespace-token look like a URL?
pub fn looks_like_url(token: &str) -> bool {
    // Prefixes compare ignoring ASCII case, without a lowercase copy.
    let starts = |prefix: &str| {
        token
            .as_bytes()
            .get(..prefix.len())
            .is_some_and(|head| head.eq_ignore_ascii_case(prefix.as_bytes()))
    };
    starts("http://")
        || starts("https://")
        || starts("hxxp")
        || starts("www.")
        || (token.contains('.') && token.contains('/'))
        || token.contains("[.]")
}

/// Lowercased word tokens with URLs removed — the unit the language
/// identifier and keyword classifiers operate on.
pub fn words_lower(text: &str) -> Vec<String> {
    tokenize(text)
        .into_iter()
        .filter(|t| !looks_like_url(t))
        .map(|t| t.to_lowercase())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_split() {
        assert_eq!(tokenize("Hello, world!"), vec!["Hello", "world"]);
    }

    #[test]
    fn keeps_urls_whole() {
        let toks = tokenize("pay at https://bit.ly/x now");
        assert!(toks.contains(&"https://bit.ly/x"));
    }

    #[test]
    fn keeps_apostrophes_and_hyphens() {
        assert_eq!(tokenize("don't re-send"), vec!["don't", "re-send"]);
    }

    #[test]
    fn splits_interior_punctuation() {
        assert_eq!(
            tokenize("bank:account=locked"),
            vec!["bank", "account", "locked"]
        );
    }

    #[test]
    fn unicode_words() {
        assert_eq!(
            tokenize("Ihr Konto wurde gesperrt"),
            vec!["Ihr", "Konto", "wurde", "gesperrt"]
        );
        assert_eq!(tokenize("あなたの口座"), vec!["あなたの口座"]);
    }

    #[test]
    fn url_prefixes_ignore_ascii_case() {
        for t in [
            "HTTPS://x",
            "Http://x",
            "hXXp://x",
            "WWW.example",
            "a.b/c",
            "evil[.]com",
        ] {
            assert!(looks_like_url(t), "{t}");
        }
        for t in ["http", "wwwexample", "Ħttp://x", "https:", "a.b"] {
            assert!(!looks_like_url(t), "{t}");
        }
    }

    #[test]
    fn words_lower_drops_urls() {
        let ws = words_lower("URGENT visit https://evil.com/x today");
        assert_eq!(ws, vec!["urgent", "visit", "today"]);
    }
}
