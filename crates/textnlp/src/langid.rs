//! Language identification (§3.3.6, Table 11).
//!
//! Two stages, like any classical identifier:
//!
//! 1. **Script detection** — count codepoints per Unicode block. A dominant
//!    non-Latin script narrows candidates drastically (Kana → Japanese;
//!    Han without Kana → Mandarin; Devanagari → Hindi/Marathi/Nepali...).
//! 2. **Stopword scoring** — among the candidate set, score lexicon hits
//!    per language and take the argmax (ties break toward the language
//!    with more total probability mass in the corpus, i.e. declaration
//!    order in [`Language::ALL`]). Spaced Latin-script text, the bulk of
//!    the corpus, scores in one pass over its words: each word is looked
//!    up once in a map from lexicon word to the Latin languages listing
//!    it, built on first use.
//!
//! Returns `None` only for empty/URL-only text.

use crate::lexicon::lexicon;
use crate::tokenize::words_lower;
use smishing_types::{Language, Script};
use std::collections::HashMap;
use std::sync::OnceLock;

fn script_of_char(c: char) -> Option<Script> {
    let u = c as u32;
    Some(match u {
        0x0041..=0x024F => Script::Latin,
        0x0370..=0x03FF => Script::Greek,
        0x0400..=0x04FF => Script::Cyrillic,
        0x0530..=0x058F => Script::Armenian,
        0x0590..=0x05FF => Script::Hebrew,
        0x0600..=0x06FF | 0x0750..=0x077F => Script::Arabic,
        0x0900..=0x097F => Script::Devanagari,
        0x0980..=0x09FF => Script::Bengali,
        0x0A00..=0x0A7F => Script::Gurmukhi,
        0x0A80..=0x0AFF => Script::Gujarati,
        0x0B80..=0x0BFF => Script::Tamil,
        0x0C00..=0x0C7F => Script::Telugu,
        0x0C80..=0x0CFF => Script::Kannada,
        0x0D00..=0x0D7F => Script::Malayalam,
        0x0D80..=0x0DFF => Script::Sinhala,
        0x0E00..=0x0E7F => Script::Thai,
        0x0E80..=0x0EFF => Script::Lao,
        0x1000..=0x109F => Script::Myanmar,
        0x10A0..=0x10FF => Script::Georgian,
        0x1200..=0x137F => Script::Ethiopic,
        0x1780..=0x17FF => Script::Khmer,
        0x3040..=0x30FF => Script::Kana,
        0x4E00..=0x9FFF | 0x3400..=0x4DBF => Script::Han,
        0xAC00..=0xD7AF | 0x1100..=0x11FF => Script::Hangul,
        _ => return None,
    })
}

/// The dominant script of a text, by codepoint count over letters.
/// URL tokens are skipped — a short non-Latin smish with a long Latin URL
/// must not come back as Latin-script.
pub fn dominant_script(text: &str) -> Option<Script> {
    let mut counts: Vec<(Script, usize)> = Vec::new();
    let mut has_kana = false;
    for token in text.split_whitespace() {
        if crate::tokenize::looks_like_url(token) {
            continue;
        }
        for c in token.chars() {
            if let Some(s) = script_of_char(c) {
                if s == Script::Kana {
                    has_kana = true;
                }
                match counts.iter_mut().find(|(sc, _)| *sc == s) {
                    Some((_, n)) => *n += 1,
                    None => counts.push((s, 1)),
                }
            }
        }
    }
    // Japanese mixes Kana and Han; any Kana at all marks the text Japanese.
    if has_kana {
        return Some(Script::Kana);
    }
    counts.into_iter().max_by_key(|&(_, n)| n).map(|(s, _)| s)
}

/// Each word of the Latin-script lexicons → the positions of the
/// languages listing it, each once, among the Latin-script languages in
/// [`Language::ALL`] order.
fn latin_words() -> &'static HashMap<&'static str, Vec<usize>> {
    static WORDS: OnceLock<HashMap<&'static str, Vec<usize>>> = OnceLock::new();
    WORDS.get_or_init(|| {
        let latin = Language::ALL.iter().filter(|l| l.script() == Script::Latin);
        let mut by_word: HashMap<&'static str, Vec<usize>> = HashMap::new();
        for (i, &lang) in latin.enumerate() {
            for &word in lexicon(lang) {
                let listing = by_word.entry(word).or_default();
                if listing.last() != Some(&i) {
                    listing.push(i);
                }
            }
        }
        by_word
    })
}

/// Identify the language of a text. `None` for empty/unscriptable input.
pub fn identify_language(text: &str) -> Option<Language> {
    let script = dominant_script(text)?;
    let candidates: Vec<Language> = Language::ALL
        .iter()
        .copied()
        .filter(|l| {
            l.script() == script
                // Han-script text may be Japanese written without kana; keep
                // both candidates and let stopwords decide.
                || (script == Script::Han && l.script() == Script::Kana)
        })
        .collect();
    if candidates.is_empty() {
        return None;
    }
    if candidates.len() == 1 {
        return Some(candidates[0]);
    }

    // Stopword scoring. For scripts without word boundaries (Han, Kana,
    // Thai, Khmer, ...), fall back to substring counting.
    let words = words_lower(text);
    let spaced = !words.is_empty() && words.iter().any(|w| w.chars().count() < 8);
    let scores: Vec<usize> = if spaced && script == Script::Latin {
        // One lookup per word: the candidates are exactly the Latin
        // languages, in `latin_words`' order.
        let mut scores = vec![0; candidates.len()];
        for w in &words {
            for &i in latin_words().get(w.as_str()).map_or(&[][..], Vec::as_slice) {
                scores[i] += 1;
            }
        }
        scores
    } else {
        let lower = text.to_lowercase();
        candidates
            .iter()
            .map(|&lang| lexicon(lang).iter().filter(|w| lower.contains(*w)).count())
            .collect()
    };
    let mut best: Option<(Language, usize)> = None;
    for (&lang, &score) in candidates.iter().zip(&scores) {
        if score > 0 && best.is_none_or(|(_, s)| score > s) {
            best = Some((lang, score));
        }
    }
    match best {
        Some((lang, _)) => Some(lang),
        // No stopword hit: take the most common language of the script
        // (declaration order in Language::ALL encodes corpus frequency).
        None => Some(candidates[0]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn major_latin_languages() {
        let cases = [
            (
                "Your account has been suspended, please click here",
                Language::English,
            ),
            (
                "Su cuenta ha sido bloqueada, haga clic aquí hoy",
                Language::Spanish,
            ),
            (
                "Uw rekening wordt geblokkeerd, klik hier vandaag",
                Language::Dutch,
            ),
            ("Votre compte a été suspendu, cliquez ici", Language::French),
            (
                "Ihr Konto wurde gesperrt, bitte hier klicken",
                Language::German,
            ),
            (
                "Il suo conto è stato bloccato, clicchi qui subito",
                Language::Italian,
            ),
            (
                "Akun Anda telah diblokir, silakan klik di sini segera",
                Language::Indonesian,
            ),
            (
                "Sua conta foi bloqueada, clique aqui hoje",
                Language::Portuguese,
            ),
        ];
        for (text, expect) in cases {
            assert_eq!(identify_language(text), Some(expect), "{text:?}");
        }
    }

    #[test]
    fn script_languages() {
        assert_eq!(
            identify_language("あなたの口座を確認してください"),
            Some(Language::Japanese)
        );
        assert_eq!(
            identify_language("您的账户已被冻结，请点击这里"),
            Some(Language::Mandarin)
        );
        assert_eq!(
            identify_language("आपका खाता बंद है कृपया क्लिक करें"),
            Some(Language::Hindi)
        );
        assert_eq!(
            identify_language("ваш счёт был заблокирован, пожалуйста нажмите здесь"),
            Some(Language::Russian)
        );
        assert_eq!(
            identify_language("حسابك تم إيقافه الرجاء انقر هنا"),
            Some(Language::Arabic)
        );
        assert_eq!(
            identify_language("บัญชีของคุณถูกระงับ กรุณาคลิกที่นี่"),
            Some(Language::Thai)
        );
    }

    #[test]
    fn cyrillic_disambiguation() {
        assert_eq!(
            identify_language("ваш рахунок було заблоковано, натисніть тут терміново"),
            Some(Language::Ukrainian)
        );
        assert_eq!(
            identify_language("вашата сметка беше блокирана, моля кликнете тук днес"),
            Some(Language::Bulgarian)
        );
    }

    #[test]
    fn devanagari_disambiguation() {
        assert_eq!(
            identify_language("तुमचे खाते बंद आहे कृपया येथे क्लिक करा त्वरित"),
            Some(Language::Marathi)
        );
    }

    #[test]
    fn empty_and_url_only() {
        assert_eq!(identify_language(""), None);
        assert_eq!(identify_language("12345 !!!"), None);
    }

    #[test]
    fn urls_do_not_poison_detection() {
        let t = "Su cuenta ha sido bloqueada hoy: https://the-click-here-account.com/please";
        assert_eq!(identify_language(t), Some(Language::Spanish));
    }

    #[test]
    fn all_lexicons_self_identify() {
        // Rendering a sentence purely from a language's lexicon must come
        // back as that language — the invariant the template corpus needs.
        for &lang in Language::ALL {
            let text = crate::lexicon::lexicon(lang).join(" ");
            assert_eq!(identify_language(&text), Some(lang), "{lang:?}: {text}");
        }
    }
}
