//! Languages observed in smishing messages.
//!
//! The paper detects 66 languages (§5.3, Table 11), of which 13 have over
//! 100 messages. We model the full top of the distribution plus a long tail
//! large enough to exercise 66-way language identification.

use serde::{Deserialize, Serialize};
use std::fmt;

/// The dominant writing system of a language — the first signal the
/// language identifier in `smishing-textnlp` uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[allow(missing_docs)]
pub enum Script {
    Latin,
    Cyrillic,
    Arabic,
    Devanagari,
    Bengali,
    Gurmukhi,
    Gujarati,
    Tamil,
    Telugu,
    Kannada,
    Malayalam,
    Sinhala,
    Thai,
    Han,
    Kana,
    Hangul,
    Greek,
    Hebrew,
    Georgian,
    Armenian,
    Ethiopic,
    Myanmar,
    Khmer,
    Lao,
}

macro_rules! languages {
    ($( $variant:ident => ($code:literal, $name:literal, $script:ident) ),+ $(,)?) => {
        /// A language, identified by its ISO 639-1 code.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
        #[allow(missing_docs)]
        pub enum Language {
            $($variant),+
        }

        impl Language {
            /// Every language known to the model, in declaration order.
            pub const ALL: &'static [Language] = &[$(Language::$variant),+];

            /// ISO 639-1 two-letter code, the form the paper's tables use.
            pub fn code(self) -> &'static str {
                match self { $(Language::$variant => $code),+ }
            }

            /// English name of the language.
            pub fn name(self) -> &'static str {
                match self { $(Language::$variant => $name),+ }
            }

            /// Dominant writing system.
            pub fn script(self) -> Script {
                match self { $(Language::$variant => Script::$script),+ }
            }

            /// Look up by ISO 639-1 code (case-insensitive).
            pub fn from_code(code: &str) -> Option<Language> {
                let low = code.trim().to_ascii_lowercase();
                Language::ALL.iter().copied().find(|l| l.code() == low)
            }
        }
    };
}

languages! {
    // The 13 languages with >100 messages in the paper, in Table 11 order.
    English => ("en", "English", Latin),
    Spanish => ("es", "Spanish", Latin),
    Dutch => ("nl", "Dutch", Latin),
    French => ("fr", "French", Latin),
    German => ("de", "German", Latin),
    Italian => ("it", "Italian", Latin),
    Indonesian => ("id", "Indonesian", Latin),
    Portuguese => ("pt", "Portuguese", Latin),
    Japanese => ("ja", "Japanese", Kana),
    Hindi => ("hi", "Hindi", Devanagari),
    Tagalog => ("tl", "Tagalog", Latin),
    Mandarin => ("zh", "Mandarin Chinese", Han),
    Turkish => ("tr", "Turkish", Latin),
    // Long tail.
    Arabic => ("ar", "Arabic", Arabic),
    Russian => ("ru", "Russian", Cyrillic),
    Ukrainian => ("uk", "Ukrainian", Cyrillic),
    Polish => ("pl", "Polish", Latin),
    Czech => ("cs", "Czech", Latin),
    Slovak => ("sk", "Slovak", Latin),
    Hungarian => ("hu", "Hungarian", Latin),
    Romanian => ("ro", "Romanian", Latin),
    Bulgarian => ("bg", "Bulgarian", Cyrillic),
    Greek => ("el", "Greek", Greek),
    Swedish => ("sv", "Swedish", Latin),
    Norwegian => ("no", "Norwegian", Latin),
    Danish => ("da", "Danish", Latin),
    Finnish => ("fi", "Finnish", Latin),
    Catalan => ("ca", "Catalan", Latin),
    Galician => ("gl", "Galician", Latin),
    Basque => ("eu", "Basque", Latin),
    Croatian => ("hr", "Croatian", Latin),
    Serbian => ("sr", "Serbian", Cyrillic),
    Slovenian => ("sl", "Slovenian", Latin),
    Lithuanian => ("lt", "Lithuanian", Latin),
    Latvian => ("lv", "Latvian", Latin),
    Estonian => ("et", "Estonian", Latin),
    Korean => ("ko", "Korean", Hangul),
    Vietnamese => ("vi", "Vietnamese", Latin),
    Thai => ("th", "Thai", Thai),
    Malay => ("ms", "Malay", Latin),
    Bengali => ("bn", "Bengali", Bengali),
    Punjabi => ("pa", "Punjabi", Gurmukhi),
    Gujarati => ("gu", "Gujarati", Gujarati),
    Tamil => ("ta", "Tamil", Tamil),
    Telugu => ("te", "Telugu", Telugu),
    Kannada => ("kn", "Kannada", Kannada),
    Malayalam => ("ml", "Malayalam", Malayalam),
    Marathi => ("mr", "Marathi", Devanagari),
    Urdu => ("ur", "Urdu", Arabic),
    Sinhala => ("si", "Sinhala", Sinhala),
    Nepali => ("ne", "Nepali", Devanagari),
    Hebrew => ("he", "Hebrew", Hebrew),
    Persian => ("fa", "Persian", Arabic),
    Swahili => ("sw", "Swahili", Latin),
    Amharic => ("am", "Amharic", Ethiopic),
    Hausa => ("ha", "Hausa", Latin),
    Yoruba => ("yo", "Yoruba", Latin),
    Afrikaans => ("af", "Afrikaans", Latin),
    Burmese => ("my", "Burmese", Myanmar),
    Khmer => ("km", "Khmer", Khmer),
    Lao => ("lo", "Lao", Lao),
    Georgian => ("ka", "Georgian", Georgian),
    Armenian => ("hy", "Armenian", Armenian),
    Azerbaijani => ("az", "Azerbaijani", Latin),
    Kazakh => ("kk", "Kazakh", Cyrillic),
    Uzbek => ("uz", "Uzbek", Latin),
    Albanian => ("sq", "Albanian", Latin),
    Macedonian => ("mk", "Macedonian", Cyrillic),
    Icelandic => ("is", "Icelandic", Latin),
    Maltese => ("mt", "Maltese", Latin),
    Welsh => ("cy", "Welsh", Latin),
    Irish => ("ga", "Irish", Latin),
}

impl fmt::Display for Language {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.code())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn at_least_sixty_six_languages_like_the_paper() {
        assert!(Language::ALL.len() >= 66, "paper detects 66 languages");
    }

    #[test]
    fn codes_are_unique_and_two_letter() {
        let codes: HashSet<_> = Language::ALL.iter().map(|l| l.code()).collect();
        assert_eq!(codes.len(), Language::ALL.len());
        for l in Language::ALL {
            assert_eq!(l.code().len(), 2, "{l:?}");
        }
    }

    #[test]
    fn lookup_round_trips() {
        for l in Language::ALL {
            assert_eq!(Language::from_code(l.code()), Some(*l));
        }
        assert_eq!(Language::from_code("EN"), Some(Language::English));
        assert_eq!(Language::from_code("zz"), None);
    }

    #[test]
    fn script_assignments_spot_checks() {
        assert_eq!(Language::Hindi.script(), Script::Devanagari);
        assert_eq!(Language::Japanese.script(), Script::Kana);
        assert_eq!(Language::Mandarin.script(), Script::Han);
        assert_eq!(Language::Russian.script(), Script::Cyrillic);
    }
}
