//! The OpenAI-Vision-like structured extractor (§3.2, prompt in Appendix
//! D.1).
//!
//! What the paper's prompt asks for, this extractor does mechanically:
//!
//! - dismiss images that are not SMS screenshots,
//! - return `text`, `url`, `sender-id` and `timestamp` as separate fields,
//! - read bubble lines in true reading order and **rejoin hard-wrapped
//!   words**: a bubble line that is exactly full-width was wrapped
//!   mid-word, so it concatenates with the next line without a space —
//!   inverting the layout engine and recovering complete URLs.

use crate::image::{BlockKind, Extraction, Extractor, Screenshot};
use smishing_types::{fnv1a, FNV_PRIME};

/// The structured (LLM-style) extractor.
#[derive(Debug, Clone, Copy)]
pub struct LlmExtractor {
    seed: u64,
    /// Probability of misjudging whether an image is an SMS screenshot.
    pub discrimination_error: f64,
}

impl LlmExtractor {
    /// Build with a seed.
    pub fn new(seed: u64) -> LlmExtractor {
        LlmExtractor {
            seed,
            discrimination_error: 0.01,
        }
    }

    fn unit(&self, s: &str, salt: u64) -> f64 {
        let h = fnv1a(self.seed.wrapping_mul(FNV_PRIME), s.bytes());
        let h = (h ^ salt).wrapping_mul(FNV_PRIME);
        ((h ^ (h >> 31)) >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Rejoin wrapped bubble lines.
///
/// Only hard-split words (URLs, tracking codes) must be glued back without
/// a space — see [`should_glue`] for the cue cascade. A full-width line
/// that merely ends on a short word keeps its space: "verify at" +
/// "https://…" must not become "athttps://…".
pub(crate) fn rejoin_lines(lines: &[&str], width: usize) -> String {
    let mut out = String::new();
    for (i, line) in lines.iter().enumerate() {
        out.push_str(line);
        if i + 1 < lines.len() && !should_glue(line, lines[i + 1], width) {
            out.push(' ');
        }
    }
    out
}

/// English function words that start lines after a URL that merely ended at
/// the wrap boundary — never glue into these.
const NON_CONTINUATION_WORDS: &[&str] = &[
    "to",
    "the",
    "now",
    "at",
    "or",
    "and",
    "for",
    "today",
    "please",
    "a",
    "in",
    "of",
    "is",
    "it",
    "on",
    "by",
    "x",
    "asap",
    "urgently",
    "immediately",
    // Common sentence enders in the non-English corpus.
    "hoy",
    "aqui",
    "aquí",
    "ahora",
    "vandaag",
    "oggi",
    "hier",
    "heute",
    "segera",
    "ngayon",
    "ici",
];

fn should_glue(line: &str, next: &str, width: usize) -> bool {
    if line.chars().count() < width {
        return false; // not full-width: the wrap broke at a word boundary
    }
    let last = line.rsplit(' ').next().unwrap_or("");
    let urlish = last.contains("://")
        || last.starts_with("www.")
        || last.contains("[.]")
        // The split may land inside the scheme itself ("https:"): prefixes
        // of 4+ chars count; shorter ones ("h") are indistinguishable from
        // ordinary words.
        || (last.len() >= 4 && ("https://".starts_with(last) || "http://".starts_with(last)));
    let giant = !line.contains(' ');
    if !(urlish || giant) {
        return false;
    }
    // Mid-token punctuation at the break is the strongest continuation cue:
    // URLs don't naturally stop at '?', '=', '&', '-', or '/' mid-text.
    if last.ends_with(['/', '?', '=', '&', '-', '.']) {
        return true;
    }
    let next_first = next.split(' ').next().unwrap_or("");
    if next_first.contains(['/', '.', '=', '&', '?']) || next_first.starts_with('-') {
        return true;
    }
    if next.chars().count() >= width {
        return true; // next line is itself full-width: still mid-token
    }
    // A short leading fragment ("ssion now", or a lone "m" when the URL is
    // the last thing in the message) is a split tail — unless it reads as a
    // plain function word ("to keep", trailing "now").
    let word = next_first
        .trim_end_matches(['.', ',', '!', '?', ':'])
        .to_ascii_lowercase();
    next_first.chars().count() <= 6 && !NON_CONTINUATION_WORDS.contains(&word.as_str())
}

/// First URL-looking token of a text, if any.
fn first_url_token(text: &str) -> Option<String> {
    for token in text.split_whitespace() {
        let t = token.trim_end_matches(['.', ',', '!', ';']);
        let lower = t.to_ascii_lowercase();
        if lower.starts_with("http://")
            || lower.starts_with("https://")
            || lower.starts_with("hxxp")
            || lower.starts_with("www.")
            || (lower.contains('.') && lower.contains('/'))
            || lower.contains("[.]")
        {
            return Some(t.to_string());
        }
    }
    None
}

impl Extractor for LlmExtractor {
    fn name(&self) -> &'static str {
        "llm-vision"
    }

    fn extract(&self, shot: &Screenshot) -> Extraction {
        let fingerprint: String = shot
            .blocks
            .iter()
            .map(|b| b.text.as_str())
            .collect::<Vec<_>>()
            .join("|");
        // SMS-vs-not discrimination with a small error rate.
        let believes_sms = if self.unit(&fingerprint, 1) < self.discrimination_error {
            !shot.is_sms
        } else {
            shot.is_sms
        };
        if !believes_sms {
            return Extraction::default();
        }
        if !shot.is_sms {
            // Misjudged a poster as an SMS: extract caption text as "SMS".
            let caption = shot
                .blocks_of(BlockKind::Caption)
                .iter()
                .map(|b| b.text.clone())
                .collect::<Vec<_>>()
                .join(" ");
            return Extraction {
                is_sms_screenshot: true,
                text: Some(caption),
                ..Extraction::default()
            };
        }

        let lines: Vec<&str> = shot
            .blocks_of(BlockKind::BubbleLine)
            .iter()
            .map(|b| b.text.as_str())
            .collect();
        let text = rejoin_lines(&lines, shot.theme.chars_per_line());
        let url = first_url_token(&text);
        let sender = shot
            .blocks_of(BlockKind::SenderHeader)
            .first()
            .map(|b| b.text.clone());
        let timestamp_raw = shot
            .blocks_of(BlockKind::Timestamp)
            .first()
            .map(|b| b.text.clone());
        Extraction {
            is_sms_screenshot: true,
            text: Some(text),
            url,
            sender,
            timestamp_raw,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::AppTheme;
    use crate::render::{render_noise_image, render_sms, RenderSpec};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use smishing_types::{CivilDateTime, Date, NoiseKind, TimeOfDay, TimestampStyle};

    /// `LlmExtractor::unit` as it was before it called `fnv1a`, verbatim.
    fn unit_loop(seed: u64, s: &str, salt: u64) -> f64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325 ^ seed.wrapping_mul(0x100_0000_01b3);
        for b in s.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        h ^= salt;
        h = h.wrapping_mul(0x100_0000_01b3);
        ((h ^ (h >> 31)) >> 11) as f64 / (1u64 << 53) as f64
    }

    proptest! {
        #[test]
        fn unit_matches_its_former_loop(
            seed in 0u64..u64::MAX,
            s in "\\PC{0,40}",
            salt in 0u64..u64::MAX,
        ) {
            let got = LlmExtractor::new(seed).unit(&s, salt);
            prop_assert_eq!(got.to_bits(), unit_loop(seed, &s, salt).to_bits());
        }
    }

    fn spec(text: &str, url: Option<&str>, theme: AppTheme) -> RenderSpec {
        RenderSpec {
            sender: Some("+34612345678".into()),
            text: text.into(),
            url: url.map(str::to_string),
            received: CivilDateTime::new(
                Date::new(2023, 2, 17).unwrap(),
                TimeOfDay::new(16, 45, 0).unwrap(),
            ),
            timestamp_style: Some(TimestampStyle::EuSlash),
            theme,
            noise: 0.2,
        }
    }

    #[test]
    fn recovers_all_fields() {
        let mut rng = StdRng::seed_from_u64(1);
        let url = "https://correos-aduana-pagos.example.com/tasa/pagar/ahora";
        let text = format!("Correos: su paquete está retenido. Pague la tasa aquí: {url}");
        let shot = render_sms(&spec(&text, Some(url), AppTheme::WhatsApp), &mut rng);
        let e = LlmExtractor::new(7).extract(&shot);
        assert!(e.is_sms_screenshot);
        assert_eq!(e.sender.as_deref(), Some("+34612345678"));
        assert_eq!(e.timestamp_raw.as_deref(), Some("17/02/2023 16:45"));
        assert_eq!(e.url.as_deref(), Some(url), "wrapped URL must be rejoined");
        assert_eq!(
            e.text.as_deref(),
            Some(text.as_str()),
            "text reconstructed exactly"
        );
    }

    #[test]
    fn dismisses_posters() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut dismissed = 0;
        let llm = LlmExtractor::new(7);
        for _ in 0..100 {
            let poster = render_noise_image(NoiseKind::AwarenessPoster, &mut rng);
            let e = llm.extract(&poster);
            if !e.is_sms_screenshot {
                dismissed += 1;
            }
        }
        assert!(dismissed >= 95, "{dismissed}/100 posters dismissed");
    }

    #[test]
    fn works_on_every_theme() {
        let llm = LlmExtractor::new(7);
        for (i, &theme) in AppTheme::ALL.iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(10 + i as u64);
            let url = "https://bank-verify-secure-portal.example.org/x";
            let text = format!("Your account is suspended, verify at {url} today");
            let shot = render_sms(&spec(&text, Some(url), theme), &mut rng);
            let e = llm.extract(&shot);
            assert_eq!(e.url.as_deref(), Some(url), "{theme:?}");
        }
    }

    #[test]
    fn rejoin_inverts_wrap() {
        // Property: rejoin(wrap(text)) == text for any width, as long as no
        // word ends exactly at the boundary (the documented ambiguity).
        let texts = [
            "short words only here",
            "averyveryverylongwordthatneedshardsplitting plus tail",
            "URL https://this-is-a-very-long-domain-name.example.com/with/a/long/path end",
        ];
        for text in texts {
            for width in [10usize, 17, 30, 40] {
                let wrapped = crate::render::wrap(text, width);
                let lines: Vec<&str> = wrapped.iter().map(String::as_str).collect();
                let rejoined = rejoin_lines(&lines, width);
                // Allow the boundary ambiguity: compare ignoring spaces.
                assert_eq!(
                    rejoined.replace(' ', ""),
                    text.replace(' ', ""),
                    "width {width}: {wrapped:?}"
                );
            }
        }
    }

    #[test]
    fn no_url_means_none() {
        let mut rng = StdRng::seed_from_u64(3);
        let shot = render_sms(
            &spec(
                "Hi mum, my phone broke, text me back",
                None,
                AppTheme::Imessage,
            ),
            &mut rng,
        );
        let e = LlmExtractor::new(7).extract(&shot);
        assert_eq!(e.url, None);
    }
}
