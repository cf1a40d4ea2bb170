//! The Pytesseract-like baseline extractor (§3.2).
//!
//! Failure modes modelled, all from the paper:
//!
//! - returns nothing on themes with custom backgrounds/colors,
//! - confuses visually similar characters (`l`/`I`, `0`/`O`) — fatal for
//!   evasion-squatted domains,
//! - has no notion of fields: output is one blob including the status bar
//!   clock and the sender header,
//! - cannot tell an SMS screenshot from an awareness poster.

use crate::image::{Extraction, Extractor, Screenshot};
use smishing_types::{fnv1a, FNV_PRIME};

/// Stable hash for deterministic confusion decisions.
fn hash(s: &str, salt: u64) -> u64 {
    let h = fnv1a(salt.wrapping_mul(FNV_PRIME), s.bytes());
    h ^ (h >> 31)
}

/// Apply OCR character confusion to a line. `rate` is per-candidate-char.
pub(crate) fn confuse(line: &str, rate: f64, salt: u64) -> String {
    let mut out = String::with_capacity(line.len());
    for (i, c) in line.chars().enumerate() {
        let roll = (hash(line, salt.wrapping_add(i as u64)) >> 11) as f64 / (1u64 << 53) as f64;
        let swapped = if roll < rate {
            match c {
                'l' => Some('I'),
                'I' => Some('l'),
                '0' => Some('O'),
                'O' => Some('0'),
                '1' => Some('l'),
                'S' => Some('5'),
                'B' => Some('8'),
                _ => None,
            }
        } else {
            None
        };
        out.push(swapped.unwrap_or(c));
    }
    out
}

/// The naive OCR extractor.
#[derive(Debug, Clone, Copy)]
pub struct NaiveOcr {
    seed: u64,
}

impl NaiveOcr {
    /// Build with a seed for the deterministic confusion draws.
    pub fn new(seed: u64) -> NaiveOcr {
        NaiveOcr { seed }
    }
}

impl Extractor for NaiveOcr {
    fn name(&self) -> &'static str {
        "pytesseract"
    }

    fn extract(&self, shot: &Screenshot) -> Extraction {
        // Custom backgrounds defeat binarization entirely.
        if shot.theme.custom_background() {
            return Extraction {
                is_sms_screenshot: true,
                ..Extraction::default()
            };
        }
        // Heavy photo noise also kills it.
        if shot.noise > 0.7 {
            return Extraction {
                is_sms_screenshot: true,
                ..Extraction::default()
            };
        }
        let rate = 0.08 + shot.noise * 0.25;
        let mut blocks: Vec<&crate::image::TextBlock> = shot.blocks.iter().collect();
        blocks.sort_by_key(|b| (b.y, b.x));
        let blob: Vec<String> = blocks
            .iter()
            .map(|b| confuse(&b.text, rate, self.seed))
            .collect();
        Extraction {
            is_sms_screenshot: true, // cannot discriminate
            text: Some(blob.join("\n")),
            url: None,
            sender: None,
            timestamp_raw: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::AppTheme;
    use crate::render::{render_sms, RenderSpec};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use smishing_types::{CivilDateTime, Date, TimeOfDay, TimestampStyle};

    /// `hash` as it was before it called `fnv1a`, verbatim.
    fn hash_loop(s: &str, salt: u64) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325 ^ salt.wrapping_mul(0x100_0000_01b3);
        for b in s.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        h ^ (h >> 31)
    }

    proptest! {
        #[test]
        fn hash_matches_its_former_loop(s in "\\PC{0,40}", salt in 0u64..u64::MAX) {
            prop_assert_eq!(hash(&s, salt), hash_loop(&s, salt));
        }
    }

    fn shot(theme: AppTheme, noise: f64) -> Screenshot {
        let mut rng = StdRng::seed_from_u64(1);
        render_sms(
            &RenderSpec {
                sender: Some("SBIBNK".into()),
                text: "Dear customer, your SBI net banking will be blocked. Visit https://sbl-kyc.com/login today.".into(),
                url: Some("https://sbl-kyc.com/login".into()),
                received: CivilDateTime::new(
                    Date::new(2021, 8, 3).unwrap(),
                    TimeOfDay::new(11, 34, 0).unwrap(),
                ),
                timestamp_style: Some(TimestampStyle::Iso),
                theme,
                noise,
            },
            &mut rng,
        )
    }

    #[test]
    fn fails_on_custom_backgrounds() {
        let ocr = NaiveOcr::new(1);
        let e = ocr.extract(&shot(AppTheme::CustomThemed, 0.1));
        assert_eq!(e.text, None);
        let e = ocr.extract(&shot(AppTheme::WhatsApp, 0.1));
        assert_eq!(e.text, None);
    }

    #[test]
    fn blob_includes_chrome() {
        let ocr = NaiveOcr::new(1);
        let e = ocr.extract(&shot(AppTheme::Imessage, 0.0));
        let text = e.text.unwrap();
        assert!(
            text.contains("LTE"),
            "status bar leaks into the blob: {text}"
        );
        assert!(e.url.is_none() && e.sender.is_none(), "no field structure");
    }

    #[test]
    fn confusion_mangles_characters() {
        // At a high rate, 'l' and 'I' swap — the squatting-evasion problem.
        let out = confuse("Illlllllllllllllllllll", 1.0, 7);
        assert!(out.contains('I') && out.contains('l'));
        assert_ne!(out, "Illlllllllllllllllllll");
        // Zero rate is the identity.
        assert_eq!(confuse("hello l I 0 O", 0.0, 7), "hello l I 0 O");
    }

    #[test]
    fn confusion_is_deterministic() {
        assert_eq!(
            confuse("sbl-kyc.com", 0.5, 3),
            confuse("sbl-kyc.com", 0.5, 3)
        );
    }

    #[test]
    fn cannot_discriminate_posters() {
        let mut rng = StdRng::seed_from_u64(5);
        let poster =
            crate::render::render_noise_image(smishing_types::NoiseKind::AwarenessPoster, &mut rng);
        let e = NaiveOcr::new(1).extract(&poster);
        assert!(
            e.is_sms_screenshot,
            "naive OCR believes everything is an SMS"
        );
    }
}
