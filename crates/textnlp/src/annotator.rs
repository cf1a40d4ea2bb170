//! Annotator models for the §3.4 inter-rater study.
//!
//! Three parties annotate messages with (scam type, brand, lures):
//!
//! - [`PipelineAnnotator`] — the GPT-4o stand-in: language ID, translation,
//!   brand NER, scam classification and lure detection from the text alone,
//! - [`HumanAnnotator`] — a human expert model: reads the message with full
//!   understanding (ground truth) but makes idiosyncratic mistakes at
//!   calibrated rates. Two humans with independent seeds reproduce the
//!   paper's human–human κ levels (brands 0.82, scam types 0.94, lures 0.85).

use crate::brands::BrandCatalog;
use crate::langid::identify_language;
use crate::lures::detect_lures;
use crate::ner::extract_brand;
use crate::scamclass::classify_scam;
use crate::translate::{TemplateTranslator, Translator};
use smishing_types::{fnv1a, Language, Lure, LureSet, MessageTruth, ScamType};

/// One annotation of one message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Annotation {
    /// Detected language of the original text.
    pub language: Option<Language>,
    /// English rendering used for the label decisions.
    pub english_text: String,
    /// Assigned scam category.
    pub scam_type: ScamType,
    /// Canonical impersonated-brand name, if identified.
    pub brand: Option<String>,
    /// Detected lure set.
    pub lures: LureSet,
}

/// Text-only annotator interface.
pub trait Annotator {
    /// Annotate a message from its raw text.
    fn annotate(&self, text: &str) -> Annotation;
}

/// The GPT-4o stand-in: the full text pipeline.
#[derive(Debug, Clone, Copy, Default)]
pub struct PipelineAnnotator {
    translator: TemplateTranslator,
}

impl PipelineAnnotator {
    /// Build the annotator.
    pub fn new() -> PipelineAnnotator {
        PipelineAnnotator::default()
    }

    /// Label a message whose language and English rendering are already
    /// known, as curation computes them: [`Annotator::annotate`] without
    /// language ID and translation.
    pub fn annotate_translated(
        &self,
        text: &str,
        language: Option<Language>,
        english: &str,
    ) -> Annotation {
        // Brand aliases are proper names: look in both renderings, the
        // original only when it differs from the English one.
        let brand = extract_brand(english).or_else(|| {
            if english == text {
                None
            } else {
                extract_brand(text)
            }
        });
        let scam_type = classify_scam(english, brand);
        let lures = detect_lures(english, brand);
        Annotation {
            language,
            english_text: english.to_string(),
            scam_type,
            brand: brand.map(|b| b.name.to_string()),
            lures,
        }
    }
}

impl Annotator for PipelineAnnotator {
    fn annotate(&self, text: &str) -> Annotation {
        let language = identify_language(text);
        let english = self.translator.to_english(text, language);
        self.annotate_translated(text, language, english.text())
    }
}

/// A human expert with calibrated error rates (see module docs).
#[derive(Debug, Clone, Copy)]
pub struct HumanAnnotator {
    seed: u64,
    /// Probability of mislabelling the scam type.
    pub scam_error: f64,
    /// Probability of missing / confusing the brand.
    pub brand_error: f64,
    /// Probability of dropping a present lure.
    pub lure_miss: f64,
    /// Probability of adding an absent lure.
    pub lure_add: f64,
}

impl HumanAnnotator {
    /// Default calibration reproducing the paper's human–human κ.
    pub fn new(seed: u64) -> HumanAnnotator {
        HumanAnnotator {
            seed,
            scam_error: 0.03,
            brand_error: 0.09,
            lure_miss: 0.02,
            lure_add: 0.003,
        }
    }

    fn unit(&self, item: u64, salt: u64) -> f64 {
        // The seed's multiplier is not FNV's prime; the κ calibration
        // tables are drawn with it.
        let bytes = item.to_le_bytes().into_iter().chain(salt.to_le_bytes());
        let h = fnv1a(self.seed.wrapping_mul(0x1000_0001b3), bytes);
        ((h ^ (h >> 31)) >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Annotate message `item` whose ground truth is `truth`.
    ///
    /// Humans read the (translated) message correctly, so the language and
    /// English text come straight from the truth; the *labels* carry the
    /// annotator's idiosyncratic noise.
    pub fn annotate_truth(&self, item: u64, truth: &MessageTruth) -> Annotation {
        // Scam type: occasionally filed under Others (the catch-all is the
        // realistic confusion for scams with unusual wording).
        let scam_type = if self.unit(item, 1) < self.scam_error {
            if truth.scam_type == ScamType::Others {
                ScamType::Spam
            } else {
                ScamType::Others
            }
        } else {
            truth.scam_type
        };

        // Brand: missed (None) or, rarely, confused with another brand of
        // the same sector.
        let brand = match &truth.brand {
            None => None,
            Some(name) => {
                let u = self.unit(item, 2);
                if u < self.brand_error * 0.75 {
                    None
                } else if u < self.brand_error {
                    let cat = BrandCatalog::global();
                    cat.by_name(name)
                        .map(|b| {
                            let same_sector = cat.of_sector(b.sector);
                            let idx = (self.unit(item, 3) * same_sector.len() as f64) as usize;
                            same_sector[idx.min(same_sector.len() - 1)].name.to_string()
                        })
                        .or_else(|| Some(name.clone()))
                } else {
                    Some(name.clone())
                }
            }
        };

        // Lures: per-label drop/add noise.
        let mut lures = LureSet::EMPTY;
        for (i, &lure) in Lure::ALL.iter().enumerate() {
            let u = self.unit(item, 10 + i as u64);
            let present = truth.lures.contains(lure);
            let keep = if present {
                u >= self.lure_miss
            } else {
                u < self.lure_add
            };
            if keep {
                lures.insert(lure);
            }
        }

        Annotation {
            language: Some(truth.language),
            english_text: truth.english_text.clone(),
            scam_type,
            brand,
            lures,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use smishing_types::Country;

    /// `HumanAnnotator::unit` as it was before it called `fnv1a`,
    /// verbatim (its seed multiplier included).
    fn unit_loop(seed: u64, item: u64, salt: u64) -> f64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325 ^ seed.wrapping_mul(0x1000_0001b3);
        for b in item.to_le_bytes().iter().chain(salt.to_le_bytes().iter()) {
            h ^= *b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        ((h ^ (h >> 31)) >> 11) as f64 / (1u64 << 53) as f64
    }

    proptest! {
        #[test]
        fn unit_matches_its_former_loop(
            seed in 0u64..u64::MAX,
            item in 0u64..u64::MAX,
            salt in 0u64..u64::MAX,
        ) {
            let got = HumanAnnotator::new(seed).unit(item, salt);
            prop_assert_eq!(got.to_bits(), unit_loop(seed, item, salt).to_bits());
        }
    }

    fn truth(scam: ScamType, brand: Option<&str>, lures: &[Lure]) -> MessageTruth {
        MessageTruth {
            scam_type: scam,
            lures: LureSet::from_slice(lures),
            brand: brand.map(str::to_string),
            language: Language::English,
            english_text: "text".into(),
            recipient_country: Country::UnitedKingdom,
        }
    }

    #[test]
    fn pipeline_annotates_end_to_end() {
        let ann = PipelineAnnotator::new().annotate(
            "Evri: your parcel RM12345 is held at our depot. A redelivery fee of £1.99 is due. Pay within 24 hours at https://cutt.ly/ab12",
        );
        assert_eq!(ann.scam_type, ScamType::Delivery);
        assert_eq!(ann.brand.as_deref(), Some("Evri"));
        assert_eq!(ann.language, Some(Language::English));
        assert!(ann.lures.contains(Lure::TimeUrgency));
        assert!(ann.lures.contains(Lure::Authority));
    }

    #[test]
    fn pipeline_translates_before_classifying() {
        let ann = PipelineAnnotator::new().annotate(
            "Rabobank: uw rekening wordt vandaag geblokkeerd. Verifieer uw gegevens via https://is.gd/q7 alstublieft.",
        );
        assert_eq!(ann.language, Some(Language::Dutch));
        assert_eq!(ann.scam_type, ScamType::Banking);
        assert_eq!(ann.brand.as_deref(), Some("Rabobank"));
    }

    #[test]
    fn humans_mostly_agree_with_truth() {
        let h = HumanAnnotator::new(1);
        let t = truth(
            ScamType::Banking,
            Some("Santander"),
            &[Lure::Authority, Lure::TimeUrgency],
        );
        let mut scam_agree = 0;
        let n = 2000;
        for item in 0..n {
            let a = h.annotate_truth(item, &t);
            if a.scam_type == t.scam_type {
                scam_agree += 1;
            }
        }
        let rate = scam_agree as f64 / n as f64;
        assert!((0.94..0.995).contains(&rate), "{rate}");
    }

    #[test]
    fn two_humans_disagree_sometimes() {
        let h1 = HumanAnnotator::new(1);
        let h2 = HumanAnnotator::new(2);
        let t = truth(ScamType::Delivery, Some("Evri"), &[Lure::Authority]);
        let mut diff = 0;
        for item in 0..2000 {
            if h1.annotate_truth(item, &t) != h2.annotate_truth(item, &t) {
                diff += 1;
            }
        }
        assert!(diff > 100, "{diff} disagreements in 2000");
    }

    #[test]
    fn human_annotation_is_deterministic() {
        let h = HumanAnnotator::new(9);
        let t = truth(ScamType::Banking, Some("Chase"), &[Lure::Authority]);
        assert_eq!(h.annotate_truth(42, &t), h.annotate_truth(42, &t));
    }
}
