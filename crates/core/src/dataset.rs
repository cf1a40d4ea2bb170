//! The released dataset artifact (Appendix C).
//!
//! The paper publishes a pseudo-anonymized dataset with one row per
//! message: anonymized sender, HLR-derived type/operator/country, the text
//! with PII removed, translation, shortener, brand, scam category, lures
//! and language. This module builds, serializes (JSON via serde / CSV by
//! hand) and re-imports that artifact.

use crate::enrich::EnrichedRecord;
use serde::{Deserialize, Serialize};
use smishing_types::{Language, Lure, ScamType};
use std::sync::Arc;

/// One row of the released dataset (field-for-field the Appendix C schema).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DatasetRow {
    /// Anonymized sender ID ("phone number", "email", "alphanumeric" or a
    /// masked number keeping the country prefix).
    pub sender_id: Option<String>,
    /// HLR number type label, where the sender was a phone number.
    pub sender_id_type: Option<String>,
    /// Original mobile network operator.
    pub sender_original_mno: Option<String>,
    /// Origin country (alpha-3).
    pub sender_origin_country: Option<String>,
    /// Message text with PII (URLs, phone numbers) masked.
    pub text_message: String,
    /// English translation (when the original is not English).
    pub translated_text: Option<String>,
    /// Abused URL shortener, if any.
    pub url_shortener: Option<String>,
    /// Impersonated brand.
    pub brand_impersonated: Option<String>,
    /// Scam category label.
    pub scam_category: String,
    /// Lure principles.
    pub lure_principles: Vec<String>,
    /// ISO 639-1 language code.
    pub language: String,
}

/// Mask PII inside a message text: URLs and phone-number-looking tokens.
pub fn mask_pii(text: &str) -> String {
    text.split_whitespace()
        .map(|tok| {
            if smishing_textnlp::tokenize::looks_like_url(tok) {
                "<URL>"
            } else if is_phoneish(tok) {
                "<PHONE>"
            } else if has_long_digit_run(tok) {
                // Tracking numbers, account fragments, OTPs.
                "<ID>"
            } else {
                tok
            }
        })
        .collect::<Vec<_>>()
        .join(" ")
}

fn is_phoneish(tok: &str) -> bool {
    let digits = tok.chars().filter(|c| c.is_ascii_digit()).count();
    digits >= 8 && digits as f64 / tok.chars().count() as f64 > 0.7
}

fn has_long_digit_run(tok: &str) -> bool {
    let mut run = 0;
    for c in tok.chars() {
        if c.is_ascii_digit() {
            run += 1;
            if run >= 6 {
                return true;
            }
        } else {
            run = 0;
        }
    }
    false
}

/// Build the dataset from enriched records.
pub fn build_dataset(records: &[Arc<EnrichedRecord>]) -> Vec<DatasetRow> {
    records
        .iter()
        .map(|r| {
            let language = r.annotation.language.unwrap_or(Language::English);
            DatasetRow {
                sender_id: r.sender.as_ref().map(|s| s.anonymized()),
                sender_id_type: r.hlr.as_ref().map(|h| h.number_type.label().to_string()),
                sender_original_mno: r
                    .hlr
                    .as_ref()
                    .and_then(|h| h.original_operator)
                    .map(str::to_string),
                sender_origin_country: r
                    .hlr
                    .as_ref()
                    .and_then(|h| h.origin_country)
                    .map(|c| c.alpha3().to_string()),
                text_message: mask_pii(&r.curated.text),
                translated_text: if language == Language::English {
                    None
                } else {
                    Some(mask_pii(&r.curated.english))
                },
                url_shortener: r.url.as_ref().and_then(|u| u.shortener).map(str::to_string),
                brand_impersonated: r.annotation.brand.clone(),
                scam_category: r.annotation.scam_type.label().to_string(),
                lure_principles: r
                    .annotation
                    .lures
                    .iter()
                    .map(|l| l.label().to_string())
                    .collect(),
                language: language.code().to_string(),
            }
        })
        .collect()
}

/// Serialize to pretty JSON.
pub fn to_json(rows: &[DatasetRow]) -> serde_json::Result<String> {
    serde_json::to_string_pretty(rows)
}

/// Parse back from JSON.
pub fn from_json(s: &str) -> serde_json::Result<Vec<DatasetRow>> {
    serde_json::from_str(s)
}

/// Serialize to CSV (RFC-4180-style quoting; lures joined with `;`).
pub fn to_csv(rows: &[DatasetRow]) -> String {
    fn esc(s: &str) -> String {
        if s.contains([',', '"', '\n']) {
            format!("\"{}\"", s.replace('"', "\"\""))
        } else {
            s.to_string()
        }
    }
    let mut out = String::from(
        "sender_id,sender_id_type,sender_original_mno,sender_origin_country,text_message,translated_text,url_shortener,brand_impersonated,scam_category,lure_principles,language\n",
    );
    for r in rows {
        let cells = [
            r.sender_id.clone().unwrap_or_default(),
            r.sender_id_type.clone().unwrap_or_default(),
            r.sender_original_mno.clone().unwrap_or_default(),
            r.sender_origin_country.clone().unwrap_or_default(),
            r.text_message.clone(),
            r.translated_text.clone().unwrap_or_default(),
            r.url_shortener.clone().unwrap_or_default(),
            r.brand_impersonated.clone().unwrap_or_default(),
            r.scam_category.clone(),
            r.lure_principles.join(";"),
            r.language.clone(),
        ];
        out.push_str(&cells.iter().map(|c| esc(c)).collect::<Vec<_>>().join(","));
        out.push('\n');
    }
    out
}

/// Validate the anonymization contract of Appendix A/C: no full URLs or
/// long digit runs survive in released text.
pub fn validate_anonymization(rows: &[DatasetRow]) -> Result<(), String> {
    for (i, r) in rows.iter().enumerate() {
        for text in [Some(&r.text_message), r.translated_text.as_ref()]
            .into_iter()
            .flatten()
        {
            if text.contains("http://") || text.contains("https://") {
                return Err(format!("row {i}: URL leaked: {text}"));
            }
            let mut run = 0;
            for c in text.chars() {
                if c.is_ascii_digit() {
                    run += 1;
                    if run >= 8 {
                        return Err(format!("row {i}: digit run leaked: {text}"));
                    }
                } else {
                    run = 0;
                }
            }
        }
    }
    Ok(())
}

/// The scam categories and lures that may legally appear (schema check).
pub fn schema_labels() -> (Vec<&'static str>, Vec<&'static str>) {
    (
        ScamType::ALL.iter().map(|s| s.label()).collect(),
        Lure::ALL.iter().map(|l| l.label()).collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::testfix;

    fn rows() -> Vec<DatasetRow> {
        build_dataset(&testfix::output().records)
    }

    #[test]
    fn dataset_covers_all_records() {
        let r = rows();
        assert_eq!(r.len(), testfix::output().records.len());
    }

    #[test]
    fn anonymization_holds() {
        let r = rows();
        validate_anonymization(&r).expect("no PII in released rows");
        // Senders never appear verbatim.
        for row in &r {
            if let Some(s) = &row.sender_id {
                assert!(
                    s.contains('X')
                        || s == "alphanumeric"
                        || s == "email"
                        || s.contains("bad format"),
                    "{s}"
                );
            }
        }
    }

    #[test]
    fn json_round_trips() {
        let r = rows();
        let json = to_json(&r[..50.min(r.len())]).unwrap();
        let back = from_json(&json).unwrap();
        assert_eq!(&r[..back.len()], &back[..]);
    }

    #[test]
    fn csv_has_header_and_rows() {
        let r = rows();
        let csv = to_csv(&r);
        let lines: Vec<&str> = csv.lines().collect();
        assert!(lines[0].starts_with("sender_id,"));
        assert_eq!(lines.len(), r.len() + 1);
        // Every line has the same comma count outside quotes (spot check a
        // few simple rows).
        for line in lines.iter().take(5) {
            assert!(line.matches(',').count() >= 10, "{line}");
        }
    }

    #[test]
    fn labels_obey_schema() {
        let (scams, lures) = schema_labels();
        for row in rows() {
            assert!(
                scams.contains(&row.scam_category.as_str()),
                "{}",
                row.scam_category
            );
            for l in &row.lure_principles {
                assert!(lures.contains(&l.as_str()), "{l}");
            }
        }
    }
}
