//! Text annotation: scam type, brand, lures, language (§3.3.6).

use super::registry::{Draft, EnrichCtx, Enricher};
use smishing_textnlp::annotator::PipelineAnnotator;

/// Runs the pipeline annotator over the curated text, reusing the
/// language and English rendering curation already computed; no service
/// calls, so annotation can never degrade a record.
pub struct AnnotateEnricher;

impl Enricher for AnnotateEnricher {
    fn name(&self) -> &'static str {
        "annotate"
    }

    fn apply(&self, draft: &mut Draft, _cx: &EnrichCtx<'_>) {
        let c = &draft.curated;
        draft.annotation =
            Some(PipelineAnnotator::new().annotate_translated(&c.text, c.language, &c.english));
    }
}

/// The reference scans `extract_brand` and `identify_language` replaced,
/// and the per-chunk word folds, shared with the textnlp and detect
/// proptests.
#[cfg(test)]
#[path = "../../../textnlp/tests/oracle/mod.rs"]
mod oracle;

#[cfg(test)]
mod tests {
    use super::oracle;
    use crate::analysis::testfix;
    use smishing_textnlp::annotator::{Annotator, PipelineAnnotator};
    use smishing_textnlp::ngram::canonical_text;
    use smishing_textnlp::{extract_brand, identify_language, normalize_text};
    use std::collections::HashSet;

    /// Curation's language and English rendering are the annotator's
    /// own, so labelling from them reproduces a from-scratch annotation
    /// of every record, and the record carries exactly that value.
    #[test]
    fn curated_translation_reproduces_full_annotation() {
        let annotator = PipelineAnnotator::new();
        for r in &testfix::output().records {
            let c = &r.curated;
            let full = annotator.annotate(&c.text);
            assert_eq!(
                annotator.annotate_translated(&c.text, c.language, &c.english),
                full,
                "{:?}",
                c.post_id
            );
            assert_eq!(r.annotation, full, "{:?}", c.post_id);
        }
    }

    /// Brand extraction and language ID answer by lookup, and the word
    /// fold is one pass over one buffer. On every distinct curated text
    /// and English rendering of the fixture, and on a one-char edit of
    /// each distinct word of at least five bytes in the first text holding
    /// it (substitution, deletion, insertion and transposition in turn),
    /// they agree with the scans and per-chunk folds they replaced.
    #[test]
    fn text_lookups_match_the_reference_scans_on_curated_texts() {
        let out = testfix::output();
        let texts: HashSet<&str> = out
            .curated_total
            .iter()
            .flat_map(|c| [c.text.as_str(), c.english.as_str()])
            .collect();
        let check = |text: &str| {
            assert_eq!(
                extract_brand(text),
                oracle::brand_by_scan(text),
                "brand of {text:?}"
            );
            assert_eq!(
                identify_language(text),
                oracle::language_by_loop(text),
                "language of {text:?}"
            );
            assert_eq!(
                normalize_text(text),
                oracle::normalize_text(text),
                "normalized {text:?}"
            );
            assert_eq!(
                canonical_text(text),
                oracle::canonical_text(text),
                "canonical {text:?}"
            );
        };
        let mut edited: HashSet<&str> = HashSet::new();
        for text in &texts {
            check(text);
            let words: Vec<&str> = text.split(' ').collect();
            for (i, word) in words.iter().enumerate() {
                if word.len() < 5 || !edited.insert(word) {
                    continue;
                }
                let mut variant = words.clone();
                let edit = oracle::edit_one(word, i as u8, word.len() / 2, 'e');
                variant[i] = &edit;
                check(&variant.join(" "));
            }
        }
        assert!(
            texts.len() > 1_000 && edited.len() > 1_000,
            "{} texts, {} edited words",
            texts.len(),
            edited.len()
        );
    }
}
