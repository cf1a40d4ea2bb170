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

#[cfg(test)]
mod tests {
    use crate::analysis::testfix;
    use smishing_textnlp::annotator::{Annotator, PipelineAnnotator};

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
}
