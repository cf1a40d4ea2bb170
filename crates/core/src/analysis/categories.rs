//! Table 10: scam-category distribution with top languages (§5.2).

use crate::pipeline::PipelineOutput;
use crate::table::{count_pct, TextTable};
use smishing_stats::Counter;
use smishing_types::{Language, ScamType};
use std::collections::HashMap;

/// Category distribution over *all* curated messages (Table 10 uses
/// n = 33,869, the total including duplicates — every report is annotated).
#[derive(Debug, Clone)]
pub struct Categories {
    /// Messages per category.
    pub counts: Counter<ScamType>,
    /// Language counts per category.
    pub languages: HashMap<ScamType, Counter<Language>>,
}

/// Table 10. Classification comes from the pipeline's annotator on the
/// unique records, weighted back over duplicates: each dedup group's
/// winner counts once per report in its evidence.
pub fn categories(out: &PipelineOutput<'_>) -> Categories {
    let mut counts = Counter::new();
    let mut languages: HashMap<ScamType, Counter<Language>> = HashMap::new();
    for r in &out.records {
        let n = u64::from(r.evidence.reports);
        let scam = r.annotation.scam_type;
        counts.add_n(scam, n);
        if let Some(lang) = r.annotation.language {
            languages.entry(scam).or_default().add_n(lang, n);
        }
    }
    Categories { counts, languages }
}

impl Categories {
    /// Render Table 10.
    pub fn to_table(&self) -> TextTable {
        let mut t = TextTable::new(
            "Table 10: distribution of messages into scam categories",
            &["Scam Category", "Messages", "Top 4 Languages"],
        );
        let total = self.counts.total();
        for &scam in ScamType::ALL {
            let top_langs = self
                .languages
                .get(&scam)
                .map(|c| {
                    c.top_k(4)
                        .into_iter()
                        .map(|(l, _)| l.code().to_string())
                        .collect::<Vec<_>>()
                        .join(", ")
                })
                .unwrap_or_default();
            t.row(&[
                scam.label().to_string(),
                count_pct(self.counts.get(&scam), total),
                top_langs,
            ]);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::testfix;

    #[test]
    fn banking_dominates_table10() {
        let c = categories(testfix::output());
        let top = c.counts.top_k(3);
        assert_eq!(top[0].0, ScamType::Banking, "{top:?}");
        let banking = c.counts.share(&ScamType::Banking);
        assert!((0.33..0.58).contains(&banking), "{banking}");
    }

    #[test]
    fn ordering_matches_paper() {
        // Banking > Others > Delivery > Government > Telecom ≫ conversation
        // scams; spam present but small.
        let c = categories(testfix::output());
        assert!(c.counts.get(&ScamType::Others) > c.counts.get(&ScamType::Delivery));
        assert!(c.counts.get(&ScamType::Delivery) > c.counts.get(&ScamType::Telecom));
        assert!(c.counts.get(&ScamType::Government) > c.counts.get(&ScamType::WrongNumber));
        assert!(
            c.counts.get(&ScamType::Spam) > 0,
            "spam leaks into user reports (§5.2)"
        );
        assert!(
            c.counts.get(&ScamType::Spam) < c.counts.get(&ScamType::Banking) / 4,
            "but stays a small minority"
        );
    }

    #[test]
    fn english_tops_every_major_category() {
        let c = categories(testfix::output());
        for scam in [ScamType::Banking, ScamType::Delivery, ScamType::Government] {
            let langs = c.languages.get(&scam).expect("category populated");
            assert_eq!(langs.top_k(1)[0].0, Language::English, "{scam:?}");
        }
    }

    #[test]
    fn table_renders_eight_rows() {
        let c = categories(testfix::output());
        assert_eq!(c.to_table().len(), 8);
    }
}
