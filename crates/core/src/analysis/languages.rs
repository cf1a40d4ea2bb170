//! Table 11: languages of smishing messages (§5.3).

use crate::pipeline::PipelineOutput;
use crate::table::{count_pct, TextTable};
use smishing_stats::Counter;
use smishing_types::Language;

/// Language distribution over all curated messages.
#[derive(Debug, Clone)]
pub struct Languages {
    /// Messages per language.
    pub counts: Counter<Language>,
    /// Messages whose language could not be identified.
    pub unidentified: usize,
}

/// Table 11 over the curated total, duplicates included: the count does
/// not depend on deduplication.
pub fn languages(out: &PipelineOutput<'_>) -> Languages {
    let mut counts = Counter::new();
    let mut unidentified = 0;
    for c in &out.curated_total {
        match c.language {
            Some(l) => counts.add(l),
            None => unidentified += 1,
        }
    }
    Languages {
        counts,
        unidentified,
    }
}

impl Languages {
    /// Number of distinct languages observed (the paper sees 66).
    pub fn distinct(&self) -> usize {
        self.counts.distinct()
    }

    /// Render Table 11 (top 10).
    pub fn to_table(&self) -> TextTable {
        let mut t = TextTable::new(
            "Table 11: top 10 languages used in smishing messages",
            &["Language", "Code", "Messages"],
        );
        let total = self.counts.total();
        for (lang, count) in self.counts.top_k(10) {
            t.row(&[
                lang.name().to_string(),
                lang.code().to_string(),
                count_pct(count, total),
            ]);
        }
        t.row(&[
            "(distinct languages)".into(),
            String::new(),
            self.distinct().to_string(),
        ]);
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::testfix;

    #[test]
    fn long_language_tail_is_observed() {
        // §5.3: 66 languages observed; the tail comes from the polyglot
        // spray (translation A/B tests), not from top-10 volume.
        let l = languages(testfix::output());
        assert!(l.distinct() >= 35, "{}", l.distinct());
        let top10: u64 = l.counts.top_k(10).iter().map(|(_, c)| c).sum();
        assert!(top10 as f64 / l.counts.total() as f64 > 0.9);
    }

    #[test]
    fn english_dominates() {
        let l = languages(testfix::output());
        let top = l.counts.top_k(2);
        assert_eq!(top[0].0, Language::English);
        let en = l.counts.share(&Language::English);
        // Paper: 65.2% English.
        assert!((0.50..0.82).contains(&en), "{en}");
    }

    #[test]
    fn major_european_languages_present() {
        let l = languages(testfix::output());
        let top10: Vec<Language> = l
            .counts
            .top_k(10)
            .into_iter()
            .map(|(lang, _)| lang)
            .collect();
        let majors = [
            Language::Spanish,
            Language::Dutch,
            Language::French,
            Language::German,
        ];
        let present = majors.iter().filter(|m| top10.contains(m)).count();
        assert!(present >= 3, "{top10:?}");
    }

    #[test]
    fn distribution_does_not_track_world_population() {
        // §5.3: Dutch ≫ Mandarin in the dataset despite Mandarin's speaker
        // count — platform bias.
        let l = languages(testfix::output());
        assert!(l.counts.get(&Language::Dutch) > l.counts.get(&Language::Mandarin));
    }

    #[test]
    fn few_unidentified() {
        let l = languages(testfix::output());
        let frac = l.unidentified as f64 / (l.counts.total() as f64 + l.unidentified as f64);
        assert!(frac < 0.05, "{frac}");
    }

    #[test]
    fn table_renders() {
        let l = languages(testfix::output());
        assert_eq!(l.to_table().len(), 11); // top 10 + distinct-count footer
    }
}
