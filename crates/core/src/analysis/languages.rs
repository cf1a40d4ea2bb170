//! Table 11: languages of smishing messages (§5.3).

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

/// Table 11 over the curated total: counts stream in one curated message
/// at a time and worker states merge losslessly. The count does not depend
/// on deduplication, so curators fold each message next to its post.
#[derive(Debug, Clone, Default)]
pub struct LanguagesAcc {
    counts: Counter<Language>,
    unidentified: usize,
}

impl LanguagesAcc {
    /// New empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fold in one curated message.
    pub fn add_curated(&mut self, c: &crate::curation::CuratedMessage) {
        match c.language {
            Some(l) => self.counts.add(l),
            None => self.unidentified += 1,
        }
    }

    /// Absorb another shard's accumulator.
    pub fn merge(&mut self, other: LanguagesAcc) {
        self.counts.merge(&other.counts);
        self.unidentified += other.unidentified;
    }

    /// Produce the batch result.
    pub fn finish(&self) -> Languages {
        Languages {
            counts: self.counts.clone(),
            unidentified: self.unidentified,
        }
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
        let l = testfix::output().accs.languages.finish();
        assert!(l.distinct() >= 35, "{}", l.distinct());
        let top10: u64 = l.counts.top_k(10).iter().map(|(_, c)| c).sum();
        assert!(top10 as f64 / l.counts.total() as f64 > 0.9);
    }

    #[test]
    fn english_dominates() {
        let l = testfix::output().accs.languages.finish();
        let top = l.counts.top_k(2);
        assert_eq!(top[0].0, Language::English);
        let en = l.counts.share(&Language::English);
        // Paper: 65.2% English.
        assert!((0.50..0.82).contains(&en), "{en}");
    }

    #[test]
    fn major_european_languages_present() {
        let l = testfix::output().accs.languages.finish();
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
        let l = testfix::output().accs.languages.finish();
        assert!(l.counts.get(&Language::Dutch) > l.counts.get(&Language::Mandarin));
    }

    #[test]
    fn few_unidentified() {
        let l = testfix::output().accs.languages.finish();
        let frac = l.unidentified as f64 / (l.counts.total() as f64 + l.unidentified as f64);
        assert!(frac < 0.05, "{frac}");
    }

    #[test]
    fn table_renders() {
        let l = testfix::output().accs.languages.finish();
        assert_eq!(l.to_table().len(), 11); // top 10 + distinct-count footer
    }
}
