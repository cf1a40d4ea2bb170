//! Tables 6 and 16: abused TLDs and their IANA classes (§4.3).

use crate::enrich::EnrichedRecord;
use crate::table::{count_pct, TextTable};
use smishing_stats::{Counter, FirstClaim};
use smishing_webinfra::{free_hosting_suffix, tld_of, TldClass, TldDb};

/// TLD measurements over unique URLs.
#[derive(Debug, Clone)]
pub struct TldUse {
    /// TLDs of unique direct smishing URLs (Table 6 left).
    pub smishing_tlds: Counter<String>,
    /// TLDs of unique shortened URLs (Table 6 right: ly, gd, ...).
    pub shortened_tlds: Counter<String>,
    /// IANA class distribution of direct URLs (Table 16).
    pub classes: Counter<TldClass>,
    /// Distinct TLDs per class (Table 16's TLD-count column).
    pub class_tld_counts: Vec<(TldClass, usize)>,
    /// Unique free-hosting sites observed (§4.3's web.app / ngrok.io story).
    pub free_hosting_sites: Counter<&'static str>,
}

/// One record's contribution for its URL string: everything Tables 6 and
/// 16 derive from the URL, precomputed at claim time.
#[derive(Debug, Clone)]
struct TldClaim {
    whatsapp: bool,
    shortened: bool,
    tld: Option<String>,
    class: Option<TldClass>,
    free_suffix: Option<&'static str>,
}

/// Tables 6 and 16 TLD usage: per-URL first-claims folded at finish.
#[derive(Debug, Clone, Default)]
pub struct TldAcc {
    claims: FirstClaim<String, TldClaim>,
}

impl TldAcc {
    /// New empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fold in one unique record.
    pub fn add_record(&mut self, r: &EnrichedRecord) {
        let Some(url) = &r.url else { return };
        let tld = tld_of(&url.parsed.host);
        self.claims.add(
            url.parsed.to_url_string(),
            r.curated.post_id.0,
            TldClaim {
                whatsapp: url.whatsapp,
                shortened: url.shortener.is_some(),
                class: tld.as_deref().and_then(|t| TldDb::global().classify(t)),
                free_suffix: free_hosting_suffix(&url.parsed.host).map(|(s, _)| s),
                tld,
            },
        );
    }

    /// Absorb another shard's accumulator.
    pub fn merge(&mut self, other: TldAcc) {
        self.claims.merge(other.claims);
    }

    /// Produce the batch result.
    pub fn finish(&self) -> TldUse {
        let mut smishing_tlds: Counter<String> = Counter::new();
        let mut shortened_tlds: Counter<String> = Counter::new();
        let mut classes = Counter::new();
        let mut free_hosting_sites: Counter<&'static str> = Counter::new();
        let mut per_class_tlds: std::collections::HashMap<
            TldClass,
            std::collections::HashSet<String>,
        > = std::collections::HashMap::new();
        for (_, _, claim) in self.claims.winners() {
            if claim.whatsapp {
                continue;
            }
            let Some(tld) = &claim.tld else { continue };
            if claim.shortened {
                shortened_tlds.add(tld.clone());
                continue;
            }
            smishing_tlds.add(tld.clone());
            if let Some(class) = claim.class {
                classes.add(class);
                per_class_tlds.entry(class).or_default().insert(tld.clone());
            }
            if let Some(suffix) = claim.free_suffix {
                free_hosting_sites.add(suffix);
            }
        }
        let mut class_tld_counts: Vec<(TldClass, usize)> = per_class_tlds
            .into_iter()
            .map(|(c, s)| (c, s.len()))
            .collect();
        class_tld_counts.sort_by_key(|&(_, n)| std::cmp::Reverse(n));
        TldUse {
            smishing_tlds,
            shortened_tlds,
            classes,
            class_tld_counts,
            free_hosting_sites,
        }
    }
}

impl TldUse {
    /// Render Table 6 (two top-10 columns side by side).
    pub fn to_table6(&self) -> TextTable {
        let mut t = TextTable::new(
            "Table 6: top 10 TLDs of unique smishing vs shortened URLs",
            &["TLD", "Smishing URLs", "TLD (short)", "Shortened URLs"],
        );
        let left = self.smishing_tlds.top_k(10);
        let right = self.shortened_tlds.top_k(10);
        for i in 0..left.len().max(right.len()) {
            let (l, lc) = left
                .get(i)
                .map(|(a, b)| (a.clone(), b.to_string()))
                .unwrap_or_default();
            let (r, rc) = right
                .get(i)
                .map(|(a, b)| (a.clone(), b.to_string()))
                .unwrap_or_default();
            t.row(&[l, lc, r, rc]);
        }
        t
    }

    /// Render Table 16.
    pub fn to_table16(&self) -> TextTable {
        let mut t = TextTable::new(
            "Table 16: IANA classification of unique smishing URL TLDs",
            &["Type", "URLs", "TLDs"],
        );
        let total = self.classes.total();
        for (class, count) in self.classes.sorted() {
            let n_tlds = self
                .class_tld_counts
                .iter()
                .find(|(c, _)| *c == class)
                .map(|(_, n)| *n)
                .unwrap_or(0);
            t.row(&[
                class.label().to_string(),
                count_pct(count, total),
                n_tlds.to_string(),
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
    fn com_tops_direct_urls() {
        let u = testfix::output().accs.tlds.finish();
        let top = u.smishing_tlds.top_k(2);
        assert_eq!(top[0].0, "com", "{top:?}");
        let com_share = u.smishing_tlds.share(&"com".to_string());
        assert!((0.30..0.62).contains(&com_share), "{com_share}");
    }

    #[test]
    fn ly_tops_shortened_urls() {
        // Table 6 right column: bit.ly's .ly dominates.
        let u = testfix::output().accs.tlds.finish();
        let top = u.shortened_tlds.top_k(3);
        assert_eq!(top[0].0, "ly", "{top:?}");
    }

    #[test]
    fn gtlds_dominate_cctlds() {
        // Table 16: 72.3% generic vs 27.1% country-code.
        let u = testfix::output().accs.tlds.finish();
        let g = u.classes.share(&TldClass::Generic);
        let cc = u.classes.share(&TldClass::CountryCode);
        assert!(g > cc * 1.8, "g {g} cc {cc}");
        assert!((0.55..0.85).contains(&g), "{g}");
    }

    #[test]
    fn many_distinct_tlds() {
        let u = testfix::output().accs.tlds.finish();
        // Paper finds >280 TLDs at full scale; the test world is 5% scale.
        assert!(
            u.smishing_tlds.distinct() >= 15,
            "{}",
            u.smishing_tlds.distinct()
        );
        let generic_tlds = u
            .class_tld_counts
            .iter()
            .find(|(c, _)| *c == TldClass::Generic)
            .map(|(_, n)| *n)
            .unwrap_or(0);
        let cc_tlds = u
            .class_tld_counts
            .iter()
            .find(|(c, _)| *c == TldClass::CountryCode)
            .map(|(_, n)| *n)
            .unwrap_or(0);
        assert!(generic_tlds > 0 && cc_tlds > 0);
    }

    #[test]
    fn free_hosting_observed() {
        let u = testfix::output().accs.tlds.finish();
        assert!(u.free_hosting_sites.total() > 0);
        // web.app leads the free-hosting pack (§4.3) — allow #2 at small
        // sample sizes.
        let top: Vec<_> = u
            .free_hosting_sites
            .top_k(2)
            .into_iter()
            .map(|(s, _)| s)
            .collect();
        assert!(top.contains(&"web.app"), "{top:?}");
    }

    #[test]
    fn tables_render() {
        let u = testfix::output().accs.tlds.finish();
        assert!(u.to_table6().len() >= 5);
        assert!(u.to_table16().len() >= 2);
    }
}
