//! Domain freshness: how newly registered are smishing domains when the
//! first report lands? (extension)
//!
//! §4.4 (WHOIS) and §4.5 (CT logs) show smishing domains are registered
//! and certified just ahead of the campaigns that burn them. The
//! operational corollary the paper stops short of quantifying is the
//! *newly-registered-domain* (NRD) blocklist: resolvers such as
//! Quad9/Umbrella block domains younger than N days. This module measures
//! the age of every registered smishing domain at its first report and
//! the message coverage an NRD policy of each window would have bought.

use crate::pipeline::PipelineOutput;
use crate::table::TextTable;
use smishing_stats::quantile::five_number_summary;
use smishing_types::UnixTime;
use std::collections::HashMap;

/// NRD windows (days) commonly offered by resolver policies.
pub const NRD_WINDOWS: &[i64] = &[7, 14, 30, 90, 365];

/// Domain-age measurements at first report.
#[derive(Debug, Clone)]
pub struct DomainFreshness {
    /// Age in days of each unique registered domain at its first report.
    pub ages_days: Vec<f64>,
    /// URL-bearing messages whose domain had a WHOIS answer (denominator
    /// for coverage).
    pub messages_with_domain: usize,
    /// Messages an NRD blocklist of each window would have caught,
    /// keyed by window days (domain younger than the window at report).
    pub caught_by_window: HashMap<i64, usize>,
    /// Domains with no WHOIS answer (excluded).
    pub no_answer: usize,
}

/// Compute domain ages and NRD coverage over the unique records.
pub fn domain_freshness(out: &PipelineOutput<'_>) -> DomainFreshness {
    // First-report instant per unique domain, plus per-message ages.
    let mut first_report: HashMap<String, UnixTime> = HashMap::new();
    let mut message_ages: Vec<f64> = Vec::new();
    let mut no_answer = 0;
    for r in &out.records {
        let Some(url) = &r.url else { continue };
        let Some(domain) = url.domain.as_deref() else {
            continue;
        };
        if url.free_hosted {
            continue;
        }
        let at = r.curated.posted_at;
        let Some(rec) = out.world.services.whois.query(domain) else {
            no_answer += 1;
            continue;
        };
        let age = (at.0 - rec.created.0) as f64 / 86_400.0;
        if age < 0.0 {
            // A report can never precede registration in our world; a
            // negative age would be a simulator bug, not data.
            continue;
        }
        message_ages.push(age);
        first_report
            .entry(domain.to_string())
            .and_modify(|t| *t = (*t).min(at))
            .or_insert(at);
    }

    let mut ages_days: Vec<f64> = first_report
        .iter()
        .filter_map(|(domain, &at)| {
            let rec = out.world.services.whois.query(domain)?;
            Some((at.0 - rec.created.0) as f64 / 86_400.0)
        })
        .filter(|&a| a >= 0.0)
        .collect();
    ages_days.sort_by(|a, b| a.partial_cmp(b).unwrap());

    let caught_by_window = NRD_WINDOWS
        .iter()
        .map(|&w| (w, message_ages.iter().filter(|&&a| a < w as f64).count()))
        .collect();

    DomainFreshness {
        ages_days,
        messages_with_domain: message_ages.len(),
        caught_by_window,
        no_answer,
    }
}

impl DomainFreshness {
    /// Share of unique domains younger than `days` at first report.
    pub fn share_younger_than(&self, days: f64) -> f64 {
        if self.ages_days.is_empty() {
            return 0.0;
        }
        let n = self.ages_days.iter().filter(|&&a| a < days).count();
        n as f64 / self.ages_days.len() as f64
    }

    /// Message coverage of an NRD blocklist with the given window.
    pub fn nrd_coverage(&self, window_days: i64) -> f64 {
        if self.messages_with_domain == 0 {
            return 0.0;
        }
        self.caught_by_window
            .get(&window_days)
            .copied()
            .unwrap_or(0) as f64
            / self.messages_with_domain as f64
    }

    /// Render the summary.
    pub fn to_table(&self) -> TextTable {
        let mut t = TextTable::new(
            "Domain age at first report & NRD-blocklist coverage",
            &["Metric", "Value"],
        );
        t.row(&[
            "unique registered domains".into(),
            self.ages_days.len().to_string(),
        ]);
        if let Some((min, q1, med, q3, max)) = five_number_summary(&self.ages_days) {
            t.row(&[
                "age min/q1/median/q3/max (days)".into(),
                format!("{min:.1} / {q1:.1} / {med:.1} / {q3:.1} / {max:.1}"),
            ]);
        }
        for &w in NRD_WINDOWS {
            t.row(&[
                format!("NRD < {w}d message coverage"),
                format!("{:.1}%", self.nrd_coverage(w) * 100.0),
            ]);
        }
        t.row(&[
            "domains without WHOIS answer".into(),
            self.no_answer.to_string(),
        ]);
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::testfix;
    use smishing_stats::median;

    #[test]
    fn smishing_domains_are_young_at_first_report() {
        // The §4.4/§4.5 burn-and-churn claim: registration happens days,
        // not years, before the campaign.
        let f = domain_freshness(testfix::output());
        assert!(f.ages_days.len() > 200, "{}", f.ages_days.len());
        let med = median(&f.ages_days).unwrap();
        assert!((1.0..60.0).contains(&med), "median age {med} days");
        // Essentially everything is inside the registration year.
        assert!(
            f.share_younger_than(365.0) > 0.99,
            "{}",
            f.share_younger_than(365.0)
        );
    }

    #[test]
    fn nrd_coverage_is_monotone_and_substantial() {
        let f = domain_freshness(testfix::output());
        let mut prev = 0.0;
        for &w in NRD_WINDOWS {
            let c = f.nrd_coverage(w);
            assert!(c >= prev, "coverage must grow with the window: {w}d");
            prev = c;
        }
        // A 30-day NRD window catches a majority of domain-bearing
        // messages — the blocklist is a real lever…
        assert!(f.nrd_coverage(30) > 0.5, "{}", f.nrd_coverage(30));
        // …but a 7-day window already misses campaigns that age their
        // domains past the first week.
        assert!(f.nrd_coverage(7) < f.nrd_coverage(30), "7d must miss some");
    }

    #[test]
    fn ages_are_never_negative() {
        let f = domain_freshness(testfix::output());
        assert!(f.ages_days.iter().all(|&a| a >= 0.0));
    }

    #[test]
    fn table_renders() {
        let f = domain_freshness(testfix::output());
        assert!(f.to_table().len() >= NRD_WINDOWS.len() + 2);
    }
}
