//! Report latency: how long after receipt do users report? (extension)
//!
//! §3.2 notes "there is often a delay between when a user receives a
//! smishing SMS and when they report it", which is why the paper extracts
//! the on-screenshot timestamp instead of the post time. The delay itself
//! is operationally interesting: it bounds the takedown window — a report
//! that arrives after the short link died (§3.3.5) can no longer be
//! actively resolved.

use crate::pipeline::PipelineOutput;
use crate::table::TextTable;
use smishing_stats::quantile::five_number_summary;

/// Latency measurements over reports with a full on-screen timestamp.
#[derive(Debug, Clone)]
pub struct ReportLatency {
    /// Delays in hours (receive → post), one per usable report.
    pub delays_hours: Vec<f64>,
    /// Reports lacking a full timestamp (unusable for this analysis).
    pub unusable: usize,
    /// Of the reports with a short link, how many were posted while the
    /// link was still live (the takedown window).
    pub short_links_still_live: usize,
    /// Reports with a short link (denominator).
    pub short_links_total: usize,
}

/// Compute report latency over the curated total.
pub fn report_latency(out: &PipelineOutput<'_>) -> ReportLatency {
    let mut delays_hours = Vec::new();
    let mut unusable = 0;
    let mut live = 0;
    let mut short_total = 0;
    let catalog = smishing_webinfra::ShortenerCatalog::new();
    for c in &out.curated_total {
        // Receive instant: only full on-screen timestamps qualify.
        let Some(received) = c.stamp.and_then(|s| s.full()) else {
            unusable += 1;
            continue;
        };
        let delta = c.posted_at.0 - received.to_unix().0;
        if delta < 0 {
            // Clock skew / ambiguous date parse: drop rather than distort.
            unusable += 1;
            continue;
        }
        delays_hours.push(delta as f64 / 3600.0);

        if let Some(raw) = &c.url_raw {
            if let Some(parsed) = smishing_webinfra::parse_url(raw) {
                if catalog.is_shortener(&parsed.host) {
                    short_total += 1;
                    if matches!(
                        out.world.services.short_links.expand(&parsed, c.posted_at),
                        smishing_webinfra::ExpandResult::Active(_)
                    ) {
                        live += 1;
                    }
                }
            }
        }
    }
    ReportLatency {
        delays_hours,
        unusable,
        short_links_still_live: live,
        short_links_total: short_total,
    }
}

impl ReportLatency {
    /// Share of shortened links still resolvable at report time.
    pub fn live_share(&self) -> f64 {
        if self.short_links_total == 0 {
            0.0
        } else {
            self.short_links_still_live as f64 / self.short_links_total as f64
        }
    }

    /// Render the summary.
    pub fn to_table(&self) -> TextTable {
        let mut t = TextTable::new(
            "Report latency (receive → forum post)",
            &["Metric", "Value"],
        );
        if let Some((min, q1, med, q3, max)) = five_number_summary(&self.delays_hours) {
            t.row(&[
                "reports with full timestamps".into(),
                self.delays_hours.len().to_string(),
            ]);
            t.row(&[
                "min / q1 / median / q3 / max (hours)".into(),
                format!("{min:.1} / {q1:.1} / {med:.1} / {q3:.1} / {max:.1}"),
            ]);
        }
        t.row(&[
            "short links still live at report time".into(),
            format!(
                "{} / {} ({:.0}%)",
                self.short_links_still_live,
                self.short_links_total,
                self.live_share() * 100.0
            ),
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
    fn latency_distribution_matches_the_reporting_model() {
        let lat = report_latency(testfix::output());
        assert!(lat.delays_hours.len() > 1000, "{}", lat.delays_hours.len());
        let med = median(&lat.delays_hours).unwrap();
        // The generator's delay model: quadratic over ~6.5 days + 10 min;
        // the median lands well within the first two days.
        assert!((0.1..48.0).contains(&med), "median {med}h");
        // The bulk sits inside the one-week reporting model…
        let q3 = smishing_stats::quantile(&lat.delays_hours, 0.75).unwrap();
        assert!(q3 <= 7.0 * 24.0 + 1.0, "q3 {q3}h");
        // …but a thin multi-month tail exists: ambiguous dd/mm vs mm/dd
        // screenshot dates resolve day-first (the documented dateparser
        // bias, see `smishing_types::time`), misdating a small share of
        // receives. The artifact is real — the paper's pipeline had the
        // same property.
        let over_a_week = lat
            .delays_hours
            .iter()
            .filter(|&&h| h > 7.0 * 24.0 + 1.0)
            .count();
        let share = over_a_week as f64 / lat.delays_hours.len() as f64;
        assert!(share < 0.15, "misdated share {share}");
    }

    #[test]
    fn most_short_links_are_still_live_when_reported() {
        // The operational takeaway: quick reporting keeps the takedown
        // window open for a majority of short links.
        let lat = report_latency(testfix::output());
        assert!(lat.short_links_total > 100, "{}", lat.short_links_total);
        assert!(
            (0.4..1.0).contains(&lat.live_share()),
            "live share {}",
            lat.live_share()
        );
    }

    #[test]
    fn table_renders() {
        let lat = report_latency(testfix::output());
        assert!(lat.to_table().len() >= 2);
    }
}
