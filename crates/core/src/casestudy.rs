//! §6 / Table 19: the active case study — malware via smish.
//!
//! From a random sample of Twitter reports in the real-time window, open
//! every URL while it is live: expand short links, then visit the landing
//! site with desktop and Android device profiles. Android-only APK
//! downloads are hashed, checked against AndroZoo (always fresh → absent),
//! submitted to the VT label simulator, and unified with the Euphony-style
//! labeler.

use crate::pipeline::PipelineOutput;
use crate::table::TextTable;
use rand::rngs::StdRng;
use rand::SeedableRng;
use smishing_malcase::{
    generate_vendor_labels, unify_labels, AndroZoo, ApkArtifact, Device, RedirectOutcome,
    RedirectResolver,
};
use smishing_stats::reservoir_sample;
use smishing_types::Forum;
use smishing_webinfra::{parse_url, ExpandResult};

/// One identified malware sample (a Table 19 row).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MalwareFinding {
    /// SHA-256 IoC.
    pub sha256: String,
    /// Euphony-unified family (None = all-generic labels).
    pub family: Option<String>,
    /// Whether AndroZoo already knew the hash.
    pub in_androzoo: bool,
}

/// Case-study results.
#[derive(Debug, Clone)]
pub struct CaseStudy {
    /// Reports sampled (paper: 200).
    pub sampled_reports: usize,
    /// URLs manually investigated (paper: 145).
    pub urls_investigated: usize,
    /// Short links already dead at visit time.
    pub dead_links: usize,
    /// Phishing pages reached.
    pub phishing_pages: usize,
    /// APK droppers found (paper: 18).
    pub findings: Vec<MalwareFinding>,
    /// Direct `.apk` URLs seen in the full dataset (§6 found 89 more).
    pub direct_apk_urls: usize,
}

/// Build the "live web" resolver from the world's campaign infrastructure.
///
/// This models the internet the analyst visits — it is environment, not
/// pipeline knowledge.
fn build_resolver(out: &PipelineOutput<'_>) -> RedirectResolver {
    let resolver = RedirectResolver::new();
    for c in &out.world.campaigns {
        let Some(plan) = &c.url_plan else { continue };
        if plan.whatsapp {
            continue;
        }
        let apk = c
            .malware
            .as_ref()
            .map(|m| ApkArtifact::new(m.apk_name.clone(), m.sha256.clone(), m.family));
        resolver.register(&plan.domain, &plan.landing_url(0), apk);
    }
    resolver
}

/// Run the §6 case study.
pub fn case_study(out: &PipelineOutput<'_>, sample_size: usize, seed: u64) -> CaseStudy {
    let resolver = build_resolver(out);
    let zoo = AndroZoo::with_corpus(seed, 25_000);

    // Real-time sample: Twitter reports posted inside the paper's live
    // collection window (Nov 30 2022 – Jun 23 2023, §3.1.1).
    let window_start = smishing_types::Date::new(2022, 11, 30)
        .expect("valid")
        .days_from_epoch()
        * 86_400;
    let window_end = smishing_types::Date::new(2023, 6, 23)
        .expect("valid")
        .days_from_epoch()
        * 86_400;
    let realtime: Vec<_> = out
        .curated_total
        .iter()
        .filter(|c| c.forum == Forum::Twitter)
        .filter(|c| (window_start..=window_end).contains(&c.posted_at.0))
        .collect();
    let mut rng = StdRng::seed_from_u64(seed);
    let sample = reservoir_sample(realtime, sample_size, &mut rng);

    let mut urls_investigated = 0;
    let mut dead_links = 0;
    let mut phishing_pages = 0;
    let mut findings = Vec::new();
    let mut seen_hashes = std::collections::HashSet::new();

    for report in &sample {
        let Some(raw) = &report.url_raw else { continue };
        let Some(parsed) = parse_url(raw) else {
            continue;
        };
        urls_investigated += 1;

        // Expand the short link "live": at the time the analyst clicks,
        // which we model as shortly after the report was posted.
        let visit_time = report.posted_at.plus_secs(3600);
        let landing_host = if smishing_webinfra::ShortenerCatalog::new().is_shortener(&parsed.host)
        {
            match out.world.services.short_links.expand(&parsed, visit_time) {
                ExpandResult::Active(target) => match parse_url(&target) {
                    Some(t) => t.host,
                    None => continue,
                },
                ExpandResult::TakenDown | ExpandResult::NotFound => {
                    dead_links += 1;
                    continue;
                }
            }
        } else {
            parsed.host.clone()
        };

        // Visit with both device profiles (§3.3.5).
        let desktop = resolver.open(&landing_host, Device::Desktop);
        let android = resolver.open(&landing_host, Device::Android);
        if matches!(desktop, RedirectOutcome::PhishingPage(_)) {
            phishing_pages += 1;
        }
        if let RedirectOutcome::ApkDownload(apk) = android {
            if seen_hashes.insert(apk.sha256.clone()) {
                let labels = generate_vendor_labels(&apk, seed);
                findings.push(MalwareFinding {
                    in_androzoo: zoo.contains(&apk.sha256),
                    family: unify_labels(&labels),
                    sha256: apk.sha256,
                });
            }
        }
    }

    // §6 also greps the whole dataset for direct .apk URLs.
    let mut seen_apk_urls = std::collections::HashSet::new();
    for r in &out.records {
        if let Some(u) = &r.url {
            if u.parsed.points_to_apk() && seen_apk_urls.insert(u.parsed.to_url_string()) {}
        }
    }

    CaseStudy {
        sampled_reports: sample.len(),
        urls_investigated,
        dead_links,
        phishing_pages,
        findings,
        direct_apk_urls: seen_apk_urls.len(),
    }
}

impl CaseStudy {
    /// Render Table 19.
    pub fn to_table(&self) -> TextTable {
        let mut t = TextTable::new(
            "Table 19: APK malware identified from smishing messages",
            &["IoC (SHA-256)", "Malware family", "In AndroZoo"],
        );
        for f in &self.findings {
            t.row(&[
                f.sha256.clone(),
                f.family.clone().unwrap_or_else(|| "(generic)".into()),
                if f.in_androzoo { "yes" } else { "no" }.to_string(),
            ]);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::testfix;

    fn study() -> CaseStudy {
        case_study(testfix::output(), 200, 0xCA5E)
    }

    #[test]
    fn sample_and_urls_shape() {
        let s = study();
        assert_eq!(s.sampled_reports, 200);
        // Paper: 145 of 200 reports had URLs.
        assert!(
            (100..=200).contains(&s.urls_investigated),
            "{}",
            s.urls_investigated
        );
        assert!(s.phishing_pages > 10, "{}", s.phishing_pages);
    }

    #[test]
    fn finds_apk_droppers_absent_from_androzoo() {
        let s = study();
        assert!(
            !s.findings.is_empty(),
            "malware campaigns exist in the world"
        );
        for f in &s.findings {
            assert!(
                !f.in_androzoo,
                "fresh droppers are never in AndroZoo (§3.3.5)"
            );
            assert_eq!(f.sha256.len(), 64);
        }
    }

    #[test]
    fn smsspy_dominates_families() {
        let s = study();
        let smsspy = s
            .findings
            .iter()
            .filter(|f| f.family.as_deref() == Some("SMSspy"))
            .count();
        let named: usize = s.findings.iter().filter(|f| f.family.is_some()).count();
        if named >= 3 {
            assert!(
                smsspy * 2 >= named,
                "SMSspy should be the plurality family: {smsspy}/{named}"
            );
        }
    }

    #[test]
    fn direct_apk_urls_in_dataset() {
        let s = study();
        assert!(s.direct_apk_urls > 0, "§6: URLs ending in .apk exist");
    }

    #[test]
    fn table_renders() {
        let s = study();
        assert_eq!(s.to_table().len(), s.findings.len());
    }
}
