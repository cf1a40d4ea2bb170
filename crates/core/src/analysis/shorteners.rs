//! Table 5: URL shorteners abused per scam type (§4.2).

use crate::pipeline::PipelineOutput;
use crate::table::{count_pct, TextTable};
use smishing_stats::Counter;
use smishing_types::ScamType;
use smishing_webinfra::ParsedUrl;
use std::collections::{HashMap, HashSet};

/// Shortener measurements over unique URLs.
#[derive(Debug, Clone)]
pub struct ShortenerUse {
    /// Unique shortened URLs per service.
    pub services: Counter<&'static str>,
    /// Per (service, scam type) unique URL counts.
    pub by_scam: HashMap<(&'static str, ScamType), u64>,
    /// wa.me click-to-chat links (§4.2's 205 WhatsApp movers).
    pub whatsapp_links: usize,
}

/// Table 5 shortener usage over unique URLs; the scam type comes from
/// the pipeline's own annotation, as in the paper. A URL counts once, for
/// its first reporter.
pub fn shortener_use(out: &PipelineOutput<'_>) -> ShortenerUse {
    let mut seen: HashSet<&ParsedUrl> = HashSet::with_capacity(out.records.len());
    let mut services = Counter::new();
    let mut by_scam: HashMap<(&'static str, ScamType), u64> = HashMap::new();
    let mut whatsapp_links = 0;
    for r in &out.records {
        let Some(url) = &r.url else { continue };
        if !seen.insert(&url.parsed) {
            continue;
        }
        if url.whatsapp {
            whatsapp_links += 1;
        }
        if let Some(host) = url.shortener {
            services.add(host);
            *by_scam.entry((host, r.annotation.scam_type)).or_default() += 1;
        }
    }
    ShortenerUse {
        services,
        by_scam,
        whatsapp_links,
    }
}

impl ShortenerUse {
    /// Render Table 5.
    pub fn to_table(&self) -> TextTable {
        let mut t = TextTable::new(
            "Table 5: top 10 URL shorteners abused per scam type",
            &["Shortener", "URLs", "B", "D", "G", "T", "W", "H"],
        );
        let total = self.services.total();
        for (host, count) in self.services.top_k(10) {
            let cell = |s: ScamType| {
                let c = self.by_scam.get(&(host, s)).copied().unwrap_or(0);
                if c == 0 {
                    "-".to_string()
                } else {
                    c.to_string()
                }
            };
            t.row(&[
                host.to_string(),
                count_pct(count, total),
                cell(ScamType::Banking),
                cell(ScamType::Delivery),
                cell(ScamType::Government),
                cell(ScamType::Telecom),
                cell(ScamType::WrongNumber),
                cell(ScamType::HeyMumDad),
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
    fn bitly_tops_everything() {
        let s = shortener_use(testfix::output());
        let top = s.services.top_k(10);
        assert!(top.len() >= 5, "{top:?}");
        assert_eq!(top[0].0, "bit.ly", "{top:?}");
        // bit.ly is at worst a close second within banking (Table 5: 1,140
        // vs is.gd's 970 — the two are near parity there).
        let bitly_banking = s
            .by_scam
            .get(&("bit.ly", ScamType::Banking))
            .copied()
            .unwrap_or(0);
        for ((host, scam), c) in &s.by_scam {
            if *scam == ScamType::Banking && *host != "bit.ly" && *host != "is.gd" {
                assert!(*c <= bitly_banking, "{host} beats bit.ly in banking");
            }
        }
    }

    #[test]
    fn is_gd_is_banking_heavy() {
        // Table 5: is.gd is #2 for banking but marginal elsewhere.
        let s = shortener_use(testfix::output());
        let isgd_banking = s
            .by_scam
            .get(&("is.gd", ScamType::Banking))
            .copied()
            .unwrap_or(0);
        let isgd_delivery = s
            .by_scam
            .get(&("is.gd", ScamType::Delivery))
            .copied()
            .unwrap_or(0);
        assert!(
            isgd_banking > isgd_delivery,
            "{isgd_banking} vs {isgd_delivery}"
        );
    }

    #[test]
    fn cuttly_prefers_delivery_and_government() {
        let s = shortener_use(testfix::output());
        let d = s
            .by_scam
            .get(&("cutt.ly", ScamType::Delivery))
            .copied()
            .unwrap_or(0);
        let g = s
            .by_scam
            .get(&("cutt.ly", ScamType::Government))
            .copied()
            .unwrap_or(0);
        let banking_share = s
            .by_scam
            .get(&("cutt.ly", ScamType::Banking))
            .copied()
            .unwrap_or(0);
        // Delivery+government together rival its banking use (unlike is.gd).
        assert!(d + g > 0);
        assert!(
            (d + g) as f64 >= banking_share as f64 * 0.3,
            "{d}+{g} vs {banking_share}"
        );
    }

    #[test]
    fn whatsapp_links_exist_but_are_not_shorteners() {
        let s = shortener_use(testfix::output());
        assert!(s.whatsapp_links > 0);
        assert_eq!(s.services.get(&"wa.me"), 0);
    }

    #[test]
    fn table_renders() {
        let s = shortener_use(testfix::output());
        let t = s.to_table();
        assert!(t.len() >= 5);
        assert!(t.to_string().contains("bit.ly"));
    }
}
