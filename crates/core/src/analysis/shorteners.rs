//! Table 5: URL shorteners abused per scam type (§4.2).

use crate::enrich::EnrichedRecord;
use crate::table::{count_pct, TextTable};
use smishing_stats::{Counter, FirstClaim};
use smishing_types::ScamType;
use std::collections::HashMap;

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

/// One record's contribution for its URL string, were it the first record
/// carrying that URL.
#[derive(Debug, Clone)]
struct ShortenerClaim {
    whatsapp: bool,
    shortener: Option<&'static str>,
    scam: ScamType,
}

/// Table 5 shortener usage; the scam type comes from the pipeline's own
/// annotation, as in the paper. URL uniqueness is first-wins by `post_id`,
/// held as per-URL claims and folded at finish.
#[derive(Debug, Clone, Default)]
pub struct ShortenerAcc {
    claims: FirstClaim<String, ShortenerClaim>,
}

impl ShortenerAcc {
    /// New empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fold in one unique record.
    pub fn add_record(&mut self, r: &EnrichedRecord) {
        let Some(url) = &r.url else { return };
        self.claims.add(
            url.parsed.to_url_string(),
            r.curated.post_id.0,
            ShortenerClaim {
                whatsapp: url.whatsapp,
                shortener: url.shortener,
                scam: r.annotation.scam_type,
            },
        );
    }

    /// Produce the batch result.
    pub fn finish(&self) -> ShortenerUse {
        let mut services = Counter::new();
        let mut by_scam: HashMap<(&'static str, ScamType), u64> = HashMap::new();
        let mut whatsapp_links = 0;
        for (_, _, claim) in self.claims.winners() {
            if claim.whatsapp {
                whatsapp_links += 1;
            }
            if let Some(host) = claim.shortener {
                services.add(host);
                *by_scam.entry((host, claim.scam)).or_default() += 1;
            }
        }
        ShortenerUse {
            services,
            by_scam,
            whatsapp_links,
        }
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
        let s = testfix::output().accs().shorteners.finish();
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
        let s = testfix::output().accs().shorteners.finish();
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
        let s = testfix::output().accs().shorteners.finish();
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
        let s = testfix::output().accs().shorteners.finish();
        assert!(s.whatsapp_links > 0);
        assert_eq!(s.services.get(&"wa.me"), 0);
    }

    #[test]
    fn table_renders() {
        let s = testfix::output().accs().shorteners.finish();
        let t = s.to_table();
        assert!(t.len() >= 5);
        assert!(t.to_string().contains("bit.ly"));
    }
}
