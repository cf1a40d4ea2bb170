//! Table 17: registrars of smishing domains (§4.4).

use crate::enrich::MissingField;
use crate::pipeline::PipelineOutput;
use crate::table::TextTable;
use smishing_stats::Counter;
use smishing_types::ScamType;
use std::collections::{HashMap, HashSet};

/// Registrar measurements over unique registered domains.
#[derive(Debug, Clone)]
pub struct Registrars {
    /// Domains per registrar.
    pub counts: Counter<&'static str>,
    /// Domains per (registrar, scam type) — §4.4's per-scam preferences.
    pub by_scam: HashMap<(&'static str, ScamType), u64>,
    /// Queried domains with no WHOIS answer.
    pub no_answer: usize,
    /// Domains whose WHOIS lookup *failed* (service fault after retries) —
    /// the paper's honest coverage gap, reported as an "(unresolved)" row.
    pub unresolved: usize,
}

/// Table 17 over unique registered (not free-hosted) domains: a domain
/// counts once, for its first reporter's registrar and scam type.
pub fn registrars(out: &PipelineOutput<'_>) -> Registrars {
    let mut seen: HashSet<&str> = HashSet::with_capacity(out.records.len());
    let mut counts = Counter::new();
    let mut by_scam: HashMap<(&'static str, ScamType), u64> = HashMap::new();
    let mut no_answer = 0;
    let mut unresolved = 0;
    for r in &out.records {
        let Some(url) = &r.url else { continue };
        let Some(domain) = url.domain.as_deref() else {
            continue;
        };
        if url.free_hosted || !seen.insert(domain) {
            continue;
        }
        match url.registrar {
            Some(reg) => {
                counts.add(reg);
                *by_scam.entry((reg, r.annotation.scam_type)).or_default() += 1;
            }
            // The WHOIS call failed, so no registrar means "unknown", not
            // "no answer on file".
            None if r.is_missing(MissingField::Registrar) => unresolved += 1,
            None => no_answer += 1,
        }
    }
    Registrars {
        counts,
        by_scam,
        no_answer,
        unresolved,
    }
}

impl Registrars {
    /// The registrar most used for one scam type.
    pub fn top_for(&self, scam: ScamType) -> Option<&'static str> {
        self.by_scam
            .iter()
            .filter(|((_, s), _)| *s == scam)
            .max_by_key(|(&(reg, _), &c)| (c, std::cmp::Reverse(reg)))
            .map(|((reg, _), _)| *reg)
    }

    /// Preference lift: how over-represented `registrar` is within `scam`
    /// relative to its overall share (1.0 = no preference). §4.4's Gname
    /// claim is a lift claim, not a raw-rank claim.
    pub fn lift(&self, registrar: &'static str, scam: ScamType) -> f64 {
        let scam_total: u64 = self
            .by_scam
            .iter()
            .filter(|((_, s), _)| *s == scam)
            .map(|(_, c)| c)
            .sum();
        let scam_reg = self.by_scam.get(&(registrar, scam)).copied().unwrap_or(0);
        let overall_share = self.counts.share(&registrar);
        if scam_total == 0 || overall_share == 0.0 {
            return 0.0;
        }
        (scam_reg as f64 / scam_total as f64) / overall_share
    }

    /// Render Table 17.
    pub fn to_table(&self) -> TextTable {
        let mut t = TextTable::new(
            "Table 17: top 10 registrars of smishing domains",
            &["Registrar", "Domains"],
        );
        for (reg, c) in self.counts.top_k(10) {
            t.row(&[reg.to_string(), c.to_string()]);
        }
        if self.unresolved > 0 {
            t.row(&["(unresolved)".to_string(), self.unresolved.to_string()]);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::testfix;

    #[test]
    fn godaddy_then_namecheap() {
        let r = registrars(testfix::output());
        let top = r.counts.top_k(2);
        assert_eq!(top[0].0, "GoDaddy", "{top:?}");
        assert_eq!(top[1].0, "NameCheap", "{top:?}");
        assert!(
            top[0].1 as f64 > top[1].1 as f64 * 1.5,
            "GoDaddy leads clearly (464 vs 153): {top:?}"
        );
    }

    #[test]
    fn gname_leads_government_scams() {
        // §4.4: "scammers prefer to abuse Gname ... for government
        // impersonation scams".
        let r = registrars(testfix::output());
        // Gname is strongly over-represented inside government scams
        // relative to its overall share (the §4.4 preference claim).
        assert!(
            r.lift("Gname", ScamType::Government) > 2.0,
            "{}",
            r.lift("Gname", ScamType::Government)
        );
        // While banking prefers GoDaddy outright.
        assert_eq!(r.top_for(ScamType::Banking), Some("GoDaddy"));
    }

    #[test]
    fn top10_covers_most_domains() {
        let r = registrars(testfix::output());
        let top10: u64 = r.counts.top_k(10).iter().map(|(_, c)| c).sum();
        assert!(top10 as f64 / r.counts.total() as f64 > 0.6);
    }

    #[test]
    fn table_renders() {
        let r = registrars(testfix::output());
        assert!(r.to_table().len() >= 5);
    }
}
