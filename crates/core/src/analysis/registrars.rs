//! Table 17: registrars of smishing domains (§4.4).

use crate::enrich::{EnrichedRecord, MissingField};
use crate::table::TextTable;
use smishing_stats::{Counter, FirstClaim};
use smishing_types::ScamType;
use std::collections::HashMap;

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

/// Table 17: registered (non-free-hosted) domains are first-claimed by
/// `post_id`; the winning record's registrar and scam type are counted at
/// finish.
#[derive(Debug, Clone, Default)]
pub struct RegistrarsAcc {
    claims: FirstClaim<String, RegistrarClaim>,
}

/// What the winning record knew about a domain's registrar.
#[derive(Debug, Clone, Copy)]
struct RegistrarClaim {
    registrar: Option<&'static str>,
    scam: ScamType,
    /// The WHOIS call failed, so `registrar: None` means "unknown",
    /// not "no answer on file".
    whois_failed: bool,
}

impl RegistrarsAcc {
    /// New empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fold in one unique record.
    pub fn add_record(&mut self, r: &EnrichedRecord) {
        let Some(url) = &r.url else { return };
        let Some(domain) = url.domain.clone() else {
            return;
        };
        if url.free_hosted {
            return;
        }
        self.claims.add(
            domain,
            r.curated.post_id.0,
            RegistrarClaim {
                registrar: url.registrar,
                scam: r.annotation.scam_type,
                whois_failed: r.is_missing(MissingField::Registrar),
            },
        );
    }

    /// Absorb another shard's accumulator.
    pub fn merge(&mut self, other: RegistrarsAcc) {
        self.claims.merge(other.claims);
    }

    /// Produce the batch result.
    pub fn finish(&self) -> Registrars {
        let mut counts = Counter::new();
        let mut by_scam: HashMap<(&'static str, ScamType), u64> = HashMap::new();
        let mut no_answer = 0;
        let mut unresolved = 0;
        for (_, _, claim) in self.claims.winners() {
            match claim.registrar {
                Some(reg) => {
                    counts.add(reg);
                    *by_scam.entry((reg, claim.scam)).or_default() += 1;
                }
                None if claim.whois_failed => unresolved += 1,
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
        let r = testfix::output().accs.registrars.finish();
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
        let r = testfix::output().accs.registrars.finish();
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
        let r = testfix::output().accs.registrars.finish();
        let top10: u64 = r.counts.top_k(10).iter().map(|(_, c)| c).sum();
        assert!(top10 as f64 / r.counts.total() as f64 > 0.6);
    }

    #[test]
    fn table_renders() {
        let r = testfix::output().accs.registrars.finish();
        assert!(r.to_table().len() >= 5);
    }
}
