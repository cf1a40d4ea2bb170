//! Table 7: TLS certificate authorities (§4.5).

use crate::enrich::EnrichedRecord;
use crate::table::{group_thousands, TextTable};
use smishing_stats::{mean, median, Counter, FirstClaim};
use std::collections::HashSet;

/// CA measurements over unique domains.
#[derive(Debug, Clone)]
pub struct TlsUse {
    /// Certificates per CA (Table 7 "Certificates").
    pub certs_per_ca: Counter<&'static str>,
    /// Domains per CA (Table 7 "Domains").
    pub domains_per_ca: Counter<&'static str>,
    /// Certificates per domain (for the mean/median of §4.5).
    pub certs_per_domain: Vec<f64>,
    /// Domains with at least one certificate.
    pub domains_with_tls: usize,
}

/// Table 7 CA usage. A record claims its registrable domain even when it
/// holds no certificates (mirroring the batch pass, where a cert-less
/// first record still consumes the domain's uniqueness slot); the
/// cert-emptiness check happens on the winner at finish.
#[derive(Debug, Clone, Default)]
pub struct TlsAcc {
    claims: FirstClaim<String, Vec<&'static str>>,
}

impl TlsAcc {
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
        let issuers: Vec<&'static str> = url.certs.iter().map(|c| c.issuer).collect();
        self.claims.add(domain, r.curated.post_id.0, issuers);
    }

    /// Absorb another shard's accumulator.
    pub fn merge(&mut self, other: TlsAcc) {
        self.claims.merge(other.claims);
    }

    /// Produce the batch result.
    pub fn finish(&self) -> TlsUse {
        let mut certs_per_ca = Counter::new();
        let mut domains_per_ca = Counter::new();
        let mut certs_per_domain = Vec::new();
        let mut domains_with_tls = 0;
        // Claimant order keeps certs_per_domain in batch (post_id) order.
        for (_, _, issuers) in self.claims.winners_by_claimant() {
            if issuers.is_empty() {
                continue;
            }
            domains_with_tls += 1;
            certs_per_domain.push(issuers.len() as f64);
            let mut cas_here: HashSet<&'static str> = HashSet::new();
            for &issuer in issuers {
                certs_per_ca.add(issuer);
                cas_here.insert(issuer);
            }
            for ca in cas_here {
                domains_per_ca.add(ca);
            }
        }
        TlsUse {
            certs_per_ca,
            domains_per_ca,
            certs_per_domain,
            domains_with_tls,
        }
    }
}

impl TlsUse {
    /// Mean certificates per domain (§4.5 reports 39 at paper scale).
    pub fn mean_certs(&self) -> f64 {
        mean(&self.certs_per_domain).unwrap_or(0.0)
    }

    /// Median certificates per domain (§4.5 reports 4).
    pub fn median_certs(&self) -> f64 {
        median(&self.certs_per_domain).unwrap_or(0.0)
    }

    /// Render Table 7.
    pub fn to_table(&self) -> TextTable {
        let mut t = TextTable::new(
            "Table 7: top 10 TLS certificate authorities",
            &["Certificate Authority", "Certificates", "Domains"],
        );
        for (ca, certs) in self.certs_per_ca.top_k(10) {
            t.row(&[
                ca.to_string(),
                group_thousands(certs),
                group_thousands(self.domains_per_ca.get(&ca)),
            ]);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use crate::analysis::testfix;

    #[test]
    fn lets_encrypt_tops_both_columns() {
        let u = testfix::output().accs.tls.finish();
        assert!(u.domains_with_tls > 100, "{}", u.domains_with_tls);
        assert_eq!(u.certs_per_ca.top_k(1)[0].0, "Let's Encrypt");
        assert_eq!(u.domains_per_ca.top_k(1)[0].0, "Let's Encrypt");
    }

    #[test]
    fn validity_policy_drives_cert_asymmetry() {
        // Table 7's signature: Sectigo serves many domains with relatively
        // few certificates (1-year validity), Let's Encrypt the opposite.
        let u = testfix::output().accs.tls.finish();
        let le_ratio = u.certs_per_ca.get(&"Let's Encrypt") as f64
            / u.domains_per_ca.get(&"Let's Encrypt").max(1) as f64;
        let sectigo_ratio =
            u.certs_per_ca.get(&"Sectigo") as f64 / u.domains_per_ca.get(&"Sectigo").max(1) as f64;
        assert!(
            le_ratio > sectigo_ratio * 2.0,
            "LE {le_ratio} vs Sectigo {sectigo_ratio}"
        );
    }

    #[test]
    fn skewed_cert_counts() {
        // §4.5: mean 39, median 4 — a right-skewed distribution. The scaled
        // world keeps the mean ≫ median shape.
        let u = testfix::output().accs.tls.finish();
        assert!(
            u.mean_certs() > u.median_certs() * 1.3,
            "mean {} median {}",
            u.mean_certs(),
            u.median_certs()
        );
        assert!(u.median_certs() >= 1.0);
    }

    #[test]
    fn multiple_cas_per_domain_possible() {
        let u = testfix::output().accs.tls.finish();
        let domain_sum: u64 = u.domains_per_ca.iter().map(|(_, c)| c).sum();
        assert!(
            domain_sum as usize > u.domains_with_tls,
            "some domains must hold certs from several CAs"
        );
    }

    #[test]
    fn table_renders() {
        let u = testfix::output().accs.tls.finish();
        let t = u.to_table();
        assert!(t.len() >= 5);
        assert!(t.to_string().contains("Let's Encrypt"));
    }
}
