//! Certificate Transparency log (§3.3.3, §4.5, Table 7).
//!
//! crt.sh exposes every publicly issued TLS certificate. The paper's key
//! observation is *mechanical*: Let's Encrypt certs are valid 90 days, so a
//! phishing domain kept alive for months accrues many of them, inflating
//! Let's Encrypt's certificate counts relative to paid CAs with year-long
//! validity. [`CtLog::provision`] models exactly that: one renewal chain per
//! (domain, CA) with the CA's validity period; the pipeline then queries
//! per-domain issuance histories.

use parking_lot::RwLock;
use smishing_types::UnixTime;
use std::collections::HashMap;

/// A certificate authority's issuance policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CaPolicy {
    /// CA display name (Table 7).
    pub name: &'static str,
    /// Certificate validity in days.
    pub validity_days: i64,
    /// Whether basic certificates are free of charge.
    pub free: bool,
}

/// CA catalog: Table 7's top ten. Validity periods drive the cert-count
/// asymmetry the paper reports.
pub const CA_POLICIES: &[CaPolicy] = &[
    CaPolicy {
        name: "Let's Encrypt",
        validity_days: 90,
        free: true,
    },
    CaPolicy {
        name: "DigiCert",
        validity_days: 365,
        free: false,
    },
    CaPolicy {
        name: "cPanel",
        validity_days: 90,
        free: true,
    },
    CaPolicy {
        name: "Google Trust Services",
        validity_days: 90,
        free: true,
    },
    CaPolicy {
        name: "Globalsign",
        validity_days: 365,
        free: false,
    },
    CaPolicy {
        name: "Comodo",
        validity_days: 365,
        free: false,
    },
    CaPolicy {
        name: "Amazon",
        validity_days: 395,
        free: true,
    },
    CaPolicy {
        name: "Entrust",
        validity_days: 365,
        free: false,
    },
    CaPolicy {
        name: "Sectigo",
        validity_days: 365,
        free: false,
    },
    CaPolicy {
        name: "Cloudflare",
        validity_days: 90,
        free: true,
    },
];

/// Look up a CA policy by name.
pub fn ca_policy(name: &str) -> Option<CaPolicy> {
    CA_POLICIES.iter().copied().find(|p| p.name == name)
}

/// One logged certificate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CertRecord {
    /// Issuing CA.
    pub issuer: &'static str,
    /// notBefore.
    pub not_before: UnixTime,
    /// notAfter.
    pub not_after: UnixTime,
}

/// The CT log, keyed by registrable domain.
#[derive(Debug, Default)]
pub struct CtLog {
    by_domain: RwLock<HashMap<String, Vec<CertRecord>>>,
}

impl CtLog {
    /// New empty log.
    pub fn new() -> CtLog {
        CtLog::default()
    }

    /// Provision TLS for `domain` with `ca` from `first_issued` until
    /// `active_until`, issuing renewals every `validity − 7` days (a one
    /// week renewal overlap, like real ACME automation). Returns the number
    /// of certificates issued.
    pub fn provision(
        &self,
        domain: &str,
        ca: &CaPolicy,
        first_issued: UnixTime,
        active_until: UnixTime,
    ) -> usize {
        let validity = ca.validity_days * 86_400;
        let renewal = (ca.validity_days - 7).max(1) * 86_400;
        let mut issued = Vec::new();
        let mut t = first_issued;
        loop {
            issued.push(CertRecord {
                issuer: ca.name,
                not_before: t,
                not_after: t.plus_secs(validity),
            });
            t = t.plus_secs(renewal);
            if t > active_until || issued.len() > 10_000 {
                break;
            }
        }
        let n = issued.len();
        self.by_domain
            .write()
            .entry(domain.to_ascii_lowercase())
            .or_default()
            .extend(issued);
        n
    }

    /// Platform-style dense re-issuance: some hosting platforms mint
    /// per-subdomain certificates every few days, which is how single
    /// domains accumulate thousands of crt.sh entries (§4.5 observed up to
    /// 4,681 per URL). Returns the number of certificates issued.
    pub fn provision_dense(
        &self,
        domain: &str,
        ca: &CaPolicy,
        first_issued: UnixTime,
        active_until: UnixTime,
        every_days: i64,
    ) -> usize {
        let validity = ca.validity_days * 86_400;
        let step = every_days.max(1) * 86_400;
        let mut issued = Vec::new();
        let mut t = first_issued;
        while t <= active_until && issued.len() <= 10_000 {
            issued.push(CertRecord {
                issuer: ca.name,
                not_before: t,
                not_after: t.plus_secs(validity),
            });
            t = t.plus_secs(step);
        }
        let n = issued.len();
        self.by_domain
            .write()
            .entry(domain.to_ascii_lowercase())
            .or_default()
            .extend(issued);
        n
    }

    /// crt.sh-style query: all certificates ever logged for a domain.
    pub fn query(&self, domain: &str) -> Vec<CertRecord> {
        self.by_domain
            .read()
            .get(&domain.to_ascii_lowercase())
            .cloned()
            .unwrap_or_default()
    }

    /// Number of domains with at least one certificate.
    pub fn domains(&self) -> usize {
        self.by_domain.read().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn day(n: i64) -> UnixTime {
        UnixTime(n * 86_400)
    }

    #[test]
    fn short_validity_means_more_certs() {
        let log = CtLog::new();
        let le = ca_policy("Let's Encrypt").unwrap();
        let digi = ca_policy("DigiCert").unwrap();
        let n_le = log.provision("a.com", &le, day(0), day(365));
        let n_digi = log.provision("b.com", &digi, day(0), day(365));
        // One year of hosting: ~5 LE certs vs 2 DigiCert certs.
        assert!(n_le >= 4, "{n_le}");
        assert!(n_digi <= 2, "{n_digi}");
        assert!(n_le > n_digi * 2, "validity policy must drive cert counts");
    }

    #[test]
    fn records_have_correct_validity() {
        let log = CtLog::new();
        let le = ca_policy("Let's Encrypt").unwrap();
        log.provision("c.com", &le, day(10), day(20));
        let certs = log.query("c.com");
        assert_eq!(certs.len(), 1);
        assert_eq!(certs[0].not_before, day(10));
        assert_eq!(certs[0].not_after, day(100));
        assert_eq!(certs[0].issuer, "Let's Encrypt");
    }

    #[test]
    fn multiple_cas_per_domain() {
        // §4.5: "cybercriminals sometimes use multiple TLS certificates for
        // smishing URLs".
        let log = CtLog::new();
        log.provision(
            "multi.com",
            &ca_policy("Let's Encrypt").unwrap(),
            day(0),
            day(30),
        );
        log.provision(
            "multi.com",
            &ca_policy("Cloudflare").unwrap(),
            day(0),
            day(30),
        );
        let issuers: Vec<_> = log.query("multi.com").iter().map(|c| c.issuer).collect();
        assert!(issuers.contains(&"Let's Encrypt"));
        assert!(issuers.contains(&"Cloudflare"));
        assert_eq!(log.domains(), 1);
    }

    #[test]
    fn unknown_domain_has_no_certs() {
        assert!(CtLog::new().query("ghost.com").is_empty());
    }

    #[test]
    fn catalog_matches_table7() {
        assert_eq!(CA_POLICIES.len(), 10);
        assert!(ca_policy("Let's Encrypt").unwrap().free);
        assert!(!ca_policy("DigiCert").unwrap().free);
        assert_eq!(ca_policy("Nope"), None);
    }
}
