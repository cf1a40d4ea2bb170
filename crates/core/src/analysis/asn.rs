//! Table 8: autonomous systems hosting smishing pages (§4.6).

use crate::enrich::EnrichedRecord;
use crate::table::TextTable;
use smishing_stats::{Counter, FirstClaim};
use std::collections::{BTreeSet, HashSet};
use std::net::Ipv4Addr;

/// AS measurements over resolving domains.
#[derive(Debug, Clone)]
pub struct AsnUse {
    /// Domains with at least one passive-DNS resolution.
    pub resolving_domains: usize,
    /// Distinct IPs observed.
    pub distinct_ips: usize,
    /// Distinct IPs per AS organization.
    pub ips_per_org: Counter<&'static str>,
    /// Domains per AS organization.
    pub domains_per_org: Counter<&'static str>,
    /// (org, ASNs, countries) details for the table.
    pub org_details: Vec<(&'static str, BTreeSet<u32>, BTreeSet<&'static str>)>,
    /// Share of resolving domains fronted by Cloudflare (§4.6's 18.8%).
    pub cloudflare_domain_share: f64,
    /// Domains on bulletproof hosting providers.
    pub bulletproof_domains: usize,
}

/// One resolution's contribution, captured at claim time: the AS record is
/// a static-catalog entry, so its org/ASN/country/bulletproof flags travel
/// with the claim and no world lookup is needed at finish.
#[derive(Debug, Clone, Copy)]
struct AsnResolution {
    ip: Ipv4Addr,
    org: &'static str,
    asn: u32,
    country: &'static str,
    bulletproof: bool,
}

/// One record's contribution for its unique domain. `resolved` mirrors the
/// batch check on the raw resolution list (which may contain entries with
/// no AS info); `infos` keeps only the informative ones.
#[derive(Debug, Clone)]
struct AsnClaim {
    resolved: bool,
    infos: Vec<AsnResolution>,
}

/// Table 8 AS usage: a record claims its registrable domain even when it
/// has no resolutions (mirroring the batch pass, where a non-resolving
/// first record still consumes the domain slot); the global distinct-IP
/// attribution is replayed over winners in `post_id` order at finish.
#[derive(Debug, Clone, Default)]
pub struct AsnAcc {
    claims: FirstClaim<String, AsnClaim>,
}

impl AsnAcc {
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
        let infos = url
            .resolutions
            .iter()
            .filter_map(|(res, info)| {
                info.as_ref().map(|i| AsnResolution {
                    ip: res.ip,
                    org: i.record.org,
                    asn: i.asn,
                    country: i.country,
                    bulletproof: i.record.bulletproof,
                })
            })
            .collect();
        let claim = AsnClaim {
            resolved: !url.resolutions.is_empty(),
            infos,
        };
        self.claims.add(domain, r.curated.post_id.0, claim);
    }

    /// Absorb another shard's accumulator.
    pub fn merge(&mut self, other: AsnAcc) {
        self.claims.merge(other.claims);
    }

    /// Produce the batch result.
    pub fn finish(&self) -> AsnUse {
        let mut ips: HashSet<Ipv4Addr> = HashSet::new();
        let mut ips_per_org: Counter<&'static str> = Counter::new();
        let mut domains_per_org: Counter<&'static str> = Counter::new();
        let mut org_details: Vec<(&'static str, BTreeSet<u32>, BTreeSet<&'static str>)> =
            Vec::new();
        let mut resolving = 0;
        let mut cloudflare_domains = 0;
        let mut bulletproof_domains = 0;

        // Claimant order replays the batch pass: first-seen records hand out
        // distinct-IP credit and org_details insertion positions.
        for (_, _, claim) in self.claims.winners_by_claimant() {
            if !claim.resolved {
                continue;
            }
            resolving += 1;
            let mut orgs_here: HashSet<&'static str> = HashSet::new();
            let mut bulletproof_here = false;
            for info in &claim.infos {
                if ips.insert(info.ip) {
                    ips_per_org.add(info.org);
                }
                orgs_here.insert(info.org);
                bulletproof_here |= info.bulletproof;
                match org_details.iter_mut().find(|(o, _, _)| *o == info.org) {
                    Some((_, asns, countries)) => {
                        asns.insert(info.asn);
                        countries.insert(info.country);
                    }
                    None => {
                        let mut asns = BTreeSet::new();
                        asns.insert(info.asn);
                        let mut countries = BTreeSet::new();
                        countries.insert(info.country);
                        org_details.push((info.org, asns, countries));
                    }
                }
            }
            if orgs_here.contains("Cloudflare") {
                cloudflare_domains += 1;
            }
            if bulletproof_here {
                bulletproof_domains += 1;
            }
            for org in orgs_here {
                domains_per_org.add(org);
            }
        }
        AsnUse {
            resolving_domains: resolving,
            distinct_ips: ips.len(),
            ips_per_org,
            domains_per_org,
            org_details,
            cloudflare_domain_share: if resolving == 0 {
                0.0
            } else {
                cloudflare_domains as f64 / resolving as f64
            },
            bulletproof_domains,
        }
    }
}

impl AsnUse {
    /// Render Table 8 (excluding Cloudflare, which the paper discusses
    /// separately as a proxy in front of 18.8% of domains).
    pub fn to_table(&self) -> TextTable {
        let mut t = TextTable::new(
            "Table 8: top 10 ASes hosting smishing web pages",
            &["AS Name", "IPs", "ASNs", "Countries"],
        );
        let mut rows = 0;
        for (org, ips) in self.ips_per_org.sorted() {
            if org == "Cloudflare" {
                continue;
            }
            let (asns, countries) = self
                .org_details
                .iter()
                .find(|(o, _, _)| *o == org)
                .map(|(_, a, c)| {
                    (
                        a.iter()
                            .map(|n| format!("AS{n}"))
                            .collect::<Vec<_>>()
                            .join(", "),
                        c.iter().copied().collect::<Vec<_>>().join(", "),
                    )
                })
                .unwrap_or_default();
            t.row(&[org.to_string(), ips.to_string(), asns, countries]);
            rows += 1;
            if rows == 10 {
                break;
            }
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use crate::analysis::testfix;

    #[test]
    fn only_a_minority_of_domains_resolve() {
        // §4.6: 466 resolving domains out of thousands queried.
        let u = testfix::output().accs.asn.finish();
        assert!(u.resolving_domains > 10, "{}", u.resolving_domains);
        assert!(
            u.distinct_ips >= u.resolving_domains,
            "IPs {} < domains {}",
            u.distinct_ips,
            u.resolving_domains
        );
    }

    #[test]
    fn cloudflare_fronts_a_large_share() {
        let u = testfix::output().accs.asn.finish();
        assert!(
            (0.08..0.35).contains(&u.cloudflare_domain_share),
            "{}",
            u.cloudflare_domain_share
        );
        // And holds many IPs (its proxy ranges).
        assert!(u.ips_per_org.get(&"Cloudflare") > 0);
    }

    #[test]
    fn mainstream_clouds_lead_table8() {
        let u = testfix::output().accs.asn.finish();
        let top: Vec<&str> = u
            .ips_per_org
            .sorted()
            .into_iter()
            .map(|(o, _)| o)
            .filter(|o| *o != "Cloudflare")
            .take(5)
            .collect();
        assert!(
            top.contains(&"Amazon") || top.contains(&"Akamai"),
            "expected a big cloud in {top:?}"
        );
    }

    #[test]
    fn bulletproof_hosting_observed() {
        let u = testfix::output().accs.asn.finish();
        assert!(u.bulletproof_domains > 0, "BHPs should appear (§4.6)");
        assert!(
            u.bulletproof_domains < u.resolving_domains / 2,
            "but remain a minority"
        );
    }

    #[test]
    fn table_renders_without_cloudflare() {
        let u = testfix::output().accs.asn.finish();
        let t = u.to_table();
        assert!(t.len() >= 3);
        assert!(!t.to_string().contains("Cloudflare"));
    }
}
