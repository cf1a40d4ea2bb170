//! Enrichment: curated messages → fully annotated records (§3.3, Fig. 1).
//!
//! Per unique message:
//!
//! - sender classification (phone / email / alphanumeric) and, for phones,
//!   an HLR lookup (§3.3.1),
//! - URL parsing, shortener detection, TLD/registrable-domain extraction,
//!   WHOIS, CT-log, passive-DNS + ASN mapping (§3.3.3),
//! - VirusTotal and GSB verdicts (§3.3.4),
//! - text annotation: scam type, brand, lures, language (§3.3.6).
//!
//! Each of those concerns is one [`Enricher`] stage in its own module;
//! [`EnricherRegistry::standard`] runs them in the paper's order. All
//! external-service calls go through one [`ResilientClient`]: bounded
//! retries with deterministic exponential backoff + jitter, per-service
//! circuit breakers for sustained outages, and graceful degradation — a
//! record whose enrichment ultimately fails is *kept*, tagged
//! [`EnrichmentStatus::Partial`] with the list of missing fields, instead
//! of being dropped. The paper's own tables have exactly this shape: HLR
//! and WHOIS coverage is explicitly incomplete.
//!
//! Retry timing is virtual: the computed backoff is recorded in the
//! `enrich.backoff_ns` histogram but never slept, so fault runs stay fast
//! and fully deterministic.

pub mod annotate;
pub mod av;
mod client;
pub mod ct;
pub mod hlr;
pub mod ipinfo;
pub mod pdns;
mod record;
mod registry;
pub mod sender;
pub mod url;
pub mod whois;

pub use client::{ResilientClient, RetryPolicy, ServiceMeters};
pub use record::{EnrichedRecord, EnrichmentStatus, Evidence, MissingField, UrlIntel};
pub use registry::{Draft, EnrichCtx, Enricher, EnricherRegistry};
pub use sender::parse_sender;

use crate::curation::CuratedMessage;
use smishing_obs::Obs;
use smishing_worldsim::World;
use std::net::Ipv4Addr;

/// Enrich one curated message (unobserved).
pub fn enrich(curated: CuratedMessage, world: &World) -> EnrichedRecord {
    EnricherRegistry::standard().enrich(&ResilientClient::disabled(), curated, world)
}

/// Enrich a batch through the standard registry, with per-service call
/// accounting and fault tolerance. Pass [`Obs::noop`] for an unobserved
/// run — every meter is inert and enrichment runs the uninstrumented
/// code path.
pub fn enrich_all(curated: Vec<CuratedMessage>, world: &World, obs: &Obs) -> Vec<EnrichedRecord> {
    let client = ResilientClient::new(obs);
    let registry = EnricherRegistry::standard();
    curated
        .into_iter()
        .map(|c| registry.enrich(&client, c, world))
        .collect()
}

/// Distinct resolved IPs of a record set (§4.6).
pub fn distinct_ips(records: &[EnrichedRecord]) -> Vec<Ipv4Addr> {
    let mut ips: Vec<Ipv4Addr> = records
        .iter()
        .filter_map(|r| r.url.as_ref())
        .flat_map(|u| u.resolutions.iter().map(|(r, _)| r.ip))
        .collect();
    ips.sort_unstable();
    ips.dedup();
    ips
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::curation::{curate_posts, dedup, CurationOptions, DedupMode};
    use smishing_fault::{FaultPlan, FaultProfile, ServiceKind, TickWindow};
    use smishing_types::{ScamType, SenderId, SenderKind};
    use smishing_worldsim::{Post, WorldConfig};

    fn records() -> (World, Vec<EnrichedRecord>) {
        let world = World::generate(WorldConfig {
            scale: 0.06,
            seed: 71,
            ..WorldConfig::default()
        });
        let refs: Vec<&Post> = world.posts.iter().collect();
        let curated = curate_posts(&refs, &CurationOptions::default());
        let unique = dedup(&curated, DedupMode::Normalized);
        let recs = enrich_all(unique, &world, &Obs::noop());
        (world, recs)
    }

    #[test]
    fn standard_registry_runs_the_paper_stage_order() {
        assert_eq!(
            EnricherRegistry::standard().stage_names(),
            vec!["sender", "hlr", "url", "whois", "ct", "pdns", "ipinfo", "av", "annotate"]
        );
    }

    #[test]
    fn custom_registries_compose_from_stages() {
        // A registry without the service stages still produces a record:
        // the draft carries defaults and nothing degrades.
        let registry = EnricherRegistry::from_stages(vec![
            Box::new(sender::SenderEnricher),
            Box::new(annotate::AnnotateEnricher),
        ]);
        let world = World::generate(WorldConfig {
            scale: 0.01,
            seed: 71,
            ..WorldConfig::default()
        });
        let refs: Vec<&Post> = world.posts.iter().collect();
        let curated = curate_posts(&refs, &CurationOptions::default());
        let unique = dedup(&curated, DedupMode::Normalized);
        let client = ResilientClient::disabled();
        for c in unique.into_iter().take(10) {
            let rec = registry.enrich(&client, c, &world);
            assert!(rec.url.is_none(), "url stage not registered");
            assert!(rec.hlr.is_none(), "hlr stage not registered");
            assert!(!rec.is_degraded());
        }
    }

    #[test]
    fn sender_kinds_cover_all_three() {
        let (_, recs) = records();
        let mut kinds = std::collections::HashSet::new();
        for r in &recs {
            if let Some(s) = &r.sender {
                kinds.insert(s.kind());
            }
        }
        assert!(kinds.contains(&SenderKind::Phone));
        assert!(kinds.contains(&SenderKind::Alphanumeric));
        assert!(kinds.contains(&SenderKind::Email), "{kinds:?}");
    }

    #[test]
    fn phone_senders_get_hlr_records() {
        let (_, recs) = records();
        let mut phones = 0;
        for r in &recs {
            if matches!(r.sender, Some(SenderId::Phone(_))) {
                assert!(r.hlr.is_some());
                phones += 1;
            }
        }
        assert!(phones > 20, "{phones}");
    }

    #[test]
    fn shortened_urls_hide_their_domains() {
        let (_, recs) = records();
        let mut shortened = 0;
        for r in &recs {
            if let Some(u) = &r.url {
                if u.shortener.is_some() {
                    shortened += 1;
                    assert!(u.domain.is_none(), "{:?}", u.parsed);
                    assert!(u.certs.is_empty());
                }
            }
        }
        assert!(shortened > 10, "{shortened}");
    }

    #[test]
    fn direct_urls_resolve_infrastructure() {
        let (_, recs) = records();
        let mut with_registrar = 0;
        let mut with_certs = 0;
        for r in &recs {
            if let Some(u) = &r.url {
                if u.domain.is_some() && !u.free_hosted {
                    if u.registrar.is_some() {
                        with_registrar += 1;
                    }
                    if !u.certs.is_empty() {
                        with_certs += 1;
                    }
                }
            }
        }
        assert!(with_registrar > 20, "{with_registrar}");
        assert!(with_certs > 20, "{with_certs}");
    }

    #[test]
    fn annotations_recover_scam_types() {
        let (world, recs) = records();
        let mut hits = 0;
        let mut total = 0;
        for r in &recs {
            let Some(mid) = r.curated.truth_message else {
                continue;
            };
            let truth = &world.messages[mid.0 as usize].truth;
            total += 1;
            if r.annotation.scam_type == truth.scam_type {
                hits += 1;
            }
        }
        let acc = hits as f64 / total as f64;
        assert!(acc > 0.75, "scam-type accuracy {acc}");
    }

    #[test]
    fn banking_dominates_annotations() {
        let (_, recs) = records();
        let banking = recs
            .iter()
            .filter(|r| r.annotation.scam_type == ScamType::Banking)
            .count();
        assert!(
            banking as f64 / recs.len() as f64 > 0.3,
            "{banking}/{}",
            recs.len()
        );
    }

    #[test]
    fn parse_sender_handles_all_shapes() {
        assert!(parse_sender("+447911123456").unwrap().phone().is_some());
        assert_eq!(
            parse_sender("SBIBNK").unwrap().kind(),
            SenderKind::Alphanumeric
        );
        assert_eq!(parse_sender("a@b.co").unwrap().kind(), SenderKind::Email);
        assert!(parse_sender("  ").is_none());
    }

    #[test]
    fn fault_free_records_are_fully_enriched() {
        let (_, recs) = records();
        assert!(recs.iter().all(|r| !r.is_degraded()));
    }

    #[test]
    fn faults_degrade_records_instead_of_dropping_them() {
        let mut world = World::generate(WorldConfig {
            scale: 0.02,
            seed: 71,
            ..WorldConfig::default()
        });
        let refs: Vec<&Post> = world.posts.iter().collect();
        let curated = curate_posts(&refs, &CurationOptions::default());
        let unique = dedup(&curated, DedupMode::Normalized);
        let baseline = enrich_all(unique.clone(), &world, &Obs::noop()).len();

        world.set_fault_plan(&FaultPlan::harsh(13));
        let recs = enrich_all(unique, &world, &Obs::noop());
        assert_eq!(recs.len(), baseline, "no record may be dropped");
        let degraded = recs.iter().filter(|r| r.is_degraded()).count();
        assert!(degraded > 0, "harsh faults must degrade some records");
        for r in &recs {
            if r.is_missing(MissingField::Registrar) {
                assert!(r.url.as_ref().is_some_and(|u| u.registrar.is_none()));
            }
        }
    }

    #[test]
    fn retries_clear_soft_faults_and_are_counted() {
        let mut world = World::generate(WorldConfig {
            scale: 0.02,
            seed: 71,
            ..WorldConfig::default()
        });
        let refs: Vec<&Post> = world.posts.iter().collect();
        let curated = curate_posts(&refs, &CurationOptions::default());
        let unique = dedup(&curated, DedupMode::Normalized);

        // Soft-only faults: every faulted key clears within the retry
        // budget, so nothing degrades but retries are recorded.
        let mut plan = FaultPlan::none();
        plan.seed = 5;
        for kind in ServiceKind::ALL {
            plan.set_profile(
                kind,
                FaultProfile {
                    transient: 0.3,
                    hard: 0.0,
                    ..FaultProfile::default()
                },
            );
        }
        world.set_fault_plan(&plan);
        let obs = Obs::enabled();
        let recs = enrich_all(unique, &world, &obs);
        assert!(recs.iter().all(|r| !r.is_degraded()));
        let report = obs.report().unwrap();
        let retries = report
            .counters
            .iter()
            .find(|(id, _)| id.name == "enrich.retries")
            .map(|(_, v)| *v)
            .unwrap_or(0);
        assert!(retries > 0, "transient faults must be retried");
    }

    #[test]
    fn breaker_skips_calls_inside_an_outage_window_only() {
        let mut world = World::generate(WorldConfig {
            scale: 0.02,
            seed: 71,
            ..WorldConfig::default()
        });
        let plan = FaultPlan::none().with_outage(
            smishing_fault::ServiceKind::Whois,
            TickWindow {
                from: 0,
                until: u64::MAX,
            },
        );
        world.set_fault_plan(&plan);
        let refs: Vec<&Post> = world.posts.iter().collect();
        let curated = curate_posts(&refs, &CurationOptions::default());
        let unique = dedup(&curated, DedupMode::Normalized);
        let obs = Obs::enabled();
        let recs = enrich_all(unique, &world, &obs);
        // Whois info is gone everywhere, nothing else affected.
        for r in &recs {
            if let Some(u) = &r.url {
                assert!(u.registrar.is_none());
            }
        }
        let report = obs.report().unwrap();
        let breaker = report
            .counters
            .iter()
            .find(|(id, _)| id.name == "enrich.breaker_open")
            .map(|(_, v)| *v)
            .unwrap_or(0);
        assert!(breaker > 0, "breaker must absorb the outage after arming");
        // The breaker only ever skipped calls that were doomed anyway:
        // whois calls = attempts that actually reached the service.
        let whois_errors: u64 = report
            .counters
            .iter()
            .filter(|(id, _)| id.name == "enrich.whois.errors")
            .map(|(_, v)| *v)
            .sum();
        assert!(whois_errors > 0);
    }
}
