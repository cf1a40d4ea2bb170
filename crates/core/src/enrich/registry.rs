//! The [`Enricher`] trait and the registry that drives every stage.
//!
//! One record flows through the registry as a [`Draft`]: each stage reads
//! what earlier stages produced, makes its service calls through the
//! shared [`ResilientClient`] (retries, breakers, and meters applied once,
//! generically), fills in its slice of the record, and pushes a
//! [`MissingField`] marker when its service ultimately failed. The
//! standard registry reproduces the paper's enrichment order exactly
//! (§3.3): sender → HLR → URL parse → WHOIS → CT → passive-DNS → IP info
//! → AV verdicts → text annotation.

use super::client::ResilientClient;
use super::record::{EnrichedRecord, EnrichmentStatus, Evidence, MissingField, UrlIntel};
use crate::curation::CuratedMessage;
use smishing_fault::ServiceKind;
use smishing_telecom::HlrRecord;
use smishing_textnlp::annotator::Annotation;
use smishing_types::{CallCtx, SenderId, ServiceError};
use smishing_worldsim::World;

/// A record mid-enrichment: stages fill the fields in, in registry order.
#[derive(Debug)]
pub struct Draft {
    /// The curated message under enrichment.
    pub curated: CuratedMessage,
    /// Parsed sender (filled by the sender stage).
    pub sender: Option<SenderId>,
    /// HLR record (filled by the HLR stage for parseable senders).
    pub hlr: Option<HlrRecord>,
    /// URL intelligence (created by the URL-parse stage, filled in by the
    /// infrastructure and AV stages).
    pub url: Option<UrlIntel>,
    /// Text annotation (filled by the annotation stage).
    pub annotation: Option<Annotation>,
    /// Fields lost to service failures, in enrichment order.
    pub missing: Vec<MissingField>,
}

impl Draft {
    fn new(curated: CuratedMessage) -> Draft {
        Draft {
            curated,
            sender: None,
            hlr: None,
            url: None,
            annotation: None,
            missing: Vec::new(),
        }
    }

    fn finish(self, client: &ResilientClient) -> EnrichedRecord {
        let status = if self.missing.is_empty() {
            EnrichmentStatus::Full
        } else {
            client.mark_degraded();
            EnrichmentStatus::Partial {
                missing: self.missing,
            }
        };
        EnrichedRecord {
            evidence: Evidence::of(&self.curated),
            curated: self.curated,
            sender: self.sender,
            hlr: self.hlr,
            url: self.url,
            annotation: self
                .annotation
                .expect("registry must include an annotation stage"),
            status,
        }
    }
}

/// What a stage sees: the world's service interfaces, the shared resilient
/// client, and the record's virtual tick.
pub struct EnrichCtx<'a> {
    /// The input universe (stages touch only `world.services` and
    /// `world.now`).
    pub world: &'a World,
    /// The shared retry/breaker/meter front for every service call.
    pub client: &'a ResilientClient,
    /// Virtual clock of this record (its post id) — makes every fault
    /// outcome a pure function of (service, key, attempt, tick).
    pub tick: u64,
}

impl EnrichCtx<'_> {
    /// Run one service call through the client's breaker + retry loop.
    pub fn call<T>(
        &self,
        svc: ServiceKind,
        f: impl FnMut(CallCtx) -> Result<T, ServiceError>,
    ) -> Result<T, ServiceError> {
        self.client.call(svc, self.tick, f)
    }
}

/// One enrichment stage. Stages are stateless and shared across records;
/// per-record state lives in the [`Draft`].
pub trait Enricher: Send + Sync {
    /// Stable stage name (diagnostics and registry listings).
    fn name(&self) -> &'static str;
    /// Fill this stage's slice of the draft, pushing [`MissingField`]
    /// markers for service calls that failed after all retries.
    fn apply(&self, draft: &mut Draft, cx: &EnrichCtx<'_>);
}

/// The ordered set of enrichment stages.
pub struct EnricherRegistry {
    stages: Vec<Box<dyn Enricher>>,
}

impl EnricherRegistry {
    /// The paper's enrichment order (§3.3): sender classification, HLR,
    /// URL parsing, WHOIS, CT logs, passive DNS, IP metadata, AV verdicts,
    /// text annotation.
    pub fn standard() -> EnricherRegistry {
        EnricherRegistry::from_stages(vec![
            Box::new(super::sender::SenderEnricher),
            Box::new(super::hlr::HlrEnricher),
            Box::new(super::url::UrlParseEnricher),
            Box::new(super::whois::WhoisEnricher),
            Box::new(super::ct::CtEnricher),
            Box::new(super::pdns::PdnsEnricher),
            Box::new(super::ipinfo::IpInfoEnricher),
            Box::new(super::av::AvEnricher),
            Box::new(super::annotate::AnnotateEnricher),
        ])
    }

    /// A registry over an explicit stage list (ablations and tests).
    pub fn from_stages(stages: Vec<Box<dyn Enricher>>) -> EnricherRegistry {
        EnricherRegistry { stages }
    }

    /// Stage names, in application order.
    pub fn stage_names(&self) -> Vec<&'static str> {
        self.stages.iter().map(|s| s.name()).collect()
    }

    /// Enrich one curated message by running every stage in order,
    /// degrading gracefully on service failures (the record is kept with
    /// [`EnrichmentStatus::Partial`]).
    pub fn enrich(
        &self,
        client: &ResilientClient,
        curated: CuratedMessage,
        world: &World,
    ) -> EnrichedRecord {
        let tick = curated.post_id.0;
        let mut draft = Draft::new(curated);
        let cx = EnrichCtx {
            world,
            client,
            tick,
        };
        for stage in &self.stages {
            stage.apply(&mut draft, &cx);
        }
        draft.finish(client)
    }
}
