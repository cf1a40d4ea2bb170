//! The enrichment data model: what a fully (or partially) enriched record
//! carries, and how degradation is reported.

use crate::curation::CuratedMessage;
use smishing_avscan::{TransparencyVerdict, VtResult};
use smishing_telecom::HlrRecord;
use smishing_textnlp::annotator::Annotation;
use smishing_types::{Forum, SenderId, UnixTime};
use smishing_webinfra::{CertRecord, IpInfo, ParsedUrl, Resolution};

/// Everything the trend/AV analyses need about one URL.
#[derive(Debug, Clone)]
pub struct UrlIntel {
    /// The parsed URL as collected (short link when shortened).
    pub parsed: ParsedUrl,
    /// Shortening service, if the host is one (§4.2).
    pub shortener: Option<&'static str>,
    /// Whether this is a WhatsApp click-to-chat link.
    pub whatsapp: bool,
    /// Registrable domain / free-hosting site of a *direct* URL
    /// (None for shortened links — the destination is hidden, §3.3.5).
    pub domain: Option<String>,
    /// Whether the site sits on a free website builder (§4.3).
    pub free_hosted: bool,
    /// WHOIS registrar of `domain`.
    pub registrar: Option<&'static str>,
    /// CT-log certificates issued for `domain`.
    pub certs: Vec<CertRecord>,
    /// Passive-DNS resolutions with AS attribution.
    pub resolutions: Vec<(Resolution, Option<IpInfo>)>,
    /// VirusTotal verdict for the collected URL.
    pub vt: VtResult,
    /// GSB public-API verdict.
    pub gsb_api_unsafe: bool,
    /// GSB transparency-report verdict.
    pub gsb_transparency: TransparencyVerdict,
    /// GSB's listing on VirusTotal.
    pub gsb_vt_listed: bool,
}

impl UrlIntel {
    /// A freshly parsed URL with every service-backed field still at its
    /// zero value. The [`Enricher`](crate::enrich::Enricher) stages fill
    /// the rest in.
    pub fn parsed(
        parsed: ParsedUrl,
        shortener: Option<&'static str>,
        whatsapp: bool,
        domain: Option<String>,
        free_hosted: bool,
    ) -> UrlIntel {
        UrlIntel {
            parsed,
            shortener,
            whatsapp,
            domain,
            free_hosted,
            registrar: None,
            certs: Vec::new(),
            resolutions: Vec::new(),
            vt: VtResult::default(),
            gsb_api_unsafe: false,
            gsb_transparency: TransparencyVerdict::NotQueried,
            gsb_vt_listed: false,
        }
    }
}

/// A field that could not be enriched because its service call failed
/// after all retries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MissingField {
    /// HLR lookup failed — `hlr` is `None`.
    Hlr,
    /// WHOIS failed — `registrar` is `None`.
    Registrar,
    /// CT-log query failed — `certs` is empty.
    Certs,
    /// Passive-DNS query failed — `resolutions` is empty.
    Resolutions,
    /// At least one IP-metadata lookup failed — some `resolutions` carry
    /// `None` info.
    IpInfo,
    /// VirusTotal scan failed — `vt` is the zero verdict.
    VirusTotal,
    /// GSB Lookup API failed — `gsb_api_unsafe` defaulted to `false`.
    GsbApi,
    /// GSB Transparency Report failed — `gsb_transparency` is `NotQueried`.
    GsbTransparency,
    /// GSB-on-VirusTotal check failed — `gsb_vt_listed` defaulted to `false`.
    GsbVtListing,
}

impl MissingField {
    /// Stable lowercase label for display and metrics.
    pub fn label(self) -> &'static str {
        match self {
            MissingField::Hlr => "hlr",
            MissingField::Registrar => "registrar",
            MissingField::Certs => "certs",
            MissingField::Resolutions => "resolutions",
            MissingField::IpInfo => "ipinfo",
            MissingField::VirusTotal => "virustotal",
            MissingField::GsbApi => "gsb_api",
            MissingField::GsbTransparency => "gsb_transparency",
            MissingField::GsbVtListing => "gsb_vt_listing",
        }
    }
}

/// How completely a record was enriched.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EnrichmentStatus {
    /// Every service call succeeded.
    Full,
    /// Some service calls failed after retries; the record is kept with
    /// default values in the listed fields.
    Partial {
        /// Which fields are missing, in enrichment order.
        missing: Vec<MissingField>,
    },
}

/// The report evidence of one dedup group: every curated duplicate its
/// winner stands for (Table 1's "Total" side of a "Unique" message).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Evidence {
    /// Curated reports in the group, duplicates included.
    pub reports: u32,
    /// Bitmask of the forums that reported the group ([`Forum::bit`]).
    pub forums: u8,
    /// Earliest `posted_at` in the group.
    pub first_seen: UnixTime,
    /// Latest `posted_at` in the group.
    pub last_seen: UnixTime,
}

impl Evidence {
    /// The evidence of a group of one.
    pub fn of(c: &CuratedMessage) -> Evidence {
        Evidence {
            reports: 1,
            forums: c.forum.bit(),
            first_seen: c.posted_at,
            last_seen: c.posted_at,
        }
    }

    /// Count one more report of the group.
    pub fn absorb(&mut self, c: &CuratedMessage) {
        self.reports += 1;
        self.forums |= c.forum.bit();
        self.first_seen = self.first_seen.min(c.posted_at);
        self.last_seen = self.last_seen.max(c.posted_at);
    }

    /// Whether `forum` reported the group.
    pub fn reported_on(&self, forum: Forum) -> bool {
        self.forums & forum.bit() != 0
    }
}

/// A fully enriched record.
#[derive(Debug, Clone)]
pub struct EnrichedRecord {
    /// The curated message (its dedup group's winner: the minimum post
    /// id).
    pub curated: CuratedMessage,
    /// The report evidence of the record's dedup group. The engine keeps it
    /// current; a record enriched outside the engine stands for a group of
    /// one.
    pub evidence: Evidence,
    /// Parsed sender, when present and parseable as *something*.
    pub sender: Option<SenderId>,
    /// HLR record for phone senders.
    pub hlr: Option<HlrRecord>,
    /// URL intelligence, when the message carried a URL.
    pub url: Option<UrlIntel>,
    /// Text annotation (scam type, brand, lures, language).
    pub annotation: Annotation,
    /// Whether every service call behind this record succeeded.
    pub status: EnrichmentStatus,
}

impl EnrichedRecord {
    /// Whether enrichment was degraded by service failures.
    pub fn is_degraded(&self) -> bool {
        matches!(self.status, EnrichmentStatus::Partial { .. })
    }

    /// The missing fields (empty for fully enriched records).
    pub fn missing(&self) -> &[MissingField] {
        match &self.status {
            EnrichmentStatus::Full => &[],
            EnrichmentStatus::Partial { missing } => missing,
        }
    }

    /// Whether a specific field is missing due to a service failure.
    pub fn is_missing(&self, field: MissingField) -> bool {
        self.missing().contains(&field)
    }
}
