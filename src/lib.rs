//! # smishing
//!
//! A Rust reproduction of *Fishing for Smishing: Understanding SMS Phishing
//! Infrastructure and Strategies by Mining Public User Reports* (IMC 2025).
//!
//! This umbrella crate re-exports the whole workspace:
//!
//! | crate | role |
//! |---|---|
//! | [`types`] | shared data model (countries, languages, scam taxonomy, civil time) |
//! | [`obs`] | metrics registry, spans, leveled logging, exportable run reports |
//! | [`fault`] | deterministic fault plans + the `Faulty` service wrapper |
//! | [`stats`] | Cohen's κ, KS tests, quantiles, counters |
//! | [`telecom`] | numbering plans, sender classification, HLR lookup |
//! | [`webinfra`] | URLs, TLDs, shorteners, WHOIS/CT/passive-DNS/ASN |
//! | [`avscan`] | VirusTotal + Google Safe Browsing simulators |
//! | [`textnlp`] | language ID, translation, brand NER, scam/lure annotation |
//! | [`screenshot`] | SMS screenshot model + the §3.2 extractors |
//! | [`worldsim`] | the calibrated generative model of the smishing ecosystem |
//! | [`malcase`] | §6 malware case-study substrate |
//! | [`core`] | the collection → curation → enrichment → analysis pipeline; its sharded engine (`core::exec`) runs batch and streaming ingest, mid-stream snapshots and checkpoint/resume |
//! | [`detect`] | §7.2 detection models (Naive Bayes over the labeled dataset) |
//! | [`simindex`] | SimHash/n-gram similarity index + campaign-template clustering |
//! | [`intel`] | indexed intelligence store + query/triage serving layer |
//! | [`adversary`] | seeded campaign-evolution engine + per-epoch drift scorecard |
//!
//! ## Quickstart
//!
//! ```
//! use smishing::prelude::*;
//!
//! // Generate a small deterministic world and run the full pipeline.
//! let world = World::generate(WorldConfig { scale: 0.02, ..WorldConfig::default() });
//! let output = Pipeline::default().run(&world, &Obs::noop());
//! assert!(!output.records.is_empty());
//!
//! // Regenerate a paper table: each one is a function of the output.
//! let categories = smishing::core::analysis::categories::categories(&output);
//! println!("{}", categories.to_table());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use smishing_adversary as adversary;
pub use smishing_avscan as avscan;
pub use smishing_core as core;
pub use smishing_detect as detect;
pub use smishing_fault as fault;
pub use smishing_intel as intel;
pub use smishing_malcase as malcase;
pub use smishing_obs as obs;
pub use smishing_screenshot as screenshot;
pub use smishing_simindex as simindex;
pub use smishing_stats as stats;
pub use smishing_telecom as telecom;
pub use smishing_textnlp as textnlp;
pub use smishing_types as types;
pub use smishing_webinfra as webinfra;
pub use smishing_worldsim as worldsim;

/// The most common imports in one place.
pub mod prelude {
    pub use smishing_adversary::{AdversaryWorld, DriftOptions};
    pub use smishing_core::exec::{ExecPlan, SnapshotPlan};
    pub use smishing_core::experiment::{run_all, ExperimentResult};
    pub use smishing_core::pipeline::{Pipeline, PipelineOutput};
    pub use smishing_core::runcfg::RunConfig;
    pub use smishing_core::{CurationOptions, DedupMode, ExtractorChoice, TextTable};
    pub use smishing_intel::{IntelHub, IntelReader, IntelSnapshot, Triage, TriageVerdict};
    pub use smishing_obs::{Level, Obs};
    pub use smishing_types::{
        Country, Forum, Language, Lure, LureSet, ScamType, SenderId, SenderKind, UnixTime,
    };
    pub use smishing_worldsim::{World, WorldConfig};
}
