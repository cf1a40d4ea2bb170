//! # smishing-intel
//!
//! The serving half of the measurement system: an indexed, queryable view
//! of everything the pipeline learned.
//!
//! The paper's end product is threat intelligence — 25.9k URLs, 28.6k
//! sender IDs, brand and lure annotations, blocklist verdicts — and the
//! question a carrier, messaging app, or abuse desk actually asks is
//! *"is this URL / sender / incoming SMS part of a known smishing
//! campaign?"*. The batch and streaming frontends answer it offline by
//! rendering tables; this crate answers it online:
//!
//! * [`IntelSnapshot`] — an immutable, interned, symbol-indexed store
//!   built from the pipeline's assembled output. Indexes over normalized URL,
//!   apex domain, sender ID, phone number, brand, and campaign-link
//!   cluster; each entry carries its evidence (forums, scam type, lures,
//!   HLR status, AV/GSB verdicts, first/last seen, report counts).
//! * [`IntelHub`] / [`IntelReader`] — an epoch-based atomic snapshot
//!   handle. The streaming engine's aligned-marker snapshots republish a
//!   fresh index mid-run while concurrent readers keep a consistent view
//!   with **zero locks on the read path** (one atomic epoch load against
//!   a thread-cached `Arc`; the publish-side lock is touched only when
//!   the epoch actually moved).
//! * [`Triage`] — takes a *raw* incoming SMS (text + sender), reuses the
//!   pipeline's own extraction/normalization stack (`textnlp` features,
//!   `webinfra` defanged-URL parsing and homoglyph host folding) plus the
//!   `detect` model the snapshot trains once, and returns a scored verdict:
//!   known-infrastructure hit with campaign attribution, a similarity
//!   (near-duplicate) match against the snapshot's `smishing-simindex`
//!   SimHash tier when every exact pivot missed, or a model-only score.
//!   Negative lookups — similarity misses included — go through a
//!   bounded LRU cache that is invalidated on republish. Every request
//!   is a [`Query`] (`Url`, `Sender`, `Near`, `Msg`; parsed by
//!   [`Query::parse`]) answered by the one entry point
//!   [`Triage::answer`], which returns an [`Answer`]: the verdict, the
//!   near rung's candidate count, and whether the call absorbed a
//!   republish.
//! * [`serve_session`] — the stdin/stdout line protocol behind
//!   `smish serve`, instrumented through `smishing-obs` histograms and
//!   carrying the introspection plane: tail-sampled request traces
//!   (`explain`, `traces`), a per-second time series (`timeseries`), and
//!   store health (`health`). Input lines are capped at 64 KiB; a line
//!   over the cap or not UTF-8 gets an `err` reply.
//!   [`reply_line`] and [`explain`] are shared with `smish query`.
//! * [`serve_workers`] — the same protocol over N triage workers with
//!   bounded-queue admission control (overload sheds are counted, never
//!   silent) and in-order reply reassembly, so multi-worker stdout stays
//!   byte-identical to the single-threaded path.
//! * [`evaluate_triage`] — the ground-truth evaluation: worldsim knows
//!   every message's true campaign, so triage precision/recall (and the
//!   campaign-held-out `detect` baseline it must beat) are computed
//!   deterministically per seed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod eval;
pub mod hub;
pub mod intern;
pub mod serve;
pub mod snapshot;
pub mod triage;
pub mod workers;

pub use cache::LruSet;
pub use eval::{evaluate_triage, rung_of, Rung, RungCounts, TriageEval};
pub use hub::{IntelHub, IntelReader};
pub use intern::{Interner, Renumber, Sym, SymIndex};
pub use serve::{
    explain, explain_query, process_rss_bytes, reply_line, serve_session, verdict_label,
    verdict_line, AdversaryGauge, Reject, ServeOptions, ServeSession, ServeStats,
};
pub use snapshot::{
    record_keys, BuildOptions, IndexSizes, IntelEntry, IntelSnapshot, RecordKeys, SnapshotDelta,
};
pub use triage::{
    Answer, Attribution, MatchedKey, NearAttribution, Query, Triage, TriageConfig, TriageVerdict,
    SMISHING_THRESHOLD,
};
pub use workers::{serve_workers, WorkerPlan};
