//! # smishing-simindex
//!
//! Near-duplicate message index for the intelligence serving layer — the
//! similarity tier that catches campaigns after they rotate every exact
//! indicator (URL, domain, sender, phone), the evasion the paper's RQ2
//! lure analysis groups into campaign templates.
//!
//! Three pieces:
//!
//! - [`sig`]: 64-bit SimHash signatures over hashed character n-grams
//!   (shingling lives in `smishing_textnlp::ngram` so the index and any
//!   other consumer tokenize identically),
//! - [`index`]: [`SimIndex`] — a flat, cache-friendly layout (one
//!   contiguous `u64` signature array, one contiguous shingle pool) with
//!   banded candidate generation: each signature is split into `k` bands,
//!   a query makes one pass over the signature array keeping the docs
//!   that agree with it on a whole band, ranks them by Hamming distance,
//!   then re-ranks survivors by exact n-gram Jaccard,
//! - [`cluster`]: an offline connected-components pass over the signature
//!   graph that assigns every indexed text a dense `template_id` — the
//!   campaign-template clusters of the paper's lure analysis. It tests
//!   every pair, so it is quadratic, at a few instructions per pair.
//!
//! The index is immutable after [`SimIndex::build`]: it is constructed
//! once per epoch alongside the intel snapshot and published through the
//! same epoch-swapped `Arc`, so the read path takes zero locks.
//!
//! By pigeonhole, banded candidate generation is *complete* up to
//! Hamming distance `bands - 1` ([`SimIndex::guarantee_radius`]): a pair
//! closer than that differs in fewer bits than there are bands, so at
//! least one band is untouched. Beyond the guarantee radius recall is
//! best-effort but deterministic.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cluster;
pub mod index;
pub mod sig;

pub use index::{DocInput, NearResult, SimConfig, SimIndex, SimMatch};
pub use sig::{hamming, set_hash, simhash, SimQuery};
