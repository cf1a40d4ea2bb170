//! # smishing-stats
//!
//! The statistics toolkit the paper's analyses rely on:
//!
//! - [`kappa`]: Cohen's κ for inter-rater reliability (§3.4),
//! - [`ks`]: two-sample Kolmogorov–Smirnov test for the per-weekday
//!   send-time distributions (§5.1 / Fig. 2),
//! - [`mod@quantile`]: medians and percentiles for the Fig. 2 boxplots,
//! - [`counter`]: frequency counting with deterministic top-k used by every
//!   "Top 10 ..." table,
//! - [`descriptive`]: means/variance for the TLS certificate counts (§4.5),
//! - [`sample`]: seeded reservoir sampling (the 150-message IRR subset and
//!   the 200-report case-study sample),
//! - [`unionfind`]: disjoint-set union for campaign linking.
//!
//! Everything is deterministic: functions either take no randomness or take
//! an explicit `&mut impl Rng`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod counter;
pub mod descriptive;
pub mod kappa;
pub mod ks;
pub mod quantile;
pub mod sample;
pub mod unionfind;

pub use counter::Counter;
pub use descriptive::{mean, stddev, variance};
pub use kappa::{cohen_kappa, kappa_from_labels, AgreementLevel};
pub use ks::{ks_two_sample, KsResult};
pub use quantile::{median, quantile};
pub use sample::reservoir_sample;
pub use unionfind::UnionFind;
