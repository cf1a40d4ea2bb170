//! # smishing-types
//!
//! Shared data model for the smishing measurement pipeline.
//!
//! This crate defines the vocabulary every other crate speaks:
//!
//! - geography and language: [`Country`], [`Language`]
//! - the scam taxonomy from the paper (§5.2, §5.5): [`ScamType`], [`Lure`]
//! - sender identities (§3.3.1): [`SenderId`], [`PhoneNumber`]
//! - civil time with the multi-format parsing the paper delegates to
//!   Python's `dateparser` (§3.2): [`time`]
//! - forums and text reports (§3.1): [`Forum`], [`TextReport`]
//! - the stable hash behind hash-based draws and shard routing: [`fnv1a`]
//!
//! It deliberately contains **no behaviour beyond the model itself** (parsing,
//! formatting, simple classification); enrichment and simulation live in the
//! domain crates.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adversary;
pub mod brand;
pub mod country;
pub mod error;
pub mod fnv;
pub mod forum;
pub mod ids;
pub mod language;
pub mod message;
pub mod phone;
pub mod scam;
pub mod sender;
pub mod time;

pub use adversary::{AdversaryPlan, Archetype};
pub use brand::Sector;
pub use country::Country;
pub use error::{CallCtx, ServiceError, TypeError};
pub use fnv::{fnv1a, FNV_PRIME};
pub use forum::{Forum, NoiseKind, TextReport};
pub use ids::{CampaignId, MessageId, PostId};
pub use language::{Language, Script};
pub use message::{MessageTruth, SmsMessage};
pub use phone::PhoneNumber;
pub use scam::{Lure, LureSet, ScamType};
pub use sender::{SenderId, SenderKind};
pub use time::{
    parse_timestamp, CivilDateTime, Date, ParsedStamp, TimeOfDay, TimestampStyle, UnixTime, Weekday,
};
