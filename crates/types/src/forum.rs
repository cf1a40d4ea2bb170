//! The five public forums the paper mines (§3.1) and text-form reports.
//!
//! The full post model (with screenshot attachments) lives in
//! `smishing-worldsim`; this module holds the parts every crate needs: the
//! forum identity, its collection timeline, and the structured *text*
//! reports used by Smishing.eu, Pastebin and Smishtank.

use crate::time::{Date, UnixTime};
use serde::{Deserialize, Serialize};
use std::fmt;

/// One of the five online forums smishing reports are collected from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Forum {
    /// Twitter/X — keyword-matched tweets with screenshot attachments.
    Twitter,
    /// Reddit — submissions across ~911 subreddits.
    Reddit,
    /// Smishtank.com — crowdsourcing site (screenshot or text + metadata).
    Smishtank,
    /// Smishing.eu — European report form (text + metadata, no images kept).
    SmishingEu,
    /// Pastebin — one analyst's pastes mirroring abuseipdb reports.
    Pastebin,
}

impl Forum {
    /// All forums, in Table 1 row order.
    pub const ALL: &'static [Forum] = &[
        Forum::Twitter,
        Forum::Reddit,
        Forum::Smishtank,
        Forum::SmishingEu,
        Forum::Pastebin,
    ];

    /// This forum's bit in a forum bitmask (bit `i` is `Forum::ALL[i]`).
    pub fn bit(self) -> u8 {
        1 << Forum::ALL
            .iter()
            .position(|&x| x == self)
            .expect("known forum")
    }

    /// Display name as in Table 1.
    pub fn name(self) -> &'static str {
        match self {
            Forum::Twitter => "Twitter",
            Forum::Reddit => "Reddit",
            Forum::Smishtank => "Smishtank",
            Forum::SmishingEu => "Smishing.eu",
            Forum::Pastebin => "Pastebin",
        }
    }

    /// Collection window per §3.1 / Table 1 ("timeline" column), as
    /// inclusive calendar years.
    pub fn timeline(self) -> (i32, i32) {
        match self {
            Forum::Twitter => (2017, 2023),
            Forum::Reddit => (2017, 2023),
            Forum::Smishtank => (2022, 2024),
            Forum::SmishingEu => (2021, 2023),
            Forum::Pastebin => (2021, 2022),
        }
    }

    /// Whether user reports on this forum are screenshots (image
    /// attachments) or structured text. Twitter/Reddit/Smishtank carry
    /// images; Smishing.eu and Pastebin are text-only in the collected data.
    pub fn carries_images(self) -> bool {
        matches!(self, Forum::Twitter | Forum::Reddit | Forum::Smishtank)
    }

    /// Collection window as instants: midnight Jan 1 of the first year to
    /// the end of Dec 31 of the last year.
    pub fn window(self) -> (UnixTime, UnixTime) {
        let (y0, y1) = self.timeline();
        let start = Date {
            year: y0,
            month: 1,
            day: 1,
        }
        .days_from_epoch()
            * 86_400;
        let end = (Date {
            year: y1 + 1,
            month: 1,
            day: 1,
        }
        .days_from_epoch())
            * 86_400
            - 1;
        (UnixTime(start), UnixTime(end))
    }
}

impl fmt::Display for Forum {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A structured text report (Smishing.eu form, Pastebin paste, or a
/// Smishtank text submission): the fields the user typed in.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TextReport {
    /// Sender ID string as the user entered it (possibly redacted/empty).
    pub sender: Option<String>,
    /// The smishing text body.
    pub body: String,
    /// The URL, if the user included it separately or it survives in `body`.
    pub url: Option<String>,
    /// Impersonated brand according to the reporter (Smishing.eu field).
    pub claimed_brand: Option<String>,
    /// Reporter's country (Smishing.eu field).
    pub claimed_country: Option<String>,
    /// Receive date the user supplied (date-only; §3.3.2 notes these lack
    /// time of day and are excluded from the Fig. 2 analysis).
    pub received_date: Option<Date>,
}

/// Why a keyword-matched post is *not* a smishing report (§3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum NoiseKind {
    /// Awareness poster / PSA graphic.
    AwarenessPoster,
    /// Discussion or advice-seeking without the original smish.
    Discussion,
    /// A screenshot of something that is not an SMS (email, news article...).
    UnrelatedScreenshot,
    /// News article link about smishing.
    NewsLink,
}

impl NoiseKind {
    /// All noise kinds.
    pub const ALL: &'static [NoiseKind] = &[
        NoiseKind::AwarenessPoster,
        NoiseKind::Discussion,
        NoiseKind::UnrelatedScreenshot,
        NoiseKind::NewsLink,
    ];
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn five_forums() {
        assert_eq!(Forum::ALL.len(), 5);
    }

    #[test]
    fn timeline_matches_table1() {
        assert_eq!(Forum::Twitter.timeline(), (2017, 2023));
        assert_eq!(Forum::Smishtank.timeline(), (2022, 2024));
        assert_eq!(Forum::Pastebin.timeline(), (2021, 2022));
    }

    #[test]
    fn image_forums_match_table1_dashes() {
        // Table 1 shows "-" for image attachments on Smishing.eu and Pastebin.
        assert!(Forum::Twitter.carries_images());
        assert!(!Forum::SmishingEu.carries_images());
        assert!(!Forum::Pastebin.carries_images());
    }

    #[test]
    fn window_ordering() {
        for f in Forum::ALL {
            let (a, b) = f.window();
            assert!(a < b, "{f}");
        }
    }

    #[test]
    fn window_year_boundaries() {
        let (a, b) = Forum::Pastebin.window();
        assert_eq!(a.year(), 2021);
        assert_eq!(b.year(), 2022);
        assert_eq!(b.plus_secs(1).year(), 2023);
    }
}
