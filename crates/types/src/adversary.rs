//! Adversarial campaign-evolution plans (ROADMAP item 2).
//!
//! The paper's triage pivots (exact-URL → apex → sender → phone) assume
//! campaign infrastructure is sticky; real operators rotate it. An
//! [`AdversaryPlan`] describes, as plain data, how a generated world should
//! *fight back*: which share of campaigns drift, on what epoch cadence, with
//! which rotation strategies, and how many multi-turn funnel campaigns
//! (conversational lures, job-scam recruitment — Anansi-style) to graft onto
//! the base world.
//!
//! The plan lives down here in `smishing-types` so both `WorldConfig`
//! (worldsim) and `RunConfig` (core) can carry it without a dependency
//! cycle. The engine that *executes* a plan is the `smishing-adversary`
//! crate; the world-side archetype grafting lives in `worldsim::adversary`.
//!
//! Determinism contract: an **empty plan leaves every output byte-identical
//! to a plan-free run** — all adversary randomness is drawn from an RNG
//! stream isolated from the base world's (seeded `world_seed ^ plan.seed ^
//! constant`), exactly like the `template_variants` knob.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::str::FromStr;

/// Campaign archetype — how a campaign engages its victims.
///
/// The base world generates only [`Archetype::Baseline`] campaigns (one
/// lure message, repeated in variants). Adversary plans with a positive
/// `funnel_rate` graft the multi-turn archetypes on top.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Archetype {
    /// Single-turn lure: one templated message per variant.
    Baseline,
    /// Multi-turn conversational funnel ("wrong number" / "hey mum" style):
    /// rapport turns first, the payload (wa.me hand-off or URL) only in the
    /// final turn.
    ConversationalFunnel,
    /// Job-scam recruitment funnel (Anansi-style): unsolicited offer →
    /// pay/task details → onboarding link on fresh infrastructure.
    JobScamFunnel,
}

impl Archetype {
    /// Human label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            Archetype::Baseline => "baseline",
            Archetype::ConversationalFunnel => "conversational-funnel",
            Archetype::JobScamFunnel => "job-scam-funnel",
        }
    }

    /// Whether the archetype spreads its lure over multiple turns.
    pub fn is_funnel(self) -> bool {
        !matches!(self, Archetype::Baseline)
    }
}

impl fmt::Display for Archetype {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// A seeded, composable description of how campaigns evolve against the
/// triage ladder.
///
/// All strategy toggles compose: a plan with `rotate_url` and
/// `rotate_sender` rotates both pivots in the same wave. Rates are clamped
/// to `[0, 1]` by consumers.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AdversaryPlan {
    /// Extra seed XORed into the world seed for the isolated adversary RNG
    /// stream. Changing it re-rolls adversary choices without touching the
    /// base world.
    pub seed: u64,
    /// Fraction of eligible (URL-bearing, non-conversational) campaigns
    /// that rotate infrastructure mid-stream. `0.0` disables rotation.
    pub drifting_share: f64,
    /// Rotate every `cadence_epochs` epoch boundaries (min 1).
    pub cadence_epochs: u64,
    /// Rotation strategy: move to a freshly registered domain.
    pub rotate_url: bool,
    /// Rotation strategy: swap the sending identity at the same time.
    pub rotate_sender: bool,
    /// Rotation strategy: respell the existing apex with homoglyphs or the
    /// punycode (`xn--`) IDN form — tests the defender's host folding.
    pub respell: bool,
    /// Rotation strategy: hide the landing page behind a fresh
    /// shortener chain (short link → short link → landing).
    pub shorten: bool,
    /// Funnel archetype campaigns to graft onto the world, as a fraction of
    /// the base campaign count. `0.0` adds none.
    pub funnel_rate: f64,
    /// Profile label this plan was parsed from (empty for hand-built plans).
    /// Surfaced in `serve` `health` and `smish drift` output.
    pub profile: String,
}

impl Default for AdversaryPlan {
    fn default() -> Self {
        AdversaryPlan::none()
    }
}

impl AdversaryPlan {
    /// The empty plan: no drift, no funnels, world byte-identical to base.
    pub fn none() -> Self {
        AdversaryPlan {
            seed: 0,
            drifting_share: 0.0,
            cadence_epochs: 1,
            rotate_url: false,
            rotate_sender: false,
            respell: false,
            shorten: false,
            funnel_rate: 0.0,
            profile: String::new(),
        }
    }

    /// Whether the plan changes anything at all. Empty plans must leave
    /// every pipeline output byte-identical to a plan-free run.
    pub fn is_empty(&self) -> bool {
        !self.rotates() && self.funnel_rate <= 0.0
    }

    /// Whether the plan rotates campaigns: a drifting share and at least
    /// one strategy, so it schedules waves at epoch boundaries.
    pub fn rotates(&self) -> bool {
        self.drifting_share > 0.0 && self.any_strategy()
    }

    /// Whether any rotation strategy is enabled.
    pub fn any_strategy(&self) -> bool {
        self.rotate_url || self.rotate_sender || self.respell || self.shorten
    }

    /// Named profile lookup; the vocabulary behind `--adversary PROFILE`.
    pub fn profile(name: &str) -> Option<Self> {
        let base = AdversaryPlan::none();
        let plan = match name {
            "none" => base,
            // URL + sender rotation on every epoch: the classic
            // infrastructure-churn adversary.
            "rotation" => AdversaryPlan {
                drifting_share: 0.5,
                cadence_epochs: 1,
                rotate_url: true,
                rotate_sender: true,
                ..base
            },
            // Homoglyph/punycode apex respellings only — probes the host
            // folding normalization rather than the index.
            "respell" => AdversaryPlan {
                drifting_share: 0.5,
                cadence_epochs: 1,
                respell: true,
                ..base
            },
            // Fresh shortener chains in front of fresh landing domains.
            "shorteners" => AdversaryPlan {
                drifting_share: 0.5,
                cadence_epochs: 1,
                shorten: true,
                ..base
            },
            // Multi-turn funnels grafted on, no rotation.
            "funnels" => AdversaryPlan {
                funnel_rate: 0.2,
                ..base
            },
            // Everything at once.
            "full" => AdversaryPlan {
                drifting_share: 0.6,
                cadence_epochs: 1,
                rotate_url: true,
                rotate_sender: true,
                respell: true,
                shorten: true,
                funnel_rate: 0.2,
                ..base
            },
            _ => return None,
        };
        Some(AdversaryPlan {
            profile: name.to_string(),
            ..plan
        })
    }

    /// All profile names accepted by [`AdversaryPlan::profile`].
    pub const PROFILES: &'static [&'static str] = &[
        "none",
        "rotation",
        "respell",
        "shorteners",
        "funnels",
        "full",
    ];
}

impl FromStr for AdversaryPlan {
    type Err = String;

    /// Parse `PROFILE` or `PROFILE:SEED` (decimal or `0x`-hex seed).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (name, seed) = match s.split_once(':') {
            Some((name, seed)) => {
                let seed = match seed.strip_prefix("0x").or_else(|| seed.strip_prefix("0X")) {
                    Some(hex) => u64::from_str_radix(hex, 16),
                    None => seed.parse::<u64>(),
                }
                .map_err(|_| format!("bad adversary seed {seed:?}"))?;
                (name, seed)
            }
            None => (s, 0),
        };
        let mut plan = AdversaryPlan::profile(name).ok_or_else(|| {
            format!(
                "unknown adversary profile {name:?} (expected one of {})",
                AdversaryPlan::PROFILES.join("|")
            )
        })?;
        plan.seed = seed;
        Ok(plan)
    }
}

impl fmt::Display for AdversaryPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.profile.is_empty() {
            if self.is_empty() {
                f.write_str("none")
            } else {
                f.write_str("custom")
            }
        } else if self.seed != 0 {
            write!(f, "{}:{:#x}", self.profile, self.seed)
        } else {
            f.write_str(&self.profile)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_is_default_and_empty() {
        let p = AdversaryPlan::default();
        assert!(p.is_empty());
        assert!(!p.any_strategy());
        assert_eq!(p, AdversaryPlan::none());
    }

    #[test]
    fn profiles_parse_and_roundtrip_display() {
        for name in AdversaryPlan::PROFILES {
            let p: AdversaryPlan = name.parse().unwrap();
            assert_eq!(p.profile, *name);
            assert_eq!(p.to_string(), *name);
            assert_eq!(p.is_empty(), *name == "none", "{name}");
        }
        let p: AdversaryPlan = "rotation:0x5EED".parse().unwrap();
        assert_eq!(p.seed, 0x5EED);
        assert_eq!(p.to_string(), "rotation:0x5eed");
        let p: AdversaryPlan = "full:7".parse().unwrap();
        assert_eq!(p.seed, 7);
        assert!(p.rotate_url && p.respell && p.shorten && p.funnel_rate > 0.0);
    }

    #[test]
    fn unknown_profile_and_bad_seed_error() {
        assert!("bogus".parse::<AdversaryPlan>().is_err());
        assert!("rotation:banana".parse::<AdversaryPlan>().is_err());
    }

    #[test]
    fn strategies_without_share_are_empty() {
        let p = AdversaryPlan {
            rotate_url: true,
            ..AdversaryPlan::none()
        };
        assert!(p.is_empty(), "no drifting share → nothing rotates");
        let p = AdversaryPlan {
            drifting_share: 0.5,
            ..AdversaryPlan::none()
        };
        assert!(p.is_empty(), "share without any strategy → nothing rotates");
    }

    #[test]
    fn archetype_labels() {
        assert!(!Archetype::Baseline.is_funnel());
        assert!(Archetype::ConversationalFunnel.is_funnel());
        assert_eq!(Archetype::JobScamFunnel.label(), "job-scam-funnel");
    }
}
