//! Home Location Register lookup (§3.3.1).
//!
//! An HLR lookup reveals a number's current status (live / inactive / dead),
//! its original operator (from the allocation) and its current operator
//! (after any porting). The paper performs a *one-time* lookup per number
//! and uses only the original operator, because numbers get recycled and
//! re-issued — the simulator reproduces both the porting noise and the
//! per-country live rates visible in Table 14.
//!
//! [`HlrLookup`] is the provider interface; [`SimulatedHlr`] is the
//! deterministic offline implementation. A production deployment would put
//! an actual provider (e.g. hlrlookup.com) behind the same trait.

use crate::numbertype::NumberType;
use crate::plan::PlanRegistry;
use parking_lot::RwLock;
use smishing_types::{fnv1a, CallCtx, Country, PhoneNumber, SenderId, ServiceError, FNV_PRIME};
use std::collections::HashMap;

/// Line status returned by an HLR query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NumberStatus {
    /// Currently registered and reachable.
    Live,
    /// Allocated but currently unreachable / suspended.
    Inactive,
    /// De-allocated (possibly awaiting recycling).
    Dead,
}

/// One HLR answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HlrRecord {
    /// Number type under the origin country's plan.
    pub number_type: NumberType,
    /// Country the number's range belongs to.
    pub origin_country: Option<Country>,
    /// Operator the range was originally allocated to.
    pub original_operator: Option<&'static str>,
    /// Operator currently serving the number (differs after porting).
    pub current_operator: Option<&'static str>,
    /// Current line status.
    pub status: NumberStatus,
}

/// The HLR provider interface the pipeline codes against.
pub trait HlrLookup {
    /// Look up a sender. Returns `None` for non-phone senders; malformed
    /// phone strings return a `BadFormat` record (that is what a real HLR
    /// answers for junk input).
    fn lookup(&self, sender: &SenderId) -> Option<HlrRecord>;
}

/// Fallible HLR lookup — the seam where upstream failures (timeouts, rate
/// limits, gateway outages) enter the pipeline. Real implementations ignore
/// the [`CallCtx`]; the fault layer uses it to make failure a pure function
/// of (attempt, virtual tick).
pub trait HlrApi {
    /// Look up a sender, or fail the way a real HLR gateway can.
    fn hlr_lookup(
        &self,
        ctx: CallCtx,
        sender: &SenderId,
    ) -> Result<Option<HlrRecord>, ServiceError>;
}

impl HlrApi for SimulatedHlr {
    fn hlr_lookup(
        &self,
        _ctx: CallCtx,
        sender: &SenderId,
    ) -> Result<Option<HlrRecord>, ServiceError> {
        Ok(self.lookup(sender))
    }
}

/// Deterministic HLR simulator.
///
/// Status and porting are pseudo-random but *stable*: a pure function of
/// the number and the simulator seed, so repeated lookups agree — matching
/// the paper's one-time-lookup methodology — and the whole pipeline stays
/// reproducible.
pub struct SimulatedHlr {
    seed: u64,
    /// Per-country probability that a looked-up number is still live.
    live_rates: HashMap<Country, f64>,
    default_live_rate: f64,
    /// Probability a mobile number was ported to another operator.
    porting_rate: f64,
    cache: RwLock<HashMap<PhoneNumber, HlrRecord>>,
}

impl SimulatedHlr {
    /// Build with the default per-country live rates (calibrated to the
    /// all-vs-live columns of Table 14).
    pub fn new(seed: u64) -> SimulatedHlr {
        let mut live_rates = HashMap::new();
        // Table 14: live/all per country, e.g. India 396/2722, Spain 361/494.
        for (c, r) in [
            (Country::India, 0.15),
            (Country::UnitedStates, 0.21),
            (Country::Netherlands, 0.29),
            (Country::UnitedKingdom, 0.18),
            (Country::Spain, 0.73),
            (Country::Australia, 0.39),
            (Country::France, 0.52),
            (Country::Belgium, 0.31),
            (Country::Indonesia, 0.13),
            (Country::Germany, 0.37),
        ] {
            live_rates.insert(c, r);
        }
        SimulatedHlr {
            seed,
            live_rates,
            default_live_rate: 0.30,
            porting_rate: 0.15,
            cache: RwLock::new(HashMap::new()),
        }
    }

    fn hash(&self, phone: &PhoneNumber, salt: u64) -> u64 {
        // FNV-1a over the digits, seed and salt: cheap, stable, good enough
        // for deterministic pseudo-randomness.
        let h = fnv1a(self.seed.wrapping_mul(FNV_PRIME), phone.digits().bytes());
        let h = (h ^ salt).wrapping_mul(FNV_PRIME);
        h ^ (h >> 31)
    }

    fn unit(&self, phone: &PhoneNumber, salt: u64) -> f64 {
        (self.hash(phone, salt) >> 11) as f64 / (1u64 << 53) as f64
    }

    fn compute(&self, phone: &PhoneNumber) -> HlrRecord {
        let (country, class) = PlanRegistry::global().classify(phone);
        if class.number_type == NumberType::BadFormat {
            return HlrRecord {
                number_type: NumberType::BadFormat,
                origin_country: country,
                original_operator: None,
                current_operator: None,
                status: NumberStatus::Dead,
            };
        }
        let live_rate = country
            .and_then(|c| self.live_rates.get(&c).copied())
            .unwrap_or(self.default_live_rate);
        let u = self.unit(phone, 1);
        let status = if u < live_rate {
            NumberStatus::Live
        } else if u < live_rate + (1.0 - live_rate) * 0.6 {
            NumberStatus::Inactive
        } else {
            NumberStatus::Dead
        };

        let original = class.operator;
        let current = match (original, country) {
            (Some(orig), Some(c)) if self.unit(phone, 2) < self.porting_rate => {
                // Ported: pick a different operator active in the country.
                let plan = PlanRegistry::global()
                    .plan_for(c)
                    .expect("classified country");
                let others: Vec<_> = plan
                    .operators()
                    .into_iter()
                    .filter(|&o| o != orig)
                    .collect();
                if others.is_empty() {
                    Some(orig)
                } else {
                    let idx = (self.hash(phone, 3) as usize) % others.len();
                    Some(others[idx])
                }
            }
            (orig, _) => orig,
        };

        HlrRecord {
            number_type: class.number_type,
            origin_country: country,
            original_operator: original,
            current_operator: current,
            status,
        }
    }
}

impl HlrLookup for SimulatedHlr {
    fn lookup(&self, sender: &SenderId) -> Option<HlrRecord> {
        match sender {
            SenderId::Phone(p) => {
                if let Some(hit) = self.cache.read().get(p) {
                    return Some(hit.clone());
                }
                let rec = self.compute(p);
                self.cache.write().insert(p.clone(), rec.clone());
                Some(rec)
            }
            SenderId::MalformedPhone(_) => Some(HlrRecord {
                number_type: NumberType::BadFormat,
                origin_country: None,
                original_operator: None,
                current_operator: None,
                status: NumberStatus::Dead,
            }),
            SenderId::Email(_) | SenderId::Alphanumeric(_) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// `SimulatedHlr::hash` as it was before it called `fnv1a`, verbatim.
    fn hash_loop(seed: u64, phone: &PhoneNumber, salt: u64) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325 ^ seed.wrapping_mul(0x100_0000_01b3);
        for b in phone.digits().bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        h ^= salt;
        h = h.wrapping_mul(0x100_0000_01b3);
        h ^ (h >> 31)
    }

    proptest! {
        #[test]
        fn hash_matches_its_former_loop(
            seed in 0u64..u64::MAX,
            cc in 1u16..999,
            national in "[0-9]{0,14}",
            salt in 0u64..u64::MAX,
        ) {
            let p = PhoneNumber::new(cc, national);
            prop_assert_eq!(SimulatedHlr::new(seed).hash(&p, salt), hash_loop(seed, &p, salt));
        }
    }

    fn phone(cc: u16, nat: &str) -> SenderId {
        SenderId::Phone(PhoneNumber::new(cc, nat))
    }

    #[test]
    fn lookups_are_stable() {
        let hlr = SimulatedHlr::new(7);
        let s = phone(91, "9876543210");
        let a = hlr.lookup(&s).unwrap();
        let b = hlr.lookup(&s).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn original_operator_comes_from_allocation() {
        let hlr = SimulatedHlr::new(7);
        let rec = hlr.lookup(&phone(91, "9876543210")).unwrap();
        assert_eq!(rec.original_operator, Some("AirTel"));
        assert_eq!(rec.origin_country, Some(Country::India));
        assert_eq!(rec.number_type, NumberType::Mobile);
    }

    #[test]
    fn porting_changes_current_not_original() {
        let hlr = SimulatedHlr::new(7);
        let mut ported = 0;
        let mut total = 0;
        for i in 0..1000 {
            let nat = format!("74{:08}", i);
            let rec = hlr.lookup(&phone(44, &nat)).unwrap();
            assert_eq!(
                rec.original_operator,
                Some("Vodafone"),
                "original never changes"
            );
            total += 1;
            if rec.current_operator != rec.original_operator {
                ported += 1;
            }
        }
        let rate = ported as f64 / total as f64;
        assert!((0.08..0.25).contains(&rate), "porting rate {rate}");
    }

    #[test]
    fn live_rates_are_per_country() {
        let hlr = SimulatedHlr::new(7);
        let live_frac = |cc: u16, prefix: &str, pad: usize| {
            let mut live = 0;
            for i in 0..500 {
                let nat = format!("{prefix}{:0width$}", i, width = pad);
                if hlr.lookup(&phone(cc, &nat)).unwrap().status == NumberStatus::Live {
                    live += 1;
                }
            }
            live as f64 / 500.0
        };
        let spain = live_frac(34, "612", 6); // live rate 0.73
        let india = live_frac(91, "98765", 5); // live rate 0.15
        assert!(spain > 0.6, "spain {spain}");
        assert!(india < 0.25, "india {india}");
    }

    #[test]
    fn malformed_is_bad_format() {
        let hlr = SimulatedHlr::new(7);
        let rec = hlr
            .lookup(&SenderId::MalformedPhone("9999999999999999999".into()))
            .unwrap();
        assert_eq!(rec.number_type, NumberType::BadFormat);
        assert_eq!(rec.original_operator, None);
    }

    #[test]
    fn non_phone_senders_have_no_hlr() {
        let hlr = SimulatedHlr::new(7);
        assert!(hlr
            .lookup(&SenderId::Alphanumeric("SBIBNK".into()))
            .is_none());
        assert!(hlr.lookup(&SenderId::Email("a@b.com".into())).is_none());
    }

    #[test]
    fn landline_classified_not_mobile() {
        let hlr = SimulatedHlr::new(7);
        let rec = hlr.lookup(&phone(44, "2071234567")).unwrap();
        assert_eq!(rec.number_type, NumberType::Landline);
        assert_eq!(rec.original_operator, None);
    }

    #[test]
    fn different_seeds_change_status_draws() {
        let a = SimulatedHlr::new(1);
        let b = SimulatedHlr::new(2);
        let mut diff = 0;
        for i in 0..200 {
            let s = phone(44, &format!("74{:08}", i));
            if a.lookup(&s).unwrap().status != b.lookup(&s).unwrap().status {
                diff += 1;
            }
        }
        assert!(diff > 20, "seeds should decorrelate status ({diff})");
    }
}
