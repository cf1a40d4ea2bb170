//! Table 14 and Figure 3: sender-ID origin countries and their scam mix
//! (§5.6).

use crate::enrich::{EnrichedRecord, MissingField};
use crate::table::TextTable;
use smishing_stats::{Counter, FirstClaim};
use smishing_telecom::NumberStatus;
use smishing_types::{Country, PhoneNumber, ScamType};
use std::collections::{HashMap, HashSet};

/// Country measurements over unique mobile-number senders.
#[derive(Debug, Clone)]
pub struct Countries {
    /// All numbers per origin country.
    pub all: Counter<Country>,
    /// Live numbers per origin country.
    pub live: Counter<Country>,
    /// Distinct original operators per country ("Originating MNOs" column).
    pub mnos: HashMap<Country, HashSet<&'static str>>,
    /// Scam-type counts per country (Figure 3).
    pub scam_mix: HashMap<Country, Counter<ScamType>>,
    /// Unique phone numbers whose origin is unknown because their HLR
    /// lookup failed (and no other record resolved them).
    pub unresolved: usize,
}

/// One record's contribution for its unique phone number.
#[derive(Debug, Clone, Copy)]
struct CountryClaim {
    country: Country,
    live: bool,
    operator: Option<&'static str>,
    scam: ScamType,
}

/// Table 14 / Figure 3: phone-number uniqueness is first-wins by
/// `post_id`; records without an HLR country or a parseable phone never
/// claim (exactly the batch guards).
#[derive(Debug, Clone, Default)]
pub struct CountriesAcc {
    claims: FirstClaim<PhoneNumber, CountryClaim>,
    /// Phone senders whose HLR lookup failed — candidates for the
    /// "(unresolved)" row unless another record resolved the same number.
    hlr_failed: HashSet<PhoneNumber>,
}

impl CountriesAcc {
    /// New empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fold in one unique record.
    pub fn add_record(&mut self, r: &EnrichedRecord) {
        if let Some(phone) = Self::project_failed(r) {
            self.hlr_failed.insert(phone.clone());
            return;
        }
        let Some(claim) = Self::project(r) else {
            return;
        };
        let phone = r
            .sender
            .as_ref()
            .and_then(|s| s.phone())
            .expect("projected");
        self.claims.add(phone.clone(), r.curated.post_id.0, claim);
    }

    /// A phone sender whose HLR lookup failed outright.
    fn project_failed(r: &EnrichedRecord) -> Option<&PhoneNumber> {
        if r.hlr.is_none() && r.is_missing(MissingField::Hlr) {
            r.sender.as_ref().and_then(|s| s.phone())
        } else {
            None
        }
    }

    fn project(r: &EnrichedRecord) -> Option<CountryClaim> {
        let hlr = r.hlr.as_ref()?;
        let country = hlr.origin_country?;
        let sender = r.sender.as_ref()?;
        sender.phone()?;
        Some(CountryClaim {
            country,
            live: hlr.status == NumberStatus::Live,
            operator: hlr.original_operator,
            scam: r.annotation.scam_type,
        })
    }

    /// Absorb another shard's accumulator.
    pub fn merge(&mut self, other: CountriesAcc) {
        self.claims.merge(other.claims);
        self.hlr_failed.extend(other.hlr_failed);
    }

    /// Produce the batch result.
    pub fn finish(&self) -> Countries {
        let mut all = Counter::new();
        let mut live = Counter::new();
        let mut mnos: HashMap<Country, HashSet<&'static str>> = HashMap::new();
        let mut scam_mix: HashMap<Country, Counter<ScamType>> = HashMap::new();
        let mut resolved: HashSet<&PhoneNumber> = HashSet::new();
        for (phone, _, claim) in self.claims.winners() {
            resolved.insert(phone);
            all.add(claim.country);
            if claim.live {
                live.add(claim.country);
            }
            if let Some(op) = claim.operator {
                mnos.entry(claim.country).or_default().insert(op);
            }
            scam_mix.entry(claim.country).or_default().add(claim.scam);
        }
        // A number only counts as unresolved if *no* record resolved it —
        // under tick-windowed outages, another sighting of the same number
        // may have succeeded.
        let unresolved = self
            .hlr_failed
            .iter()
            .filter(|phone| !resolved.contains(phone))
            .count();
        Countries {
            all,
            live,
            mnos,
            scam_mix,
            unresolved,
        }
    }
}

impl Countries {
    /// Render Table 14.
    pub fn to_table(&self) -> TextTable {
        let mut t = TextTable::new(
            "Table 14: top 10 countries by sender-ID mobile numbers",
            &["Country", "Originating MNOs", "All", "Live"],
        );
        for (country, count) in self.all.top_k(10) {
            t.row(&[
                country.name().to_string(),
                self.mnos
                    .get(&country)
                    .map(|s| s.len())
                    .unwrap_or(0)
                    .to_string(),
                count.to_string(),
                self.live.get(&country).to_string(),
            ]);
        }
        if self.unresolved > 0 {
            t.row(&[
                "(unresolved)".to_string(),
                "-".to_string(),
                self.unresolved.to_string(),
                "-".to_string(),
            ]);
        }
        t
    }

    /// Figure 3 series: per country, the percentage mix of scam types.
    pub fn figure3(&self) -> Vec<(Country, Vec<(ScamType, f64)>)> {
        self.all
            .top_k(10)
            .into_iter()
            .map(|(country, _)| {
                let mix = self.scam_mix.get(&country);
                let series = ScamType::ALL
                    .iter()
                    .filter(|s| !matches!(s, ScamType::Spam))
                    .map(|&s| {
                        let share = mix.map(|m| m.share(&s) * 100.0).unwrap_or(0.0);
                        (s, share)
                    })
                    .collect();
                (country, series)
            })
            .collect()
    }

    /// Render Figure 3 as a table of percentages.
    pub fn figure3_table(&self) -> TextTable {
        let mut t = TextTable::new(
            "Figure 3: scam-type mix per top-10 origin country (%)",
            &[
                "Country", "Bank", "Deliv", "Gov", "Tele", "Wrong#", "Mum/Dad", "Others",
            ],
        );
        for (country, series) in self.figure3() {
            let get = |s: ScamType| {
                series
                    .iter()
                    .find(|(x, _)| *x == s)
                    .map(|(_, v)| format!("{v:.0}"))
                    .unwrap_or_default()
            };
            t.row(&[
                country.alpha3().to_string(),
                get(ScamType::Banking),
                get(ScamType::Delivery),
                get(ScamType::Government),
                get(ScamType::Telecom),
                get(ScamType::WrongNumber),
                get(ScamType::HeyMumDad),
                get(ScamType::Others),
            ]);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::testfix;

    #[test]
    fn india_tops_table14() {
        let c = testfix::output().accs.countries.finish();
        let top = c.all.top_k(10);
        assert!(top.len() >= 5, "{top:?}");
        assert_eq!(top[0].0, Country::India, "{top:?}");
        let second = top[1].0;
        assert_eq!(second, Country::UnitedStates, "{top:?}");
    }

    #[test]
    fn live_counts_are_a_fraction_of_all() {
        let c = testfix::output().accs.countries.finish();
        for (country, all) in c.all.top_k(10) {
            let live = c.live.get(&country);
            assert!(live <= all, "{country:?}");
        }
        // Spain's live rate is distinctively high (Table 14: 361/494).
        let es_all = c.all.get(&Country::Spain);
        let es_live = c.live.get(&Country::Spain);
        let in_all = c.all.get(&Country::India);
        let in_live = c.live.get(&Country::India);
        if es_all >= 20 && in_all >= 20 {
            let es_rate = es_live as f64 / es_all as f64;
            let in_rate = in_live as f64 / in_all as f64;
            assert!(es_rate > in_rate + 0.2, "ES {es_rate} vs IN {in_rate}");
        }
    }

    #[test]
    fn india_is_banking_heavy_us_is_others_heavy() {
        // Fig. 3's headline contrast.
        let c = testfix::output().accs.countries.finish();
        let india = c.scam_mix.get(&Country::India).expect("india present");
        assert_eq!(india.top_k(1)[0].0, ScamType::Banking);
        assert!(
            india.share(&ScamType::Banking) > 0.5,
            "{}",
            india.share(&ScamType::Banking)
        );
        let us = c.scam_mix.get(&Country::UnitedStates).expect("us present");
        assert!(
            us.share(&ScamType::Others) > india.share(&ScamType::Others),
            "US others {} vs IN {}",
            us.share(&ScamType::Others),
            india.share(&ScamType::Others)
        );
    }

    #[test]
    fn multiple_mnos_per_major_country() {
        let c = testfix::output().accs.countries.finish();
        assert!(c.mnos.get(&Country::India).map(|s| s.len()).unwrap_or(0) >= 3);
    }

    #[test]
    fn tables_render() {
        let c = testfix::output().accs.countries.finish();
        assert!(c.to_table().len() >= 5);
        assert!(c.figure3_table().len() >= 5);
    }
}
