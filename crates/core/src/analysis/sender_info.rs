//! Tables 3 and 4: sender-ID composition, phone-number types and abused
//! mobile operators (§4.1).

use crate::enrich::MissingField;
use crate::pipeline::PipelineOutput;
use crate::table::{count_pct, TextTable};
use smishing_stats::Counter;
use smishing_telecom::NumberType;
use smishing_types::{Country, SenderId, SenderKind};
use std::collections::{BTreeSet, HashSet};

/// Sender-related measurements.
#[derive(Debug, Clone)]
pub struct SenderInfo {
    /// Unique sender counts per kind (§4.1's 65.6% / 30.7% / 3.7% split).
    pub kinds: Counter<SenderKind>,
    /// Phone-number types of unique phone senders (Table 3).
    pub number_types: Counter<NumberType>,
    /// (operator, origin country) of unique mobile senders (Table 4).
    pub operators: Counter<&'static str>,
    /// Countries seen per operator.
    pub operator_countries: Vec<(&'static str, BTreeSet<Country>)>,
    /// Unique phone senders whose HLR lookup failed after retries — kept
    /// out of the Table 3 type tallies and reported as "(unresolved)".
    pub unresolved: usize,
}

/// Sender measurements over unique sender IDs (Tables 3 and 4). One
/// sender can span several dedup groups: it counts once, for its first
/// reporter, the lowest post id that carries it.
pub fn sender_info(out: &PipelineOutput<'_>) -> SenderInfo {
    let mut seen: HashSet<String> = HashSet::with_capacity(out.records.len());
    let mut kinds = Counter::new();
    let mut number_types = Counter::new();
    let mut operators: Counter<&'static str> = Counter::new();
    let mut op_countries: Vec<(&'static str, BTreeSet<Country>)> = Vec::new();
    let mut unresolved = 0;
    for r in &out.records {
        let Some(sender) = &r.sender else { continue };
        if !seen.insert(sender.display_string()) {
            continue;
        }
        kinds.add(sender.kind());
        if !matches!(sender, SenderId::Phone(_) | SenderId::MalformedPhone(_)) {
            continue;
        }
        let Some(hlr) = &r.hlr else {
            if r.is_missing(MissingField::Hlr) {
                unresolved += 1;
            }
            continue;
        };
        number_types.add(hlr.number_type);
        let Some(op) = hlr.original_operator else {
            continue;
        };
        operators.add(op);
        if let Some(c) = hlr.origin_country {
            match op_countries.iter_mut().find(|(o, _)| *o == op) {
                Some((_, set)) => {
                    set.insert(c);
                }
                None => op_countries.push((op, BTreeSet::from([c]))),
            }
        }
    }
    SenderInfo {
        kinds,
        number_types,
        operators,
        operator_countries: op_countries,
        unresolved,
    }
}

impl SenderInfo {
    /// Render Table 3.
    pub fn number_types_table(&self) -> TextTable {
        let mut t = TextTable::new(
            "Table 3: types of phone numbers abused as sender IDs",
            &["Type", "Phone numbers"],
        );
        let total = self.number_types.total();
        t.row_strs(&["— Valid Numbers —", ""]);
        for nt in NumberType::ALL.iter().filter(|n| n.is_valid_sender()) {
            let c = self.number_types.get(nt);
            if c > 0 || matches!(nt, NumberType::Mobile) {
                t.row(&[nt.label().to_string(), count_pct(c, total)]);
            }
        }
        t.row_strs(&["— Invalid/Suspicious —", ""]);
        for nt in NumberType::ALL.iter().filter(|n| !n.is_valid_sender()) {
            t.row(&[
                nt.label().to_string(),
                count_pct(self.number_types.get(nt), total),
            ]);
        }
        if self.unresolved > 0 {
            t.row(&["(unresolved)".to_string(), self.unresolved.to_string()]);
        }
        t
    }

    /// Render Table 4 (top 10 operators with their abuse-origin countries).
    pub fn operators_table(&self) -> TextTable {
        let mut t = TextTable::new(
            "Table 4: top 10 mobile network operators abused to send smishing",
            &["MNO", "Mobile #s", "Countries"],
        );
        let total = self.operators.total();
        for (op, count) in self.operators.top_k(10) {
            let countries = self
                .operator_countries
                .iter()
                .find(|(o, _)| *o == op)
                .map(|(_, set)| {
                    set.iter()
                        .map(|c| c.alpha3())
                        .collect::<Vec<_>>()
                        .join(", ")
                })
                .unwrap_or_default();
            t.row(&[op.to_string(), count_pct(count, total), countries]);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::testfix;

    #[test]
    fn kind_split_matches_section_4_1() {
        let info = sender_info(testfix::output());
        let total = info.kinds.total();
        assert!(total > 300, "{total}");
        let phone = info.kinds.share(&SenderKind::Phone);
        let alnum = info.kinds.share(&SenderKind::Alphanumeric);
        let email = info.kinds.share(&SenderKind::Email);
        assert!((0.55..0.75).contains(&phone), "phone {phone}");
        assert!((0.20..0.42).contains(&alnum), "alnum {alnum}");
        assert!((0.01..0.09).contains(&email), "email {email}");
        assert!(
            alnum > email,
            "shortcodes outnumber emails (contra Smishtank-only data)"
        );
    }

    #[test]
    fn mobile_tops_table3_with_bad_format_second() {
        let info = sender_info(testfix::output());
        let top = info.number_types.top_k(2);
        assert_eq!(top[0].0, NumberType::Mobile, "{top:?}");
        assert_eq!(top[1].0, NumberType::BadFormat, "{top:?}");
        let mobile_share = info.number_types.share(&NumberType::Mobile);
        assert!((0.5..0.8).contains(&mobile_share), "{mobile_share}");
        // Suspicious landlines exist (§4.1's spoofing tell).
        assert!(info.number_types.get(&NumberType::Landline) > 0);
    }

    #[test]
    fn vodafone_tops_table4_with_wide_footprint() {
        let info = sender_info(testfix::output());
        let top = info.operators.top_k(10);
        assert!(!top.is_empty());
        assert_eq!(top[0].0, "Vodafone", "{top:?}");
        let voda_countries = info
            .operator_countries
            .iter()
            .find(|(o, _)| *o == "Vodafone")
            .map(|(_, s)| s.len())
            .unwrap_or(0);
        assert!(
            voda_countries >= 4,
            "Vodafone abused from {voda_countries} countries"
        );
        for (op, set) in &info.operator_countries {
            if *op != "Vodafone" {
                assert!(set.len() <= voda_countries + 2, "{op} wider than Vodafone");
            }
        }
    }

    #[test]
    fn airtel_present_in_top_operators() {
        let info = sender_info(testfix::output());
        let names: Vec<&str> = info
            .operators
            .top_k(6)
            .into_iter()
            .map(|(o, _)| o)
            .collect();
        assert!(names.contains(&"AirTel"), "{names:?}");
    }

    #[test]
    fn tables_render() {
        let info = sender_info(testfix::output());
        assert!(info.number_types_table().len() >= 6);
        assert!(info.operators_table().len() >= 5);
    }
}
