//! Table 13: lure principles per scam category (§5.5).

use crate::pipeline::PipelineOutput;
use crate::table::TextTable;
use smishing_stats::Counter;
use smishing_types::{Lure, ScamType};
use std::collections::HashMap;

/// Lure detection results over unique records.
#[derive(Debug, Clone)]
pub struct Lures {
    /// Messages carrying each lure.
    pub counts: Counter<Lure>,
    /// Messages per (scam type, lure).
    pub by_scam: HashMap<(ScamType, Lure), u64>,
    /// Messages per scam type (denominator for the ✓ threshold).
    pub scam_totals: Counter<ScamType>,
    /// Total annotated messages.
    pub n: usize,
}

/// Table 13 over the unique records. Lure counting has no internal
/// deduplication: each dedup winner counts once.
pub fn lures(out: &PipelineOutput<'_>) -> Lures {
    let mut counts = Counter::new();
    let mut by_scam: HashMap<(ScamType, Lure), u64> = HashMap::new();
    let mut scam_totals = Counter::new();
    for r in &out.records {
        let scam = r.annotation.scam_type;
        scam_totals.add(scam);
        for lure in r.annotation.lures.iter() {
            counts.add(lure);
            *by_scam.entry((scam, lure)).or_default() += 1;
        }
    }
    Lures {
        counts,
        by_scam,
        scam_totals,
        n: out.records.len(),
    }
}

impl Lures {
    /// Whether Table 13 would print a ✓: the lure appears in at least a
    /// fifth of the category's messages.
    pub fn is_characteristic(&self, scam: ScamType, lure: Lure) -> bool {
        let total = self.scam_totals.get(&scam);
        if total == 0 {
            return false;
        }
        let c = self.by_scam.get(&(scam, lure)).copied().unwrap_or(0);
        c as f64 / total as f64 >= 0.2
    }

    /// Render Table 13.
    pub fn to_table(&self) -> TextTable {
        let mut t = TextTable::new(
            "Table 13: lures used per scam category",
            &["Lure", "B", "D", "G", "T", "W", "H"],
        );
        let scams = [
            ScamType::Banking,
            ScamType::Delivery,
            ScamType::Government,
            ScamType::Telecom,
            ScamType::WrongNumber,
            ScamType::HeyMumDad,
        ];
        for &lure in Lure::ALL {
            let mut row = vec![lure.label().to_string()];
            for &s in &scams {
                row.push(if self.is_characteristic(s, lure) {
                    "✓".into()
                } else {
                    "".into()
                });
            }
            t.row(&row);
        }
        t
    }

    /// Share of all messages using a lure.
    pub fn share(&self, lure: Lure) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.counts.get(&lure) as f64 / self.n as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::testfix;

    #[test]
    fn urgency_everywhere_except_wrong_number() {
        // Table 13's ✓ row for Time & Urgency: B, D, G, T, H — not W.
        let l = lures(testfix::output());
        for s in [
            ScamType::Banking,
            ScamType::Delivery,
            ScamType::Government,
            ScamType::Telecom,
            ScamType::HeyMumDad,
        ] {
            assert!(l.is_characteristic(s, Lure::TimeUrgency), "{s:?}");
        }
        assert!(!l.is_characteristic(ScamType::WrongNumber, Lure::TimeUrgency));
    }

    #[test]
    fn authority_in_institutional_scams_only() {
        let l = lures(testfix::output());
        for s in [
            ScamType::Banking,
            ScamType::Delivery,
            ScamType::Government,
            ScamType::Telecom,
        ] {
            assert!(l.is_characteristic(s, Lure::Authority), "{s:?}");
        }
        assert!(!l.is_characteristic(ScamType::HeyMumDad, Lure::Authority));
        assert!(!l.is_characteristic(ScamType::WrongNumber, Lure::Authority));
    }

    #[test]
    fn kindness_and_distraction_mark_conversation_scams() {
        let l = lures(testfix::output());
        assert!(l.is_characteristic(ScamType::HeyMumDad, Lure::Kindness));
        assert!(l.is_characteristic(ScamType::HeyMumDad, Lure::Distraction));
        assert!(l.is_characteristic(ScamType::WrongNumber, Lure::Distraction));
        assert!(!l.is_characteristic(ScamType::Banking, Lure::Kindness));
    }

    #[test]
    fn dishonesty_and_herd_are_rare() {
        // §5.5: dishonesty 0.5%, herd 1.2% of messages.
        let l = lures(testfix::output());
        assert!(
            l.share(Lure::Dishonesty) < 0.05,
            "{}",
            l.share(Lure::Dishonesty)
        );
        assert!(l.share(Lure::Herd) < 0.12, "{}", l.share(Lure::Herd));
        assert!(
            l.share(Lure::TimeUrgency) > 0.5,
            "{}",
            l.share(Lure::TimeUrgency)
        );
    }

    #[test]
    fn table_renders_seven_lures() {
        let l = lures(testfix::output());
        assert_eq!(l.to_table().len(), 7);
    }
}
