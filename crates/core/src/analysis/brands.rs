//! Table 12: impersonated brands (§5.4).

use crate::pipeline::PipelineOutput;
use crate::table::{count_pct, TextTable};
use smishing_stats::Counter;
use smishing_textnlp::brands::BrandCatalog;

/// Brand impersonation counts over all curated messages.
#[derive(Debug, Clone)]
pub struct Brands {
    /// Messages per canonical brand name.
    pub counts: Counter<String>,
    /// Messages with no identifiable brand.
    pub no_brand: usize,
}

/// Table 12, weighted over total messages via unique annotations: each
/// dedup group's winner counts once per report in its evidence.
pub fn brands(out: &PipelineOutput<'_>) -> Brands {
    let mut counts = Counter::new();
    let mut no_brand = 0;
    for r in &out.records {
        let n = r.evidence.reports;
        match &r.annotation.brand {
            Some(b) => counts.add_n(b.clone(), u64::from(n)),
            None => no_brand += n as usize,
        }
    }
    Brands { counts, no_brand }
}

impl Brands {
    /// Render Table 12.
    pub fn to_table(&self) -> TextTable {
        let mut t = TextTable::new(
            "Table 12: top 10 brands impersonated in smishing",
            &["Brand", "Category", "Messages"],
        );
        let total = self.counts.total() + self.no_brand as u64;
        let cat = BrandCatalog::global();
        for (brand, count) in self.counts.top_k(10) {
            let sector = cat
                .by_name(&brand)
                .map(|b| b.sector.label().to_string())
                .unwrap_or_else(|| "?".into());
            t.row(&[brand, sector, count_pct(count, total)]);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::testfix;
    use smishing_types::Sector;

    #[test]
    fn sbi_tops_table12() {
        let b = brands(testfix::output());
        let top = b.counts.top_k(10);
        assert!(!top.is_empty());
        assert_eq!(top[0].0, "State Bank of India", "{top:?}");
    }

    #[test]
    fn banks_dominate_the_top10() {
        let b = brands(testfix::output());
        let cat = BrandCatalog::global();
        let bank_count = b
            .counts
            .top_k(10)
            .iter()
            .filter(|(name, _)| {
                cat.by_name(name)
                    .is_some_and(|br| br.sector == Sector::Banking)
            })
            .count();
        assert!(bank_count >= 5, "{bank_count} banks in top 10");
    }

    #[test]
    fn tech_brands_appear_as_others() {
        // Amazon/Netflix reach Table 12 despite not being banks.
        let b = brands(testfix::output());
        let top: Vec<String> = b.counts.top_k(20).into_iter().map(|(n, _)| n).collect();
        assert!(
            top.iter()
                .any(|n| n == "Amazon" || n == "Netflix" || n == "PayPal"),
            "{top:?}"
        );
    }

    #[test]
    fn conversation_scams_have_no_brand() {
        let b = brands(testfix::output());
        assert!(b.no_brand > 0);
    }

    #[test]
    fn table_renders() {
        let b = brands(testfix::output());
        assert_eq!(b.to_table().len(), 10);
    }
}
