//! §3.4: inter-rater reliability of the annotation pipeline.
//!
//! Two human annotator models label a 150-message random sample; Cohen's κ
//! between them reproduces the paper's human–human agreement (brands 0.82,
//! scam types 0.94, lures 0.85). A consensus is then formed and the
//! pipeline annotator ("the LLM") is scored against it (paper: brands
//! 0.85, scam types 0.93, lures 0.70). The pipeline's labels are the
//! annotations enrichment already attached to each record.

use crate::pipeline::PipelineOutput;
use crate::table::TextTable;
use rand::rngs::StdRng;
use rand::SeedableRng;
use smishing_stats::{cohen_kappa, reservoir_sample, AgreementLevel};
use smishing_textnlp::annotator::HumanAnnotator;
use smishing_types::{Language, Lure, ScamType};

/// κ values for the three annotated properties.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KappaTriple {
    /// Impersonated brand agreement.
    pub brands: f64,
    /// Scam-type agreement.
    pub scam_types: f64,
    /// Lure-principle agreement (exact-set nominal κ).
    pub lures: f64,
}

/// The full IRR study result.
#[derive(Debug, Clone, Copy)]
pub struct IrrStudy {
    /// Sample size (the paper uses 150 English messages).
    pub n: usize,
    /// Human vs human.
    pub human_human: KappaTriple,
    /// Pipeline ("LLM") vs human consensus.
    pub llm_consensus: KappaTriple,
}

/// Run the §3.4 study over the pipeline output.
pub fn irr_study(out: &PipelineOutput<'_>, sample_size: usize, seed: u64) -> IrrStudy {
    // English messages with ground truth (the paper omits non-English texts
    // for IRR since English is the annotators' common language).
    let english: Vec<_> = out
        .records
        .iter()
        .filter(|r| r.curated.language == Some(Language::English))
        .filter(|r| r.curated.truth_message.is_some())
        .collect();
    let mut rng = StdRng::seed_from_u64(seed);
    let sample = reservoir_sample(english, sample_size, &mut rng);

    let h1 = HumanAnnotator::new(seed ^ 0xA1);
    let h2 = HumanAnnotator::new(seed ^ 0xB2);

    let mut h1_scam = Vec::new();
    let mut h2_scam = Vec::new();
    let mut llm_scam = Vec::new();
    let mut h1_brand = Vec::new();
    let mut h2_brand = Vec::new();
    let mut llm_brand = Vec::new();
    let mut h1_lures: Vec<Vec<Lure>> = Vec::new();
    let mut h2_lures: Vec<Vec<Lure>> = Vec::new();
    let mut llm_lures: Vec<Vec<Lure>> = Vec::new();

    for (i, r) in sample.iter().enumerate() {
        let mid = r.curated.truth_message.expect("filtered above");
        let truth = &out.world.messages[mid.0 as usize].truth;
        let a1 = h1.annotate_truth(i as u64, truth);
        let a2 = h2.annotate_truth(i as u64, truth);
        let al = &r.annotation;
        h1_scam.push(a1.scam_type);
        h2_scam.push(a2.scam_type);
        llm_scam.push(al.scam_type);
        h1_brand.push(a1.brand.clone().unwrap_or_default());
        h2_brand.push(a2.brand.clone().unwrap_or_default());
        llm_brand.push(al.brand.clone().unwrap_or_default());
        h1_lures.push(a1.lures.iter().collect());
        h2_lures.push(a2.lures.iter().collect());
        llm_lures.push(al.lures.iter().collect());
    }

    // Lure sets are compared as nominal labels (the exact set is the
    // category), matching how the paper reports a single κ per property.
    let set_label = |lures: &[Lure]| -> String {
        lures
            .iter()
            .map(|l| l.label())
            .collect::<Vec<_>>()
            .join("+")
    };
    let h1_lureset: Vec<String> = h1_lures.iter().map(|v| set_label(v)).collect();
    let h2_lureset: Vec<String> = h2_lures.iter().map(|v| set_label(v)).collect();
    let llm_lureset: Vec<String> = llm_lures.iter().map(|v| set_label(v)).collect();

    let human_human = KappaTriple {
        brands: cohen_kappa(&h1_brand, &h2_brand).unwrap_or(0.0),
        scam_types: cohen_kappa(&h1_scam, &h2_scam).unwrap_or(0.0),
        lures: cohen_kappa(&h1_lureset, &h2_lureset).unwrap_or(0.0),
    };

    // Consensus: where humans agree take that label; where they disagree,
    // the discussion resolves to annotator 1's choice (a deterministic
    // stand-in for the paper's consensus meetings).
    let cons_scam: Vec<ScamType> = h1_scam.clone();
    let cons_brand: Vec<String> = h1_brand.clone();
    let cons_lures: Vec<Vec<Lure>> = h1_lures.clone();

    let cons_lureset: Vec<String> = cons_lures.iter().map(|v| set_label(v)).collect();
    let llm_consensus = KappaTriple {
        brands: cohen_kappa(&llm_brand, &cons_brand).unwrap_or(0.0),
        scam_types: cohen_kappa(&llm_scam, &cons_scam).unwrap_or(0.0),
        lures: cohen_kappa(&llm_lureset, &cons_lureset).unwrap_or(0.0),
    };

    IrrStudy {
        n: sample.len(),
        human_human,
        llm_consensus,
    }
}

impl IrrStudy {
    /// Render the §3.4 summary.
    pub fn to_table(&self) -> TextTable {
        let mut t = TextTable::new(
            "§3.4: inter-rater reliability (Cohen's κ)",
            &["Comparison", "Brands", "Scam types", "Lures"],
        );
        let f = |k: f64| format!("{k:.2} ({})", AgreementLevel::of(k).phrase());
        t.row(&[
            "Human vs human".into(),
            f(self.human_human.brands),
            f(self.human_human.scam_types),
            f(self.human_human.lures),
        ]);
        t.row(&[
            "LLM vs consensus".into(),
            f(self.llm_consensus.brands),
            f(self.llm_consensus.scam_types),
            f(self.llm_consensus.lures),
        ]);
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::testfix;

    fn study() -> IrrStudy {
        irr_study(testfix::output(), 150, 0x1B4)
    }

    #[test]
    fn sample_size_matches_paper() {
        assert_eq!(study().n, 150);
    }

    #[test]
    fn human_human_agreement_bands() {
        // Paper: brands 0.82, scam types 0.94, lures 0.85.
        let k = study().human_human;
        assert!((0.70..1.0).contains(&k.brands), "brands {}", k.brands);
        assert!((0.85..1.0).contains(&k.scam_types), "scam {}", k.scam_types);
        assert!((0.70..1.0).contains(&k.lures), "lures {}", k.lures);
        assert_eq!(
            AgreementLevel::of(k.scam_types),
            AgreementLevel::NearPerfect
        );
    }

    #[test]
    fn llm_agreement_bands() {
        // Paper: brands 0.85, scam types 0.93, lures 0.70 — scam/brand
        // near-perfect, lures weaker.
        let k = study().llm_consensus;
        assert!((0.60..1.0).contains(&k.brands), "brands {}", k.brands);
        assert!((0.75..1.0).contains(&k.scam_types), "scam {}", k.scam_types);
        assert!((0.45..1.0).contains(&k.lures), "lures {}", k.lures);
        assert!(
            k.lures <= k.scam_types,
            "lure agreement is the weakest property (paper: 0.70 vs 0.93)"
        );
    }

    #[test]
    fn determinism() {
        let a = irr_study(testfix::output(), 150, 9);
        let b = irr_study(testfix::output(), 150, 9);
        assert_eq!(a.human_human, b.human_human);
        assert_eq!(a.llm_consensus, b.llm_consensus);
    }

    #[test]
    fn table_renders() {
        assert_eq!(study().to_table().len(), 2);
    }
}
