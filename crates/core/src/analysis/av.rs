//! Tables 9 and 18: antivirus detection of smishing URLs (§4.7).

use crate::enrich::{EnrichedRecord, MissingField};
use crate::table::{count_pct, TextTable};
use smishing_avscan::TransparencyVerdict;
use smishing_stats::FirstClaim;

/// VirusTotal threshold rows (Table 9).
#[derive(Debug, Clone, Copy, Default)]
pub struct VtThresholds {
    /// URLs scanned.
    pub n: usize,
    /// Clean: no malicious, no suspicious.
    pub clean: usize,
    /// Malicious ≥ 1 / 3 / 5 / 10 / 15.
    pub mal_ge: [usize; 5],
    /// Suspicious ≥ 1 / 3 / 5.
    pub susp_ge: [usize; 3],
}

/// GSB verdict counts (Table 18).
#[derive(Debug, Clone, Copy, Default)]
pub struct GsbCounts {
    /// URLs checked.
    pub n: usize,
    /// Unsafe per the public API.
    pub api_unsafe: usize,
    /// GSB-on-VirusTotal unsafe.
    pub vt_listed_unsafe: usize,
    /// Transparency website: unsafe / partially / undetected / no-data /
    /// not-queried.
    pub transparency: [usize; 5],
}

/// AV measurements over unique URLs.
#[derive(Debug, Clone, Copy)]
pub struct AvDetection {
    /// Table 9.
    pub vt: VtThresholds,
    /// Table 18.
    pub gsb: GsbCounts,
    /// URLs whose VirusTotal scan failed after retries — excluded from
    /// the Table 9 tallies rather than miscounted as clean.
    pub vt_unresolved: usize,
    /// URLs with incomplete GSB coverage (any of the three views failed)
    /// — excluded from the Table 18 tallies.
    pub gsb_unresolved: usize,
}

/// The AV verdicts one record would contribute for its unique URL.
#[derive(Debug, Clone, Copy)]
struct AvClaim {
    clean: bool,
    malicious: u32,
    suspicious: u32,
    gsb_api_unsafe: bool,
    gsb_vt_listed: bool,
    transparency: TransparencyVerdict,
    vt_missing: bool,
    gsb_missing: bool,
}

/// Tables 9 and 18 AV detection stats: per-URL first-claims folded at
/// finish.
#[derive(Debug, Clone, Default)]
pub struct AvAcc {
    claims: FirstClaim<String, AvClaim>,
}

impl AvAcc {
    /// New empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fold in one unique record.
    pub fn add_record(&mut self, r: &EnrichedRecord) {
        let Some(url) = &r.url else { return };
        self.claims.add(
            url.parsed.to_url_string(),
            r.curated.post_id.0,
            AvClaim {
                clean: url.vt.is_clean(),
                malicious: url.vt.malicious,
                suspicious: url.vt.suspicious,
                gsb_api_unsafe: url.gsb_api_unsafe,
                gsb_vt_listed: url.gsb_vt_listed,
                transparency: url.gsb_transparency,
                vt_missing: r.is_missing(MissingField::VirusTotal),
                gsb_missing: r.is_missing(MissingField::GsbApi)
                    || r.is_missing(MissingField::GsbTransparency)
                    || r.is_missing(MissingField::GsbVtListing),
            },
        );
    }

    /// Absorb another shard's accumulator.
    pub fn merge(&mut self, other: AvAcc) {
        self.claims.merge(other.claims);
    }

    /// Produce the batch result.
    pub fn finish(&self) -> AvDetection {
        let mut vt = VtThresholds::default();
        let mut gsb = GsbCounts::default();
        let mut vt_unresolved = 0;
        let mut gsb_unresolved = 0;
        for (_, _, claim) in self.claims.winners() {
            if claim.vt_missing {
                vt_unresolved += 1;
            } else {
                vt.n += 1;
                if claim.clean {
                    vt.clean += 1;
                }
                for (i, th) in [1, 3, 5, 10, 15].into_iter().enumerate() {
                    if claim.malicious >= th {
                        vt.mal_ge[i] += 1;
                    }
                }
                for (i, th) in [1, 3, 5].into_iter().enumerate() {
                    if claim.suspicious >= th {
                        vt.susp_ge[i] += 1;
                    }
                }
            }
            if claim.gsb_missing {
                gsb_unresolved += 1;
            } else {
                gsb.n += 1;
                if claim.gsb_api_unsafe {
                    gsb.api_unsafe += 1;
                }
                if claim.gsb_vt_listed {
                    gsb.vt_listed_unsafe += 1;
                }
                let idx = match claim.transparency {
                    TransparencyVerdict::Unsafe => 0,
                    TransparencyVerdict::PartiallyUnsafe => 1,
                    TransparencyVerdict::Undetected => 2,
                    TransparencyVerdict::NoData => 3,
                    TransparencyVerdict::NotQueried => 4,
                };
                gsb.transparency[idx] += 1;
            }
        }
        AvDetection {
            vt,
            gsb,
            vt_unresolved,
            gsb_unresolved,
        }
    }
}

impl AvDetection {
    /// Render Table 9.
    pub fn to_table9(&self) -> TextTable {
        let mut t = TextTable::new(
            "Table 9: VirusTotal detection results for smishing URLs",
            &["VirusTotal results", "URLs"],
        );
        let n = self.vt.n as u64;
        t.row(&[
            "Malicious = 0 and Suspicious = 0".into(),
            count_pct(self.vt.clean as u64, n),
        ]);
        for (i, th) in [1, 3, 5, 10, 15].into_iter().enumerate() {
            t.row(&[
                format!("Malicious >= {th}"),
                count_pct(self.vt.mal_ge[i] as u64, n),
            ]);
        }
        for (i, th) in [1, 3, 5].into_iter().enumerate() {
            t.row(&[
                format!("Suspicious >= {th}"),
                count_pct(self.vt.susp_ge[i] as u64, n),
            ]);
        }
        if self.vt_unresolved > 0 {
            t.row(&["(unresolved)".into(), self.vt_unresolved.to_string()]);
        }
        t
    }

    /// Render Table 18.
    pub fn to_table18(&self) -> TextTable {
        let mut t = TextTable::new(
            "Table 18: Google Safe Browsing results (three views)",
            &[
                "View",
                "Unsafe",
                "Partially",
                "Undetected",
                "No data",
                "Not queried",
            ],
        );
        let n = self.gsb.n as u64;
        t.row(&[
            "API".into(),
            count_pct(self.gsb.api_unsafe as u64, n),
            "-".into(),
            count_pct((self.gsb.n - self.gsb.api_unsafe) as u64, n),
            "-".into(),
            "-".into(),
        ]);
        let tr = self.gsb.transparency;
        t.row(&[
            "Transparency Report".into(),
            count_pct(tr[0] as u64, n),
            count_pct(tr[1] as u64, n),
            count_pct(tr[2] as u64, n),
            count_pct(tr[3] as u64, n),
            count_pct(tr[4] as u64, n),
        ]);
        t.row(&[
            "on VirusTotal".into(),
            count_pct(self.gsb.vt_listed_unsafe as u64, n),
            "-".into(),
            count_pct((self.gsb.n - self.gsb.vt_listed_unsafe) as u64, n),
            "-".into(),
            "-".into(),
        ]);
        if self.gsb_unresolved > 0 {
            t.row(&[
                "(unresolved)".into(),
                self.gsb_unresolved.to_string(),
                "-".into(),
                "-".into(),
                "-".into(),
                "-".into(),
            ]);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use crate::analysis::testfix;

    #[test]
    fn table9_shape() {
        let av = testfix::output().accs.av.finish();
        let n = av.vt.n as f64;
        assert!(n > 400.0, "{n}");
        let clean = av.vt.clean as f64 / n;
        let m1 = av.vt.mal_ge[0] as f64 / n;
        let m15 = av.vt.mal_ge[4] as f64 / n;
        // Paper: 44.9% clean, 49.6% ≥1, 0.3% ≥15.
        assert!((0.30..0.60).contains(&clean), "clean {clean}");
        assert!((0.35..0.65).contains(&m1), "m1 {m1}");
        assert!(m15 < 0.03, "m15 {m15}");
        // Monotone decreasing thresholds.
        for w in av.vt.mal_ge.windows(2) {
            assert!(w[0] >= w[1]);
        }
        assert!(av.vt.susp_ge[2] <= av.vt.susp_ge[0]);
    }

    #[test]
    fn table18_inconsistencies() {
        let av = testfix::output().accs.av.finish();
        let n = av.gsb.n as f64;
        let api = av.gsb.api_unsafe as f64 / n;
        let vt = av.gsb.vt_listed_unsafe as f64 / n;
        let not_queried = av.gsb.transparency[4] as f64 / n;
        // Paper: API 1%, VT-listed 1.6%, not-queried 50.1%.
        assert!(api < 0.05, "api {api}");
        assert!(vt > api, "VT listing exceeds the live API");
        assert!((0.40..0.60).contains(&not_queried), "{not_queried}");
        // The transparency site flags more than the API (8.1% vs 1%).
        let transparency_unsafe = av.gsb.transparency[0] as f64 / n;
        assert!(transparency_unsafe > api, "{transparency_unsafe} vs {api}");
    }

    #[test]
    fn tables_render() {
        let av = testfix::output().accs.av.finish();
        assert_eq!(av.to_table9().len(), 9);
        assert_eq!(av.to_table18().len(), 3);
    }
}
