//! VirusTotal vendor labels for submitted APKs (§3.3.5).
//!
//! "VirusTotal provides results for all AV scanners that use their naming
//! conventions, but they often mislabel samples." Each vendor renders the
//! family in its own house style, some return generic heuristics
//! ("Artemis", "Malicious"), and some misname the family entirely — the
//! chaos Euphony exists to clean up.

use crate::apk::ApkArtifact;
use smishing_types::{fnv1a, FNV_PRIME};

/// A (vendor, label) pair from a VT file report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VendorLabel {
    /// Scanner name.
    pub vendor: &'static str,
    /// Raw label string.
    pub label: String,
}

const STYLES: &[fn(&str) -> String] = &[
    |f| format!("Trojan.AndroidOS.{f}.a"),
    |f| format!("Andr.Banker.{}", f.to_uppercase()),
    |f| format!("Android/{f}.B!tr"),
    |f| format!("HEUR:Trojan-Spy.AndroidOS.{}.gen", f.to_lowercase()),
    |f| format!("TrojanSpy:Android/{f}.C"),
    |f| format!("Artemis!{f}"),
    |f| format!("{f} [Trj]"),
];

const VENDORS: &[&str] = &[
    "Kaspersky",
    "BitDefender",
    "Fortinet",
    "ESET",
    "Microsoft",
    "McAfee",
    "Avast",
    "Sophos",
    "DrWeb",
    "Tencent",
    "Ikarus",
    "K7GW",
    "Zillya",
    "Cynet",
    "SymantecMobile",
    "TrendMicro",
    "Avira",
    "Lionic",
    "AhnLab",
    "FSecure",
    "Jiangmin",
    "NANO",
];

const GENERIC_LABELS: &[&str] = &[
    "Malicious.High.Confidence",
    "Android.Riskware.Generic",
    "Trojan.Generic.D4C1",
    "Artemis!Generic",
    "UDS:DangerousObject.Multi.Generic",
];

fn hash(s: &str, salt: u64) -> u64 {
    let h = fnv1a(salt.wrapping_mul(FNV_PRIME), s.bytes());
    h ^ (h >> 31)
}

/// Generate the vendor labels VT would show for an APK.
///
/// Deterministic from the artifact's hash: ~60% of vendors detect; of
/// those, most name the true family in a house style, some go generic, and
/// a couple misname it.
pub fn generate_vendor_labels(apk: &ApkArtifact, seed: u64) -> Vec<VendorLabel> {
    let mut out = Vec::new();
    let wrong_families = ["Agent", "Boxer", "FakeInst", "Hiddad"];
    for (i, vendor) in VENDORS.iter().enumerate() {
        let h = hash(&apk.sha256, seed.wrapping_add(i as u64));
        let roll = (h % 1000) as f64 / 1000.0;
        if roll > 0.62 {
            continue; // vendor does not flag the sample
        }
        let label = if roll < 0.40 {
            // House-styled true family.
            let style = STYLES[(h >> 10) as usize % STYLES.len()];
            style(apk.true_family)
        } else if roll < 0.54 {
            // Generic heuristic label.
            GENERIC_LABELS[(h >> 10) as usize % GENERIC_LABELS.len()].to_string()
        } else {
            // Mislabeled family (§3.3.5: "they often mislabel samples").
            let wrong = wrong_families[(h >> 10) as usize % wrong_families.len()];
            format!("Trojan.AndroidOS.{wrong}.b")
        };
        out.push(VendorLabel { vendor, label });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// `hash` as it was before it called `fnv1a`, verbatim.
    fn hash_loop(s: &str, salt: u64) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325 ^ salt.wrapping_mul(0x100_0000_01b3);
        for b in s.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        h ^ (h >> 31)
    }

    proptest! {
        #[test]
        fn hash_matches_its_former_loop(s in "\\PC{0,40}", salt in 0u64..u64::MAX) {
            prop_assert_eq!(hash(&s, salt), hash_loop(&s, salt));
        }
    }

    fn apk(i: u8) -> ApkArtifact {
        ApkArtifact::new("s1.apk", format!("{:02x}", i).repeat(32), "SMSspy")
    }

    #[test]
    fn labels_are_deterministic() {
        let a = generate_vendor_labels(&apk(1), 7);
        let b = generate_vendor_labels(&apk(1), 7);
        assert_eq!(a, b);
    }

    #[test]
    fn majority_styles_carry_true_family() {
        let mut family_hits = 0;
        let mut total = 0;
        for i in 0..40 {
            for l in generate_vendor_labels(&apk(i), 7) {
                total += 1;
                if l.label.to_lowercase().contains("smsspy") {
                    family_hits += 1;
                }
            }
        }
        assert!(total > 200, "{total}");
        let frac = family_hits as f64 / total as f64;
        assert!((0.45..0.85).contains(&frac), "{frac}");
    }

    #[test]
    fn some_vendors_mislabel_or_go_generic() {
        let mut saw_generic = false;
        let mut saw_wrong = false;
        for i in 0..40 {
            for l in generate_vendor_labels(&apk(i), 7) {
                if l.label.contains("Generic") || l.label.contains("DangerousObject") {
                    saw_generic = true;
                }
                if ["Agent", "Boxer", "FakeInst", "Hiddad"]
                    .iter()
                    .any(|w| l.label.contains(w))
                {
                    saw_wrong = true;
                }
            }
        }
        assert!(saw_generic && saw_wrong);
    }
}
