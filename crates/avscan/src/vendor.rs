//! AV vendor models and the latent detectability of a URL.
//!
//! "Different providers build their blocklists in different ways" (§4.7).
//! Each vendor here has a coverage coefficient (how aggressively it ingests
//! phishing feeds) and a suspicious-flag rate; whether a given vendor flags
//! a given URL is a stable hash draw, so scans are reproducible.

use smishing_types::{fnv1a, FNV_PRIME};

/// One antivirus vendor on the aggregator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AvVendor {
    /// Vendor display name.
    pub name: &'static str,
    /// Probability of flagging a fully-detectable URL as malicious.
    pub coverage: f64,
    /// Probability of flagging a fully-detectable URL as suspicious
    /// (instead of malicious).
    pub suspicious_rate: f64,
}

const fn v(name: &'static str, coverage: f64, suspicious_rate: f64) -> AvVendor {
    AvVendor {
        name,
        coverage,
        suspicious_rate,
    }
}

/// The 70 vendors VirusTotal lists (§3.3.4). A handful of aggressive
/// phishing-focused engines carry most detections; the long tail rarely
/// flags mobile-ecosystem URLs — which is why "Malicious ≥ 15" is nearly
/// empty in Table 9.
pub const VENDORS: &[AvVendor] = &[
    // Aggressive phishing-feed consumers.
    v("Fortinet", 0.78, 0.10),
    v("Kaspersky", 0.72, 0.08),
    v("Sophos", 0.66, 0.09),
    v("BitDefender", 0.62, 0.07),
    v("ESET", 0.55, 0.06),
    v("Webroot", 0.50, 0.08),
    v("CRDF", 0.46, 0.05),
    v("PhishLabs", 0.42, 0.04),
    v("Netcraft", 0.38, 0.05),
    v("OpenPhish", 0.34, 0.02),
    v("PhishTank", 0.30, 0.02),
    v("Emsisoft", 0.26, 0.04),
    v("G-Data", 0.22, 0.04),
    v("Avira", 0.19, 0.05),
    v("Lionic", 0.16, 0.04),
    v("Seclookup", 0.13, 0.03),
    v("AlphaSOC", 0.11, 0.03),
    v("Trustwave", 0.10, 0.04),
    v("CyRadar", 0.09, 0.03),
    v("Forcepoint", 0.08, 0.05),
    // GSB's VT listing lags its own API (§4.7): modelled low.
    v("Google Safebrowsing", 0.035, 0.0),
    // The long tail: desktop-focused engines that rarely see smishing URLs.
    v("Abusix", 0.05, 0.02),
    v("ADMINUSLabs", 0.04, 0.02),
    v("AILabs", 0.04, 0.01),
    v("AlienVault", 0.05, 0.02),
    v("Antiy-AVL", 0.04, 0.02),
    v("ArcSight", 0.03, 0.01),
    v("AutoShun", 0.03, 0.01),
    v("Bkav", 0.02, 0.01),
    v("Certego", 0.04, 0.02),
    v("Chong Lua Dao", 0.03, 0.01),
    v("CINS Army", 0.02, 0.01),
    v("Cluster25", 0.03, 0.01),
    v("Criminal IP", 0.05, 0.03),
    v("CSIS", 0.03, 0.01),
    v("Cyan", 0.02, 0.01),
    v("Cyble", 0.05, 0.02),
    v("DNS8", 0.02, 0.01),
    v("Dr.Web", 0.05, 0.02),
    v("EmergingThreats", 0.05, 0.02),
    v("ESTsecurity", 0.03, 0.01),
    v("GreenSnow", 0.02, 0.01),
    v("Heimdal", 0.04, 0.02),
    v("IPsum", 0.02, 0.01),
    v("Juniper", 0.03, 0.01),
    v("K7", 0.03, 0.01),
    v("Lumu", 0.03, 0.01),
    v("MalwarePatrol", 0.04, 0.02),
    v("MalwareURL", 0.03, 0.01),
    v("Malwared", 0.02, 0.01),
    v("Mimecast", 0.04, 0.02),
    v("Netlab360", 0.02, 0.01),
    v("NotMining", 0.01, 0.01),
    v("Nucleon", 0.02, 0.01),
    v("PREBYTES", 0.03, 0.01),
    v("Quick Heal", 0.03, 0.02),
    v("Quttera", 0.04, 0.03),
    v("Rising", 0.02, 0.01),
    v("SafeToOpen", 0.03, 0.02),
    v("Sangfor", 0.02, 0.01),
    v("Scantitan", 0.02, 0.01),
    v("SCUMWARE", 0.02, 0.01),
    v("SecureBrain", 0.02, 0.01),
    v("SOCRadar", 0.04, 0.02),
    v("Spamhaus", 0.05, 0.01),
    v("StopForumSpam", 0.01, 0.01),
    v("Sucuri", 0.04, 0.02),
    v("ThreatHive", 0.02, 0.01),
    v("URLhaus", 0.05, 0.01),
    v("VX Vault", 0.02, 0.01),
];

/// Stable 64-bit hash of a string with a salt (FNV-1a).
pub(crate) fn hash64(s: &str, salt: u64) -> u64 {
    let h = fnv1a(salt.wrapping_mul(FNV_PRIME), s.bytes());
    h ^ (h >> 29)
}

pub(crate) fn unit(s: &str, salt: u64) -> f64 {
    (hash64(s, salt) >> 11) as f64 / (1u64 << 53) as f64
}

/// Latent detectability of a URL in `[0, 1]`.
///
/// ~45% of smishing URLs are invisible to the AV ecosystem (Table 9's
/// 0-malicious 0-suspicious row): short-lived links no feed ever saw. The
/// rest have a skewed visibility, so only prominent long-running campaigns
/// reach double-digit vendor counts.
pub fn detectability(url: &str, seed: u64) -> f64 {
    let d = unit(url, seed ^ 0xDE7EC7);
    if d < 0.42 {
        0.0
    } else {
        // Quadratic skew (most visible URLs are only mildly visible) over a
        // floor: once *any* feed saw the URL, the aggressive engines have a
        // real chance at it.
        let s = (d - 0.42) / 0.58;
        0.10 + 0.90 * s * s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// `hash64` as it was before it called `fnv1a`, verbatim.
    fn hash64_loop(s: &str, salt: u64) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325 ^ salt.wrapping_mul(0x100_0000_01b3);
        for b in s.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        h ^ (h >> 29)
    }

    proptest! {
        #[test]
        fn hash64_matches_its_former_loop(s in "\\PC{0,40}", salt in 0u64..u64::MAX) {
            prop_assert_eq!(hash64(&s, salt), hash64_loop(&s, salt));
        }
    }

    #[test]
    fn seventy_vendors() {
        assert_eq!(
            VENDORS.len(),
            70,
            "§3.3.4: over 70 AV vendors on VirusTotal"
        );
    }

    #[test]
    fn unique_vendor_names() {
        let mut names: Vec<_> = VENDORS.iter().map(|v| v.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), VENDORS.len());
    }

    #[test]
    fn coverage_in_unit_range() {
        for v in VENDORS {
            assert!((0.0..=1.0).contains(&v.coverage), "{}", v.name);
            assert!((0.0..=1.0).contains(&v.suspicious_rate), "{}", v.name);
        }
    }

    #[test]
    fn detectability_is_stable_and_bounded() {
        let d1 = detectability("https://evil.com/a", 1);
        let d2 = detectability("https://evil.com/a", 1);
        assert_eq!(d1, d2);
        for i in 0..1000 {
            let d = detectability(&format!("https://x{i}.com/"), 1);
            assert!((0.0..=1.0).contains(&d));
        }
    }

    #[test]
    fn about_forty_five_percent_invisible() {
        let n = 20_000;
        let zeros = (0..n)
            .filter(|i| detectability(&format!("https://u{i}.example/"), 7) == 0.0)
            .count();
        let frac = zeros as f64 / n as f64;
        assert!((0.38..0.47).contains(&frac), "{frac}");
    }
}
