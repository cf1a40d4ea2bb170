//! Property-based tests over URL parsing, TLD logic and the service
//! simulators.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use smishing_types::UnixTime;
use smishing_webinfra::{
    ca_policy, encode_host, fold_host, parse_url, refang, registrable_domain, tld_of, AsnDb, CtLog,
    PassiveDns, ShortLinkDb, ShortenerCatalog, TldDb, WhoisDb, CA_POLICIES,
};

/// ASCII letters and their Cyrillic look-alikes, which `fold_host` folds
/// back.
const LOOK_ALIKES: (&str, &str) = ("aeopcxyisjhdqw", "аеорсхуіѕјһԁԛԝ");

proptest! {
    #[test]
    fn url_machinery_never_panics(
        s in "\\PC{0,100}",
        ace in "((xn|XN)--(\\PC{0,12}|[a-z0-9-]{0,24})\\.){1,3}[a-z]{0,6}",
    ) {
        for s in [&s, &ace] {
            let _ = parse_url(s);
            let _ = refang(s);
            let _ = registrable_domain(s);
            let _ = tld_of(s);
            let _ = TldDb::global().classify(s);
            let _ = fold_host(s);
        }
    }

    #[test]
    fn respelled_hosts_fold_alike_in_unicode_and_ace(
        labels in prop::collection::vec("[a-z0-9]{1,12}", 1..4),
        respell in 0u64..u64::MAX,
        tld in prop::sample::select(vec!["com", "info", "xyz", "co.uk"]),
    ) {
        // Swap the letters whose bit of `respell` is set for their
        // Cyrillic look-alikes.
        let ascii = format!("{}.{tld}", labels.join("."));
        let unicode: String = ascii
            .chars()
            .enumerate()
            .map(|(i, c)| match LOOK_ALIKES.0.find(c) {
                Some(at) if respell >> (i % 64) & 1 == 1 => {
                    LOOK_ALIKES.1.chars().nth(at).expect("one look-alike per letter")
                }
                _ => c,
            })
            .collect();
        let ace = encode_host(&unicode).expect("every label encodes");
        prop_assert_eq!(fold_host(&unicode), ascii.clone());
        prop_assert_eq!(fold_host(&ace), ascii);
    }

    #[test]
    fn canonical_urls_are_fixed_points(
        label in "[a-z][a-z0-9-]{0,12}[a-z0-9]",
        tld in prop::sample::select(vec!["com", "info", "xyz", "co", "in", "ly"]),
        path in "(/[a-z0-9]{1,8}){0,2}",
    ) {
        let url = format!("https://{label}.{tld}{path}");
        let once = parse_url(&url).expect("well-formed");
        prop_assert_eq!(once.to_url_string(), url);
    }

    #[test]
    fn registrable_is_suffix_of_host(
        sub in "[a-z]{1,6}",
        label in "[a-z]{2,10}",
        tld in prop::sample::select(vec!["com", "co.uk", "in", "web.app"]),
    ) {
        let host = format!("{sub}.{label}.{tld}");
        if let Some(reg) = registrable_domain(&host) {
            prop_assert!(host.ends_with(&reg), "{} does not end with {}", host, reg);
            prop_assert!(reg.len() <= host.len());
        }
    }

    #[test]
    fn shortlink_lifecycle_is_monotone(created in 0i64..1_000_000, life in 1i64..1_000_000, probe in 0i64..3_000_000) {
        let db = ShortLinkDb::new();
        db.register("bit.ly", "abc", "https://x.example.com/", UnixTime(created), Some(life));
        let u = parse_url("bit.ly/abc").unwrap();
        use smishing_webinfra::ExpandResult::*;
        match db.expand(&u, UnixTime(probe)) {
            NotFound => prop_assert!(probe < created),
            Active(_) => prop_assert!(probe >= created && probe < created + life),
            TakenDown => prop_assert!(probe >= created + life),
        }
    }

    #[test]
    fn ct_provisioning_cert_counts_scale_with_window(days in 1i64..720) {
        let log = CtLog::new();
        let le = ca_policy("Let's Encrypt").unwrap();
        let n = log.provision("p.com", &le, UnixTime(0), UnixTime(days * 86_400));
        // ~one cert per 83 days, plus the initial one.
        let expected = 1 + (days / 83) as usize;
        prop_assert!(n >= expected.saturating_sub(1) && n <= expected + 1, "{n} vs {expected}");
    }

    #[test]
    fn asn_allocation_always_reverses(seed in 0u64..300, org_idx in 0usize..16) {
        let db = AsnDb::new();
        let orgs: Vec<_> = db.orgs().collect();
        let org = orgs[org_idx % orgs.len()];
        let mut rng = StdRng::seed_from_u64(seed);
        let ip = db.allocate_ip(org.org, &mut rng).unwrap();
        let info = db.lookup(ip).unwrap();
        prop_assert_eq!(info.record.org, org.org);
    }

    #[test]
    fn pdns_window_is_exact(first in 0i64..1000, len in 0i64..1000, now in 0i64..3000) {
        let pdns = PassiveDns::new();
        let ip = std::net::Ipv4Addr::new(104, 16, 0, 1);
        let (f, l) = (first * 86_400, (first + len) * 86_400);
        pdns.record("w.com", ip, UnixTime(f), UnixTime(l));
        let hits = pdns.query("w.com", UnixTime(now * 86_400));
        let now_s = now * 86_400;
        let in_window = l >= now_s - 365 * 86_400 && f <= now_s;
        prop_assert_eq!(hits.len() == 1, in_window);
    }

    #[test]
    fn whois_is_case_insensitive(label in "[a-zA-Z]{3,10}") {
        let db = WhoisDb::new();
        let dom = format!("{label}.com");
        db.register(&dom, "GoDaddy", UnixTime(0), 365);
        prop_assert!(db.query(&dom.to_uppercase()).is_some());
        prop_assert!(db.query(&dom.to_lowercase()).is_some());
    }
}

#[test]
fn catalogs_are_internally_consistent() {
    // Every shortener host parses as a URL host; every CA has positive
    // validity.
    let cat = ShortenerCatalog::new();
    assert_eq!(cat.len(), 33);
    for ca in CA_POLICIES {
        assert!(ca.validity_days > 0);
    }
    for host in smishing_webinfra::shortener::SHORTENER_HOSTS {
        assert!(parse_url(&format!("https://{host}/x")).is_some(), "{host}");
    }
}
