//! The experiment registry: every table and figure of the paper, with
//! paper-expected shape checks (see DESIGN.md §3).

use crate::analysis::asn::asn_use;
use crate::analysis::av::av_detection;
use crate::analysis::brands::brands;
use crate::analysis::categories::categories;
use crate::analysis::countries::countries;
use crate::analysis::languages::languages;
use crate::analysis::lures::lures;
use crate::analysis::overview::{overview, twitter_by_year_table, twitter_years};
use crate::analysis::registrars::registrars;
use crate::analysis::sender_info::sender_info;
use crate::analysis::shorteners::shortener_use;
use crate::analysis::timestamps::send_times;
use crate::analysis::tlds::tld_use;
use crate::analysis::tls::tls_use;
use crate::analysis::{extraction, irr, methods};
use crate::casestudy;
use crate::pipeline::PipelineOutput;
use crate::table::TextTable;
use smishing_obs::Obs;
use smishing_types::{Language, Lure, ScamType};

/// One reproduced artifact.
#[derive(Debug, Clone)]
pub struct ExperimentResult {
    /// Experiment id (T1..T19, F2, F3, IRR, CUR).
    pub id: &'static str,
    /// What the paper reports.
    pub paper: &'static str,
    /// The regenerated table.
    pub table: TextTable,
    /// Shape checks: (description, passed).
    pub checks: Vec<(String, bool)>,
}

impl ExperimentResult {
    /// Whether every shape check passed.
    pub fn passed(&self) -> bool {
        self.checks.iter().all(|(_, ok)| *ok)
    }
}

fn check(desc: impl Into<String>, ok: bool) -> (String, bool) {
    (desc.into(), ok)
}

/// Time one analysis-module invocation under `analysis.<module>.wall_ns`.
/// With a no-op handle this is a direct call — not even the metric name is
/// formatted.
fn timed<T>(obs: &Obs, module: &str, f: impl FnOnce() -> T) -> T {
    if !obs.is_enabled() {
        return f();
    }
    let _span = obs.span(&format!("analysis.{module}.wall_ns"));
    f()
}

/// One table, rendered from a pipeline output.
pub type TableFn = fn(&PipelineOutput<'_>) -> TextTable;

/// Every table a pipeline output renders on its own, mid-stream or final,
/// under its [`run_all`] id: each one function of the output, which is
/// what `smish stream|watch` print. `F2` is Figure 2 with the burst
/// filter on, as `run_all` renders it.
pub const TABLES: &[(&str, TableFn)] = &[
    ("T1", |out| overview(out).to_table()),
    ("T3", |out| sender_info(out).number_types_table()),
    ("T4", |out| sender_info(out).operators_table()),
    ("T5", |out| shortener_use(out).to_table()),
    ("T6", |out| tld_use(out).to_table6()),
    ("T7", |out| tls_use(out).to_table()),
    ("T8", |out| asn_use(out).to_table()),
    ("T9", |out| av_detection(out).to_table9()),
    ("T10", |out| categories(out).to_table()),
    ("T11", |out| languages(out).to_table()),
    ("T12", |out| brands(out).to_table()),
    ("F2", |out| send_times(out, true).to_table()),
    ("T14", |out| countries(out).to_table()),
    ("F3", |out| countries(out).figure3_table()),
    ("T15", |out| twitter_by_year_table(&twitter_years(out))),
    ("T16", |out| tld_use(out).to_table16()),
    ("T17", |out| registrars(out).to_table()),
    ("T18", |out| av_detection(out).to_table18()),
    ("T13", |out| lures(out).to_table()),
];

/// The ids of [`run_all`]'s artifacts, in its order.
pub const IDS: &[&str] = &[
    "T1", "T2", "T3", "T4", "T5", "T6", "T16", "T7", "T8", "T9", "T18", "T10", "T11", "T12", "T13",
    "T14", "F3", "T15", "T17", "F2", "IRR", "CUR", "T19",
];

/// Run every experiment against a pipeline output, timing each
/// analysis-module invocation under its `analysis.<module>.wall_ns` span:
/// each span covers the module's whole pass over the output. Pass
/// [`Obs::noop`] for an unobserved run — every span short-circuits.
pub fn run_all(out: &PipelineOutput<'_>, obs: &Obs) -> Vec<ExperimentResult> {
    let _span = obs.span("analysis.run_all.wall_ns");
    let mut results = Vec::new();

    // ---- T1 ----
    let ov = timed(obs, "overview", || overview(out));
    let totals = ov.totals();
    let twitter = ov.rows[0];
    results.push(ExperimentResult {
        id: "T1",
        paper: "220,585 posts / 64,284 images / 33,869 messages; Twitter holds ~92% of messages; unique < total",
        checks: vec![
            check("Twitter dominates messages (>80%)", twitter.msgs_unique as f64 > totals.msgs_unique as f64 * 0.8),
            check("posts >> usable messages", totals.posts > totals.msgs_total * 3),
            check("unique below total everywhere", ov.rows.iter().all(|r| r.msgs_unique <= r.msgs_total)),
        ],
        table: ov.to_table(),
    });

    // ---- T2 ----
    results.push(ExperimentResult {
        id: "T2",
        paper: "metadata analysis uses Twitter/Reddit/Smishtank; active analysis uses Twitter only",
        checks: vec![
            check(
                "metadata sources = 3",
                methods::Method::Metadata.sources().len() == 3,
            ),
            check(
                "active source = Twitter",
                methods::Method::Active.sources() == vec![smishing_types::Forum::Twitter],
            ),
        ],
        table: timed(obs, "methods", methods::methods_table),
    });

    // ---- T3 / T4 ----
    let si = timed(obs, "sender_info", || sender_info(out));
    results.push(ExperimentResult {
        id: "T3",
        paper: "mobile 66.7%, bad format 24.3%, landline 3.8% of 12,299 phone senders",
        checks: vec![
            check(
                "Mobile is the top type",
                si.number_types.top_k(1)[0].0 == smishing_telecom::NumberType::Mobile,
            ),
            check(
                "Bad Format is second",
                si.number_types.top_k(2)[1].0 == smishing_telecom::NumberType::BadFormat,
            ),
            check(
                "landlines present (spoofing tell)",
                si.number_types.get(&smishing_telecom::NumberType::Landline) > 0,
            ),
        ],
        table: si.number_types_table(),
    });
    let voda_countries = si
        .operator_countries
        .iter()
        .find(|(o, _)| *o == "Vodafone")
        .map(|(_, s)| s.len())
        .unwrap_or(0);
    results.push(ExperimentResult {
        id: "T4",
        paper: "Vodafone tops Table 4 (13.3%, 18 countries), AirTel second (10.9%, 6 countries)",
        checks: vec![
            check("Vodafone is #1", si.operators.top_k(1)[0].0 == "Vodafone"),
            check(
                "AirTel in the operator head (top 6)",
                si.operators.top_k(6).iter().any(|(o, _)| *o == "AirTel"),
            ),
            check("Vodafone abused from most countries", voda_countries >= 4),
        ],
        table: si.operators_table(),
    });

    // ---- T5 ----
    let sh = timed(obs, "shorteners", || shortener_use(out));
    let isgd_b = sh
        .by_scam
        .get(&("is.gd", ScamType::Banking))
        .copied()
        .unwrap_or(0);
    let isgd_d = sh
        .by_scam
        .get(&("is.gd", ScamType::Delivery))
        .copied()
        .unwrap_or(0);
    results.push(ExperimentResult {
        id: "T5",
        paper:
            "bit.ly leads all scam types (30.6%); is.gd is banking-specific #2; wa.me links exist",
        checks: vec![
            check("bit.ly is #1", sh.services.top_k(1)[0].0 == "bit.ly"),
            check("is.gd skews to banking", isgd_b > isgd_d),
            check("wa.me conversation links found", sh.whatsapp_links > 0),
        ],
        table: sh.to_table(),
    });

    // ---- T6 / T16 ----
    let tld = timed(obs, "tlds", || tld_use(out));
    results.push(ExperimentResult {
        id: "T6",
        paper: ".com tops direct URLs (4,951); .ly tops shortened URLs (2,482)",
        checks: vec![
            check(
                ".com is top direct TLD",
                tld.smishing_tlds.top_k(1)[0].0 == "com",
            ),
            check(
                ".ly is top shortened TLD",
                tld.shortened_tlds.top_k(1)[0].0 == "ly",
            ),
            check(
                "web.app free hosting observed",
                tld.free_hosting_sites.get(&"web.app") > 0,
            ),
        ],
        table: tld.to_table6(),
    });
    let g = tld.classes.share(&smishing_webinfra::TldClass::Generic);
    let cc = tld.classes.share(&smishing_webinfra::TldClass::CountryCode);
    results.push(ExperimentResult {
        id: "T16",
        paper: "gTLDs 72.3% of URLs vs ccTLDs 27.1%; many distinct TLDs per class",
        checks: vec![
            check("gTLD share roughly 3x ccTLD share", g > cc * 1.8),
            check("both classes well-populated", g > 0.4 && cc > 0.05),
        ],
        table: tld.to_table16(),
    });

    // ---- T7 ----
    let tls_u = timed(obs, "tls", || tls_use(out));
    let le_ratio = tls_u.certs_per_ca.get(&"Let's Encrypt") as f64
        / tls_u.domains_per_ca.get(&"Let's Encrypt").max(1) as f64;
    let sec_ratio = tls_u.certs_per_ca.get(&"Sectigo") as f64
        / tls_u.domains_per_ca.get(&"Sectigo").max(1) as f64;
    results.push(ExperimentResult {
        id: "T7",
        paper: "Let's Encrypt tops certs (141,878) and domains (4,773); Sectigo: many domains, few certs; mean 39 >> median 4 certs/domain",
        checks: vec![
            check("Let's Encrypt #1 by certs", tls_u.certs_per_ca.top_k(1)[0].0 == "Let's Encrypt"),
            check("Let's Encrypt #1 by domains", tls_u.domains_per_ca.top_k(1)[0].0 == "Let's Encrypt"),
            check("90-day validity inflates LE certs/domain vs Sectigo", le_ratio > sec_ratio * 2.0),
            check("mean certs/domain exceeds median (skew)", tls_u.mean_certs() > tls_u.median_certs() * 1.3),
        ],
        table: tls_u.to_table(),
    });

    // ---- T8 ----
    let asn_u = timed(obs, "asn", || asn_use(out));
    let top_orgs: Vec<&str> = asn_u
        .ips_per_org
        .sorted()
        .into_iter()
        .map(|(o, _)| o)
        .filter(|o| *o != "Cloudflare")
        .take(6)
        .collect();
    results.push(ExperimentResult {
        id: "T8",
        paper: "Cloudflare proxies 18.8% of resolving domains; Amazon/Akamai/Google lead hosting; bulletproof hosts present",
        checks: vec![
            check("Cloudflare fronts 8-35% of resolving domains", (0.08..0.35).contains(&asn_u.cloudflare_domain_share)),
            check("big clouds lead Table 8", top_orgs.contains(&"Amazon") || top_orgs.contains(&"Akamai")),
            check("bulletproof hosting present but minority", asn_u.bulletproof_domains > 0 && asn_u.bulletproof_domains * 2 < asn_u.resolving_domains.max(1)),
        ],
        table: asn_u.to_table(),
    });

    // ---- T9 / T18 ----
    let avd = timed(obs, "av", || av_detection(out));
    let n = avd.vt.n.max(1) as f64;
    results.push(ExperimentResult {
        id: "T9",
        paper: "44.9% clean; 49.6% >=1 malicious; only 0.3% >=15; suspicious >=1 18%",
        checks: vec![
            check(
                "roughly half the URLs flagged by someone",
                (0.35..0.65).contains(&(avd.vt.mal_ge[0] as f64 / n)),
            ),
            check(
                "almost none flagged by >=15 vendors",
                (avd.vt.mal_ge[4] as f64 / n) < 0.03,
            ),
            check(
                "clean fraction near 45%",
                (0.30..0.60).contains(&(avd.vt.clean as f64 / n)),
            ),
        ],
        table: avd.to_table9(),
    });
    results.push(ExperimentResult {
        id: "T18",
        paper: "GSB API 1.0% vs on-VT 1.6% vs transparency 4.0% unsafe; 50.1% not queryable",
        checks: vec![
            check(
                "GSB's three views disagree (API < VT-listed)",
                avd.gsb.vt_listed_unsafe > avd.gsb.api_unsafe,
            ),
            check(
                "transparency flags more than the API",
                avd.gsb.transparency[0] > avd.gsb.api_unsafe,
            ),
            check(
                "about half not queryable",
                (0.40..0.60).contains(&(avd.gsb.transparency[4] as f64 / avd.gsb.n.max(1) as f64)),
            ),
        ],
        table: avd.to_table18(),
    });

    // ---- T10 ----
    let cats = timed(obs, "categories", || categories(out));
    results.push(ExperimentResult {
        id: "T10",
        paper: "banking 45.1% > others 20.6% > delivery 11.3% > government 9.6% > telecom 6.6%; spam 5% leaks in",
        checks: vec![
            check("banking is the top category", cats.counts.top_k(1)[0].0 == ScamType::Banking),
            check("banking share 33-58%", (0.33..0.58).contains(&cats.counts.share(&ScamType::Banking))),
            check("delivery > telecom", cats.counts.get(&ScamType::Delivery) > cats.counts.get(&ScamType::Telecom)),
            check("spam present but small", cats.counts.get(&ScamType::Spam) > 0 && cats.counts.share(&ScamType::Spam) < 0.12),
        ],
        table: cats.to_table(),
    });

    // ---- T11 ----
    let langs = timed(obs, "languages", || languages(out));
    results.push(ExperimentResult {
        id: "T11",
        paper: "English 65.2%, Spanish 13.7%, Dutch 5.7%; 66 languages observed; Dutch >> Mandarin despite speaker counts",
        checks: vec![
            check("English dominates (50-82%)", (0.50..0.82).contains(&langs.counts.share(&Language::English))),
            check("Dutch beats Mandarin (platform bias)", langs.counts.get(&Language::Dutch) > langs.counts.get(&Language::Mandarin)),
            check("long tail: 35+ languages observed", langs.distinct() >= 35),
        ],
        table: langs.to_table(),
    });

    // ---- T12 ----
    let br = timed(obs, "brands", || brands(out));
    results.push(ExperimentResult {
        id: "T12",
        paper: "SBI tops Table 12 (11.6%); banks dominate; Amazon/Netflix appear as Others",
        checks: vec![
            check(
                "SBI is the most impersonated brand",
                br.counts.top_k(1).first().map(|(b, _)| b.as_str()) == Some("State Bank of India"),
            ),
            check(
                "tech brands reach the top 20",
                br.counts
                    .top_k(20)
                    .iter()
                    .any(|(b, _)| b == "Amazon" || b == "Netflix" || b == "PayPal"),
            ),
        ],
        table: br.to_table(),
    });

    // ---- T13 ----
    let lu = timed(obs, "lures", || lures(out));
    results.push(ExperimentResult {
        id: "T13",
        paper: "urgency everywhere except Wrong-number; authority for institutional scams; kindness/distraction for conversation scams; dishonesty 0.5% / herd 1.2%",
        checks: vec![
            check("urgency marks banking but not wrong-number",
                lu.is_characteristic(ScamType::Banking, Lure::TimeUrgency)
                    && !lu.is_characteristic(ScamType::WrongNumber, Lure::TimeUrgency)),
            check("kindness marks hey-mum/dad", lu.is_characteristic(ScamType::HeyMumDad, Lure::Kindness)),
            check("dishonesty is the rarest lure", lu.share(Lure::Dishonesty) < 0.05),
        ],
        table: lu.to_table(),
    });

    // ---- T14 / F3 ----
    let co = timed(obs, "countries", || countries(out));
    let india_mix = co.scam_mix.get(&smishing_types::Country::India);
    let us_mix = co.scam_mix.get(&smishing_types::Country::UnitedStates);
    results.push(ExperimentResult {
        id: "T14",
        paper: "India tops origin countries (2,722), US second (1,369); Spain's live rate is unusually high",
        checks: vec![
            check("India #1", co.all.top_k(1)[0].0 == smishing_types::Country::India),
            check("US #2", co.all.top_k(2)[1].0 == smishing_types::Country::UnitedStates),
            check("live <= all everywhere", co.all.top_k(10).iter().all(|(c, a)| co.live.get(c) <= *a)),
        ],
        table: co.to_table(),
    });
    results.push(ExperimentResult {
        id: "F3",
        paper: "India's mix is banking-heavy; the US and Indonesia lean to Others",
        checks: vec![
            check(
                "India is banking-heavy (>50%)",
                india_mix
                    .map(|m| m.share(&ScamType::Banking) > 0.5)
                    .unwrap_or(false),
            ),
            check(
                "US leans to Others more than India",
                match (us_mix, india_mix) {
                    (Some(us), Some(ind)) => {
                        us.share(&ScamType::Others) > ind.share(&ScamType::Others)
                    }
                    _ => false,
                },
            ),
        ],
        table: co.figure3_table(),
    });

    // ---- T15 ----
    let years = timed(obs, "twitter_years", || twitter_years(out));
    results.push(ExperimentResult {
        id: "T15",
        paper: "Twitter volume grows from 6,345 (2017) to >50k/yr (2022-23)",
        checks: vec![
            check("at least 6 years covered", years.len() >= 6),
            check(
                "last year > first year",
                years.last().map(|l| l.1).unwrap_or(0)
                    > years.first().map(|f| f.1).unwrap_or(usize::MAX),
            ),
        ],
        table: twitter_by_year_table(&years),
    });

    // ---- T17 ----
    let regs = timed(obs, "registrars", || registrars(out));
    let gname_gov_lift = regs.lift("Gname", ScamType::Government);
    results.push(ExperimentResult {
        id: "T17",
        paper: "GoDaddy #1 (464), NameCheap #2 (153); Gname preferred for government scams",
        checks: vec![
            check(
                "GoDaddy #1",
                regs.counts
                    .top_k(1)
                    .first()
                    .is_some_and(|t| t.0 == "GoDaddy"),
            ),
            check(
                "NameCheap #2",
                regs.counts
                    .top_k(2)
                    .get(1)
                    .is_some_and(|t| t.0 == "NameCheap"),
            ),
            check(
                "Gname strongly over-represented in government scams (lift > 2)",
                gname_gov_lift > 2.0,
            ),
        ],
        table: regs.to_table(),
    });

    // ---- F2 ----
    let st = timed(obs, "timestamps", || send_times(out, true));
    let significant = st
        .ks_matrix()
        .iter()
        .filter(|(_, _, r)| r.significant_at(0.05))
        .count();
    results.push(ExperimentResult {
        id: "F2",
        paper: "sends cluster 09:00-20:00; weekday medians 12:26-14:38; the Tue 11:34 2021 SBI burst is filtered; some KS pairs significant",
        checks: vec![
            check("working hours dominate", st.working_hours_share() > 0.65),
            check("SBI burst detected and removed", st.burst_removed.as_ref().is_some_and(|(l, _)| l.starts_with("Tuesday 11:34"))),
            check("some but not all weekday pairs differ (KS)", significant >= 1 && significant < st.ks_matrix().len()),
        ],
        table: st.to_table(),
    });

    // ---- IRR ----
    let study = timed(obs, "irr", || irr::irr_study(out, 150, 0x1B4));
    results.push(ExperimentResult {
        id: "IRR",
        paper: "human-human kappa: brands .82 / scam .94 / lures .85; LLM vs consensus: .85 / .93 / .70",
        checks: vec![
            check("human scam-type kappa near-perfect", study.human_human.scam_types > 0.85),
            check("human brand kappa >= 0.70", study.human_human.brands >= 0.70),
            check("LLM lure kappa is its weakest property", study.llm_consensus.lures <= study.llm_consensus.scam_types),
        ],
        table: study.to_table(),
    });

    // ---- CUR ----
    let cmp = timed(obs, "extraction", || {
        extraction::extractor_comparison(out, 400)
    });
    results.push(ExperimentResult {
        id: "CUR",
        paper: "naive OCR fails on themes and can't dismiss posters; Vision scrambles URLs; the LLM extractor recovers structured fields",
        checks: vec![
            check("LLM URL recovery > 70%", cmp.llm.url_exact > 0.70),
            check("Vision loses wrapped URLs", cmp.vision.url_exact < cmp.llm.url_exact - 0.5),
            check("naive OCR cannot discriminate posters", cmp.naive.discrimination < cmp.llm.discrimination),
        ],
        table: cmp.to_table(),
    });

    // ---- T19 ----
    let cs = timed(obs, "casestudy", || casestudy::case_study(out, 200, 0xCA5E));
    let named: Vec<&str> = cs
        .findings
        .iter()
        .filter_map(|f| f.family.as_deref())
        .collect();
    let smsspy = named.iter().filter(|f| **f == "SMSspy").count();
    results.push(ExperimentResult {
        id: "T19",
        paper: "200 sampled reports -> 145 URLs -> 18 APKs, none in AndroZoo, SMSspy dominant; 89 direct .apk URLs",
        checks: vec![
            check("APK droppers found", !cs.findings.is_empty()),
            check("none known to AndroZoo", cs.findings.iter().all(|f| !f.in_androzoo)),
            check("SMSspy is the plurality family", named.is_empty() || smsspy * 2 >= named.len()),
            check("direct .apk URLs in dataset", cs.direct_apk_urls > 0),
        ],
        table: cs.to_table(),
    });

    results
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::testfix;

    #[test]
    fn all_experiments_pass_their_shape_checks() {
        let results = run_all(testfix::output(), &Obs::noop());
        assert_eq!(results.len(), 23);
        let mut failures = Vec::new();
        for r in &results {
            for (desc, ok) in &r.checks {
                if !ok {
                    failures.push(format!("{}: {}", r.id, desc));
                }
            }
        }
        assert!(
            failures.is_empty(),
            "failed shape checks:\n{}",
            failures.join("\n")
        );
    }

    #[test]
    fn experiment_ids_are_unique() {
        let results = run_all(testfix::output(), &Obs::noop());
        let ids: Vec<&str> = results.iter().map(|r| r.id).collect();
        assert_eq!(ids, IDS);
        let mut unique = ids.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), ids.len());
    }

    #[test]
    fn tables_render_as_run_all_renders_them() {
        let out = testfix::output();
        let results = run_all(out, &Obs::noop());
        assert_eq!(TABLES.len(), 19);
        for (id, table) in TABLES {
            let artifact = results
                .iter()
                .find(|r| r.id == *id)
                .unwrap_or_else(|| panic!("{id} is not a run_all id"));
            assert_eq!(table(out).to_string(), artifact.table.to_string(), "{id}");
        }
    }
}
