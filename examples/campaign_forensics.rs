//! Campaign forensics (RQ1): pick the most-reported brand and build an
//! infrastructure dossier for its campaigns — domains, registrars, TLS
//! issuance history, hosting ASes, shortener usage, AV coverage.
//!
//! Everything here uses only what the pipeline collected plus the external
//! service interfaces (WHOIS, CT logs, passive DNS, VirusTotal) — exactly
//! the workflow of §4.
//!
//! ```sh
//! cargo run --release --example campaign_forensics [brand]
//! ```

use smishing::core::analysis::{brands::brands, timestamps::send_times};
use smishing::core::enrich::EnrichedRecord;
use smishing::prelude::*;
use smishing::stats::Counter;
use std::sync::Arc;

fn main() {
    let world = World::generate(WorldConfig {
        scale: 0.08,
        ..WorldConfig::default()
    });
    let output = Pipeline::default().run(&world, &Obs::noop());

    // Target brand: CLI arg, or the most-impersonated one.
    let brand = std::env::args().nth(1).unwrap_or_else(|| {
        brands(&output)
            .counts
            .top_k(1)
            .first()
            .map(|(b, _)| b.clone())
            .unwrap_or_default()
    });
    println!("=== Infrastructure dossier: {brand} ===\n");

    let records: Vec<&EnrichedRecord> = output
        .records
        .iter()
        .map(Arc::as_ref)
        .filter(|r| r.annotation.brand.as_deref() == Some(brand.as_str()))
        .collect();
    println!("{} unique messages impersonate {brand}\n", records.len());

    // Sender infrastructure.
    let mut operators: Counter<&str> = Counter::new();
    let mut countries: Counter<&str> = Counter::new();
    let mut kinds: Counter<SenderKind> = Counter::new();
    for r in &records {
        if let Some(s) = &r.sender {
            kinds.add(s.kind());
        }
        if let Some(h) = &r.hlr {
            if let Some(op) = h.original_operator {
                operators.add(op);
            }
            if let Some(c) = h.origin_country {
                countries.add(c.alpha3());
            }
        }
    }
    println!("-- Sender side --");
    println!("sender kinds:    {:?}", kinds.sorted());
    println!("top operators:   {:?}", operators.top_k(5));
    println!("origin countries:{:?}\n", countries.top_k(5));

    // Web infrastructure.
    let mut domains: Counter<String> = Counter::new();
    let mut registrars: Counter<&str> = Counter::new();
    let mut cas: Counter<&str> = Counter::new();
    let mut orgs: Counter<&str> = Counter::new();
    let mut shorteners: Counter<&str> = Counter::new();
    let mut flagged = 0usize;
    let mut urls = 0usize;
    for r in &records {
        let Some(u) = &r.url else { continue };
        urls += 1;
        if u.vt.malicious >= 1 {
            flagged += 1;
        }
        if let Some(s) = u.shortener {
            shorteners.add(s);
        }
        if let Some(d) = &u.domain {
            domains.add(d.clone());
        }
        if let Some(reg) = u.registrar {
            registrars.add(reg);
        }
        for cert in &u.certs {
            cas.add(cert.issuer);
        }
        for (_, info) in &u.resolutions {
            if let Some(i) = info {
                orgs.add(i.record.org);
            }
        }
    }
    println!("-- Web side --");
    println!("URLs collected:  {urls} ({flagged} flagged by >=1 VT vendor)");
    println!("top domains:     {:?}", domains.top_k(5));
    println!("registrars:      {:?}", registrars.top_k(5));
    println!("TLS issuers:     {:?}", cas.top_k(5));
    println!("hosting orgs:    {:?}", orgs.top_k(5));
    println!("shorteners:      {:?}\n", shorteners.top_k(5));

    // Timing.
    let st = send_times(&output, false);
    println!("-- Timing (all campaigns) --");
    for (w, m) in st.medians() {
        if let Some(m) = m {
            println!("{:<10} median receive time {m}", w.name());
        }
    }
}
