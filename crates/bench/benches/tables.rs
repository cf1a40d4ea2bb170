//! One benchmark per paper table/figure: how long each analysis takes over
//! the collected dataset (the pipeline output is pre-built and cached at
//! `BENCH_SCALE`). Each bench times its module's function over the
//! output and the rendering of its tables — what `run_all` and `smish
//! stream` pay for them.
//!
//! Bench ids follow DESIGN.md's experiment index: `t01_overview` regenerates
//! Table 1, `f02_timestamps` Figure 2, and so on.

use criterion::{criterion_group, criterion_main, Criterion};
use smishing_bench::bench_output;
use smishing_core::analysis::{
    asn, av, brands, categories, countries, extraction, irr, languages, lures, methods, overview,
    registrars, sender_info, shorteners, timestamps, tlds, tls,
};
use smishing_core::casestudy;
use std::hint::black_box;

fn bench_tables(c: &mut Criterion) {
    let out = bench_output();
    let mut g = c.benchmark_group("tables");

    g.bench_function("t01_overview", |b| {
        b.iter(|| black_box(overview::overview(out).to_table()))
    });
    g.bench_function("t02_methods", |b| {
        b.iter(|| black_box(methods::methods_table()))
    });
    g.bench_function("t03_t04_sender_info", |b| {
        b.iter(|| {
            let si = sender_info::sender_info(out);
            black_box((si.number_types_table(), si.operators_table()))
        })
    });
    g.bench_function("t05_shorteners", |b| {
        b.iter(|| black_box(shorteners::shortener_use(out).to_table()))
    });
    g.bench_function("t06_t16_tlds", |b| {
        b.iter(|| {
            let u = tlds::tld_use(out);
            black_box((u.to_table6(), u.to_table16()))
        })
    });
    g.bench_function("t07_tls", |b| {
        b.iter(|| black_box(tls::tls_use(out).to_table()))
    });
    g.bench_function("t08_asn", |b| {
        b.iter(|| black_box(asn::asn_use(out).to_table()))
    });
    g.bench_function("t09_t18_av", |b| {
        b.iter(|| {
            let d = av::av_detection(out);
            black_box((d.to_table9(), d.to_table18()))
        })
    });
    g.bench_function("t10_categories", |b| {
        b.iter(|| black_box(categories::categories(out).to_table()))
    });
    g.bench_function("t11_languages", |b| {
        b.iter(|| black_box(languages::languages(out).to_table()))
    });
    g.bench_function("t12_brands", |b| {
        b.iter(|| black_box(brands::brands(out).to_table()))
    });
    g.bench_function("t13_lures", |b| {
        b.iter(|| black_box(lures::lures(out).to_table()))
    });
    g.bench_function("t14_f03_countries", |b| {
        b.iter(|| {
            let c = countries::countries(out);
            black_box((c.to_table(), c.figure3_table()))
        })
    });
    g.bench_function("t15_twitter_years", |b| {
        b.iter(|| {
            black_box(overview::twitter_by_year_table(&overview::twitter_years(
                out,
            )))
        })
    });
    g.bench_function("t17_registrars", |b| {
        b.iter(|| black_box(registrars::registrars(out).to_table()))
    });
    g.bench_function("t19_casestudy", |b| {
        b.iter(|| black_box(casestudy::case_study(out, 100, 1).findings.len()))
    });
    g.bench_function("f02_timestamps", |b| {
        b.iter(|| black_box(timestamps::send_times(out, true).to_table()))
    });
    g.bench_function("irr_kappa", |b| {
        b.iter(|| black_box(irr::irr_study(out, 150, 1).human_human.scam_types))
    });
    g.bench_function("cur_extractors", |b| {
        b.iter(|| black_box(extraction::extractor_comparison(out, 100).llm.url_exact))
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_tables
}
criterion_main!(benches);
