//! One benchmark per paper table/figure: how long each analysis takes over
//! the collected dataset (the pipeline output is pre-built and cached).
//! Accumulator-backed tables time their `finish()` over the output's
//! accumulators, folded once on the first `accs()` call, which is all
//! `run_all` pays for them after that fold.
//!
//! Bench ids follow DESIGN.md's experiment index: `t01_overview` regenerates
//! Table 1, `f02_timestamps` Figure 2, and so on.

use criterion::{criterion_group, criterion_main, Criterion};
use smishing_bench::bench_output;
use smishing_core::analysis::{extraction, irr, methods};
use smishing_core::casestudy;
use std::hint::black_box;

fn bench_tables(c: &mut Criterion) {
    let out = bench_output();
    let mut g = c.benchmark_group("tables");

    g.bench_function("t01_overview", |b| {
        b.iter(|| black_box(out.accs().overview.finish().totals()))
    });
    g.bench_function("t02_methods", |b| {
        b.iter(|| black_box(methods::methods_table()))
    });
    g.bench_function("t03_t04_sender_info", |b| {
        b.iter(|| black_box(out.accs().sender_info.finish().number_types.total()))
    });
    g.bench_function("t05_shorteners", |b| {
        b.iter(|| black_box(out.accs().shorteners.finish().services.total()))
    });
    g.bench_function("t06_t16_tlds", |b| {
        b.iter(|| black_box(out.accs().tlds.finish().smishing_tlds.total()))
    });
    g.bench_function("t07_tls", |b| {
        b.iter(|| black_box(out.accs().tls.finish().mean_certs()))
    });
    g.bench_function("t08_asn", |b| {
        b.iter(|| black_box(out.accs().asn.finish().resolving_domains))
    });
    g.bench_function("t09_t18_av", |b| {
        b.iter(|| black_box(out.accs().av.finish().vt.n))
    });
    g.bench_function("t10_categories", |b| {
        b.iter(|| black_box(out.accs().categories.finish().counts.total()))
    });
    g.bench_function("t11_languages", |b| {
        b.iter(|| black_box(out.accs().languages.finish().counts.total()))
    });
    g.bench_function("t12_brands", |b| {
        b.iter(|| black_box(out.accs().brands.finish().counts.total()))
    });
    g.bench_function("t13_lures", |b| {
        b.iter(|| black_box(out.accs().lures.finish().n))
    });
    g.bench_function("t14_f03_countries", |b| {
        b.iter(|| black_box(out.accs().countries.finish().all.total()))
    });
    g.bench_function("t15_twitter_years", |b| {
        b.iter(|| black_box(out.accs().twitter_years.finish().len()))
    });
    g.bench_function("t17_registrars", |b| {
        b.iter(|| black_box(out.accs().registrars.finish().counts.total()))
    });
    g.bench_function("t19_casestudy", |b| {
        b.iter(|| black_box(casestudy::case_study(out, 100, 1).findings.len()))
    });
    g.bench_function("f02_timestamps", |b| {
        b.iter(|| black_box(out.accs().send_times.finish(true).usable))
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
