//! Ablation benches for the design choices DESIGN.md §4 calls out:
//!
//! 1. extractor choice (naive OCR / block OCR / LLM) — throughput AND yield,
//! 2. dedup keying (exact vs normalized),
//! 3. Fig. 2 with and without the burst filter,
//! 4. brand NER with and without homoglyph normalization (throughput of the
//!    normalization step itself).

use criterion::{criterion_group, criterion_main, Criterion};
use smishing_bench::{bench_output, bench_world};
use smishing_core::analysis::timestamps::send_times;
use smishing_core::curation::{curate_posts, dedup, CurationOptions, DedupMode, ExtractorChoice};
use smishing_textnlp::extract_brand;
use smishing_worldsim::Post;
use std::hint::black_box;

fn bench_ablations(c: &mut Criterion) {
    let world = bench_world();
    let posts: Vec<&Post> = world.posts.iter().take(2000).collect();
    let mut g = c.benchmark_group("ablations");
    g.sample_size(10);

    // 1. Extractor choice.
    for (name, extractor) in [
        ("curation_naive_ocr", ExtractorChoice::Naive),
        ("curation_vision_ocr", ExtractorChoice::Vision),
        ("curation_llm", ExtractorChoice::Llm),
    ] {
        g.bench_function(name, |b| {
            let opts = CurationOptions {
                extractor,
                ..CurationOptions::default()
            };
            b.iter(|| black_box(curate_posts(&posts, &opts).len()))
        });
    }

    // 2. Dedup keying.
    let curated = curate_posts(&posts, &CurationOptions::default());
    g.bench_function("dedup_exact", |b| {
        b.iter(|| black_box(dedup(&curated, DedupMode::Exact).len()))
    });
    g.bench_function("dedup_normalized", |b| {
        b.iter(|| black_box(dedup(&curated, DedupMode::Normalized).len()))
    });

    // 3. Burst filter on/off (Fig. 2 ablation).
    let out = bench_output();
    g.bench_function("fig2_with_burst_filter", |b| {
        b.iter(|| black_box(send_times(out, true).to_table()))
    });
    g.bench_function("fig2_without_burst_filter", |b| {
        b.iter(|| black_box(send_times(out, false).to_table()))
    });

    // 4. Brand NER on evasive vs plain text (the normalization ablation).
    g.bench_function("ner_evasive_text", |b| {
        b.iter(|| black_box(extract_brand("Your N3tfl!x account is on h0ld t0day")))
    });
    g.bench_function("ner_plain_text", |b| {
        b.iter(|| black_box(extract_brand("Your Netflix account is on hold today")))
    });

    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_ablations
}
criterion_main!(benches);
