//! Streaming ingest vs the batch pipeline: the same world, end to end,
//! through the shared execution core at 1/2/4/8 shards (stream frontend)
//! and through `Pipeline::run` (batch frontend, sequential and sharded).
//! The engine pays for channels, marker alignment and enriching winners
//! that are later displaced; the shards buy back curation and enrichment
//! parallelism.
//!
//! Besides the criterion groups, every invocation runs two same-machine
//! checks that panic on a breach, so it fails `cargo bench`:
//!
//! - a min-of-3 batch run at 1 and at 4 shards: the 4-shard wall must
//!   stay within 1.2x the sequential wall plus 0.25 s;
//! - the text kernels over the world's curated texts and English
//!   renderings, min-of-3 per kernel: `extract_brand` within 6x and
//!   `identify_language` within 3.5x the cost of `normalize_text`. Both
//!   answer by hash lookup and read about 2x and 1.5x on a 2-core VM;
//!   the alias and lexicon scans they replaced read about 14x and 6x.
//!
//! Set `SMISHING_BENCH_QUICK=1` to skip the criterion groups and run only
//! the checks (the CI shard-parity job does).

use criterion::{criterion_group, Criterion};
use smishing_bench::time_kernel;
use smishing_core::exec::{ingest, ExecPlan, SnapshotPlan};
use smishing_core::pipeline::Pipeline;
use smishing_core::CurationOptions;
use smishing_obs::Obs;
use smishing_textnlp::{extract_brand, identify_language, normalize_text};
use smishing_worldsim::{ReportStream, World, WorldConfig};
use std::hint::black_box;
use std::time::Instant;

fn bench_world() -> World {
    World::generate(WorldConfig {
        scale: 0.02,
        ..WorldConfig::default()
    })
}

fn bench_stream_ingest(c: &mut Criterion) {
    let world = bench_world();
    let mut g = c.benchmark_group("stream_ingest");
    g.sample_size(10);

    g.bench_function("batch_sequential", |b| {
        let p = Pipeline {
            curation: CurationOptions::default(),
            exec: ExecPlan::sequential(),
        };
        b.iter(|| black_box(p.run(&world, &Obs::noop())))
    });

    g.bench_function("batch_4_shards", |b| {
        let p = Pipeline {
            curation: CurationOptions::default(),
            exec: ExecPlan::sharded(4),
        };
        b.iter(|| black_box(p.run(&world, &Obs::noop())))
    });

    for shards in [1usize, 2, 4, 8] {
        let plan = ExecPlan::sharded(shards);
        g.bench_function(format!("stream_{shards}_shards"), |b| {
            b.iter(|| {
                black_box(ingest(
                    &world,
                    ReportStream::replay(&world),
                    &CurationOptions::default(),
                    &plan,
                    &Obs::noop(),
                    |_| {},
                ))
            })
        });
    }

    // The cost of observing the stream: four snapshots over the run.
    let step = (world.posts.len() as u64 / 4).max(1);
    let plan = ExecPlan::sharded(4).with_snapshots(SnapshotPlan::every(step));
    g.bench_function("stream_4_shards_snapshots", |b| {
        b.iter(|| {
            black_box(ingest(
                &world,
                ReportStream::replay(&world),
                &CurationOptions::default(),
                &plan,
                &Obs::noop(),
                |s| {
                    black_box(s.at_posts);
                },
            ))
        })
    });

    g.finish();
}

/// Min-of-3 wall time of one batch run at the given shard count.
fn time_batch(world: &World, shards: usize) -> u64 {
    let p = Pipeline {
        curation: CurationOptions::default(),
        exec: ExecPlan {
            curators: if shards == 1 { 1 } else { 2 },
            shards,
            ..ExecPlan::default()
        },
    };
    (0..3)
        .map(|_| {
            let t = Instant::now();
            black_box(p.run(world, &Obs::noop()));
            t.elapsed().as_nanos() as u64
        })
        .min()
        .expect("three runs")
}

/// The 4-shard batch must not be pathologically slower than the
/// sequential one: within 1.2x the sequential wall plus 0.25 s of
/// scheduler slack, which even a starved single core meets at this small
/// scale.
fn shard_slowdown_check(world: &World) {
    let seq_ns = time_batch(world, 1);
    let par_ns = time_batch(world, 4);
    let budget_ns = 1.2 * seq_ns as f64 + 0.25e9;
    eprintln!(
        "batch wall time (min of 3): sequential {:.1}ms, 4 shards {:.1}ms ({:.2}x), budget {:.1}ms",
        seq_ns as f64 / 1e6,
        par_ns as f64 / 1e6,
        seq_ns as f64 / par_ns.max(1) as f64,
        budget_ns / 1e6
    );
    assert!(
        par_ns as f64 <= budget_ns,
        "4-shard batch too slow: {:.1}ms > budget {:.1}ms (1.2x sequential + 250ms)",
        par_ns as f64 / 1e6,
        budget_ns / 1e6
    );
}

/// Brand extraction and language ID must cost a small multiple of
/// normalizing the same text: at most 6x and 3.5x `normalize_text`, over
/// the bench world's curated texts and their English renderings.
fn text_kernel_check(world: &World) {
    let out = Pipeline::default().run(world, &Obs::noop());
    let texts: Vec<&str> = out
        .curated_total
        .iter()
        .flat_map(|c| [c.text.as_str(), c.english.as_str()])
        .collect();
    let norm_ns = time_kernel(&texts, |t| normalize_text(t)).max(1) as f64;
    let brand = time_kernel(&texts, |t| extract_brand(t)) as f64 / norm_ns;
    let language = time_kernel(&texts, |t| identify_language(t)) as f64 / norm_ns;
    eprintln!(
        "text kernels over {} texts (min of 3): normalize_text {:.2}us each, \
         extract_brand {brand:.2}x (budget 6x), identify_language {language:.2}x (budget 3.5x)",
        texts.len(),
        norm_ns / 1e3 / texts.len().max(1) as f64
    );
    assert!(
        brand <= 6.0,
        "extract_brand costs {brand:.2}x normalize_text (budget 6x)"
    );
    assert!(
        language <= 3.5,
        "identify_language costs {language:.2}x normalize_text (budget 3.5x)"
    );
}

criterion_group! {
    name = benches;
    config = Criterion::default();
    targets = bench_stream_ingest
}

fn main() {
    // Quick mode: skip the criterion groups, keep the checks.
    if std::env::var_os("SMISHING_BENCH_QUICK").is_none() {
        benches();
    }
    let world = bench_world();
    shard_slowdown_check(&world);
    text_kernel_check(&world);
}
