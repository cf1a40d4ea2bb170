//! Streaming ingest vs the batch pipeline: the same world, end to end,
//! through the shared execution core at 1/2/4/8 shards (stream frontend)
//! and through `Pipeline::run` (batch frontend, sequential and sharded).
//! The engine pays for channels, marker alignment and enriching winners
//! that are later displaced; the shards buy back curation and enrichment
//! parallelism.
//!
//! Besides the criterion groups, every invocation runs three same-machine
//! checks that panic on a breach, so it fails `cargo bench`:
//!
//! - a min-of-3 batch run at 1 and at 4 shards: the 4-shard wall must
//!   stay within 1.2x the sequential wall plus 0.25 s;
//! - an epoch_stream-shaped replay (a scale-0.125 world, 1 curator, 1
//!   shard, an aligned snapshot every 1/32 of the posts, a no-op
//!   callback), min of 3: within 1.5x the same replay without snapshots.
//!   On a 2-core VM it read 0.88-1.25x once cuts sent only their winner
//!   delta, and 1.94-3.09x when every cut copied every winner and
//!   re-folded every group;
//! - the text kernels over the world's curated texts and English
//!   renderings, min-of-3 per kernel: `extract_brand` within 80x and
//!   `identify_language` within 42x the cost of `str::to_lowercase` over
//!   the same texts, a kernel neither calls. Both answer by hash lookup;
//!   on a 2-core VM, nine runs read 24.5-31.9x and 22.4-27.1x, and four
//!   runs of the alias and lexicon scans they replaced read 175-227x and
//!   65-93x. Brand's budget is 2.5x its worst reading and under half the
//!   scans' best. Language's two readings are only 2.4x apart at their
//!   closest, so its budget keeps the scans' margin (two-thirds of 65x is
//!   43x) and leaves 1.55x headroom over its worst reading. The divisor
//!   is not `normalize_text` (budgets 6x and 3.5x until the word fold
//!   became one pass): brand extraction calls it, so a faster fold would
//!   raise both ratios. `normalize_text`'s cost per text is printed.
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

/// Aligned snapshots of an epoch_stream-shaped replay cost
/// [`SNAPSHOT_BUDGET`] times the replay without them at most, min of 3
/// each (see the module docs).
fn snapshot_overhead_check() {
    let world = World::generate(WorldConfig {
        scale: 0.125,
        ..WorldConfig::default()
    });
    let every = (world.posts.len() as u64 / SNAPSHOTS).max(1);
    let time = |snapshots: SnapshotPlan| {
        let plan = ExecPlan::sequential().with_snapshots(snapshots);
        (0..3)
            .map(|_| {
                let t = Instant::now();
                let result = ingest(
                    &world,
                    ReportStream::replay(&world),
                    &CurationOptions::default(),
                    &plan,
                    &Obs::noop(),
                    |_| {},
                );
                black_box(result);
                t.elapsed().as_nanos() as u64
            })
            .min()
            .expect("three runs") as f64
    };
    let plain_ns = time(SnapshotPlan::none());
    let snap_ns = time(SnapshotPlan::every(every));
    let ratio = snap_ns / plain_ns.max(1.0);
    eprintln!(
        "replay of {} posts (min of 3): no snapshots {:.1}ms, {SNAPSHOTS} snapshots {:.1}ms \
         ({ratio:.2}x, budget {SNAPSHOT_BUDGET}x)",
        world.posts.len(),
        plain_ns / 1e6,
        snap_ns / 1e6
    );
    assert!(
        ratio <= SNAPSHOT_BUDGET,
        "{SNAPSHOTS} snapshots cost {ratio:.2}x the replay without them (budget {SNAPSHOT_BUDGET}x)"
    );
}

/// Aligned snapshots per replay in [`snapshot_overhead_check`].
const SNAPSHOTS: u64 = 32;
/// Snapshot replay / plain replay budget (see the module docs).
const SNAPSHOT_BUDGET: f64 = 1.5;

/// Brand extraction and language ID must cost a small multiple of
/// lowercasing the same text (`str::to_lowercase` scans and allocates
/// like they do, and neither calls it): at most [`BRAND_BUDGET`] and
/// [`LANGUAGE_BUDGET`] times, over the bench world's curated texts and
/// their English renderings. `normalize_text`'s cost per text is printed
/// alongside.
fn text_kernel_check(world: &World) {
    let out = Pipeline::default().run(world, &Obs::noop());
    let texts: Vec<&str> = out
        .curated_total
        .iter()
        .flat_map(|c| [c.text.as_str(), c.english.as_str()])
        .collect();
    let lower_ns = time_kernel(&texts, |t| t.to_lowercase()).max(1) as f64;
    let norm_ns = time_kernel(&texts, |t| normalize_text(t)) as f64;
    let brand = time_kernel(&texts, |t| extract_brand(t)) as f64 / lower_ns;
    let language = time_kernel(&texts, |t| identify_language(t)) as f64 / lower_ns;
    let per_text = |ns: f64| ns / 1e3 / texts.len().max(1) as f64;
    eprintln!(
        "text kernels over {} texts (min of 3): to_lowercase {:.3}us each, \
         normalize_text {:.2}us each, extract_brand {brand:.2}x (budget {BRAND_BUDGET}x), \
         identify_language {language:.2}x (budget {LANGUAGE_BUDGET}x)",
        texts.len(),
        per_text(lower_ns),
        per_text(norm_ns)
    );
    assert!(
        brand <= BRAND_BUDGET,
        "extract_brand costs {brand:.2}x to_lowercase (budget {BRAND_BUDGET}x)"
    );
    assert!(
        language <= LANGUAGE_BUDGET,
        "identify_language costs {language:.2}x to_lowercase (budget {LANGUAGE_BUDGET}x)"
    );
}

/// `extract_brand` / `to_lowercase` budget (see the module docs).
const BRAND_BUDGET: f64 = 80.0;
/// `identify_language` / `to_lowercase` budget (see the module docs).
const LANGUAGE_BUDGET: f64 = 42.0;

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
    snapshot_overhead_check();
    text_kernel_check(&world);
}
