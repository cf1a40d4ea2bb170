//! Streaming ingest vs the batch pipeline: the same world, end to end,
//! through the shared execution core at 1/2/4/8 shards (stream frontend)
//! and through `Pipeline::run` (batch frontend, sequential and sharded).
//! The engine pays for channels, marker alignment and winner retraction;
//! the shards buy back curation and enrichment parallelism.
//!
//! Besides the criterion groups, every invocation runs one instrumented
//! attribution pass plus a min-of-3 batch-parallel timing comparison
//! (shards 1 vs 4) and writes both into
//! `target/stream-ingest-run-report.json`. Set `SMISHING_BENCH_QUICK=1`
//! to skip the criterion groups and produce only that artifact (the CI
//! parity job does).

use criterion::{criterion_group, Criterion};
use smishing_core::exec::{ingest, ExecPlan, SnapshotPlan};
use smishing_core::pipeline::Pipeline;
use smishing_core::CurationOptions;
use smishing_obs::Obs;
use smishing_worldsim::{ReportStream, World, WorldConfig};
use std::hint::black_box;
use std::io::Write;
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

/// One instrumented streaming pass (stage attribution) plus the
/// batch-parallel timing comparison, written as one JSON artifact.
fn attribution_report() {
    let world = bench_world();
    let step = (world.posts.len() as u64 / 4).max(1);
    let obs = Obs::enabled();
    let result = ingest(
        &world,
        ReportStream::replay(&world),
        &CurationOptions::default(),
        &ExecPlan::sharded(4).with_snapshots(SnapshotPlan::every(step)),
        &obs,
        |_| {},
    );
    black_box(result.posts_ingested);

    // Batch-parallel timings through the same engine: the CI parity job
    // reads these to confirm sharding is not pathological.
    let seq_ns = time_batch(&world, 1);
    let par_ns = time_batch(&world, 4);
    obs.histogram("bench.batch.sequential.wall_ns", &[])
        .record(seq_ns);
    obs.histogram("bench.batch.4_shards.wall_ns", &[])
        .record(par_ns);
    eprintln!(
        "batch wall time (min of 3): sequential {:.1}ms, 4 shards {:.1}ms ({:.2}x)",
        seq_ns as f64 / 1e6,
        par_ns as f64 / 1e6,
        seq_ns as f64 / par_ns.max(1) as f64
    );

    // Benches run with the package dir as cwd; resolve the workspace
    // target dir explicitly so the artifact lands where CI expects it.
    let target = std::env::var("CARGO_TARGET_DIR")
        .unwrap_or_else(|_| concat!(env!("CARGO_MANIFEST_DIR"), "/../../target").to_string());
    let path = format!("{target}/stream-ingest-run-report.json");
    match std::fs::File::create(&path).and_then(|mut f| f.write_all(obs.json_report().as_bytes())) {
        Ok(()) => eprintln!("wrote attribution run report to {path}"),
        Err(e) => eprintln!("could not write attribution run report to {path}: {e}"),
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default();
    targets = bench_stream_ingest
}

fn main() {
    // Quick mode: skip the criterion groups, keep the report artifact.
    if std::env::var_os("SMISHING_BENCH_QUICK").is_none() {
        benches();
    }
    attribution_report();
}
