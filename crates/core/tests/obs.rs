//! Engine observability: instrumented runs stay batch-identical, the run
//! report carries the per-shard series, and worker panics surface.

use smishing_core::exec::{ingest, ExecPlan, SnapshotPlan};
use smishing_core::pipeline::Pipeline;
use smishing_core::CurationOptions;
use smishing_obs::Obs;
use smishing_worldsim::{Post, ReportStream, World, WorldConfig};
use std::panic::{catch_unwind, AssertUnwindSafe};

fn world() -> World {
    World::generate(WorldConfig {
        scale: 0.02,
        ..WorldConfig::default()
    })
}

#[test]
fn observed_ingest_matches_batch_and_reports_per_shard_metrics() {
    let w = world();
    let batch = Pipeline::default().run(&w, &Obs::noop());
    let obs = Obs::enabled();
    let plan = ExecPlan {
        curators: 2,
        shards: 4,
        ..ExecPlan::default()
    }
    .with_snapshots(SnapshotPlan::every(500));
    let mut snaps = 0usize;
    let result = ingest(
        &w,
        ReportStream::replay(&w),
        &CurationOptions::default(),
        &plan,
        &obs,
        |_| snaps += 1,
    );

    // Instrumentation must not perturb the output.
    assert_eq!(result.output.collection, batch.collection);
    assert_eq!(result.output.records.len(), batch.records.len());
    for (x, y) in result.output.records.iter().zip(&batch.records) {
        assert_eq!(x.curated.post_id, y.curated.post_id);
    }

    // Engine-level series.
    assert_eq!(
        obs.counter("exec.engine.posts_ingested", &[]).get(),
        result.posts_ingested
    );
    assert_eq!(
        obs.counter("exec.feeder.posts", &[]).get(),
        result.posts_ingested
    );
    assert_eq!(
        obs.counter("exec.snapshot.count", &[]).get(),
        result.snapshots_taken as u64
    );
    // Every post's curation is timed, whichever curator took it.
    assert_eq!(
        obs.histogram("exec.curate.post_ns", &[]).count(),
        result.posts_ingested
    );
    assert_eq!(snaps, result.snapshots_taken);
    assert!(result.snapshots_taken > 0, "plan fired");
    assert_eq!(
        obs.histogram("exec.snapshot.cost_ns", &[]).count(),
        result.snapshots_taken as u64
    );
    assert_eq!(obs.counter("exec.engine.worker_panics", &[]).get(), 0);

    // Per-shard counters sum to the curated total, and the merged
    // `shard="all"` enrichment histogram is the exact bucket sum.
    let per_shard_curated: u64 = (0..4)
        .map(|i| {
            obs.counter("exec.shard.curated", &[("shard", &i.to_string())])
                .get()
        })
        .sum();
    assert_eq!(per_shard_curated, result.output.curated_total.len() as u64);
    let merged = obs.histogram("exec.shard.enrich_ns", &[("shard", "all")]);
    let per_shard_enrich: u64 = (0..4)
        .map(|i| {
            obs.histogram("exec.shard.enrich_ns", &[("shard", &i.to_string())])
                .count()
        })
        .sum();
    assert_eq!(merged.count(), per_shard_enrich);
    assert!(merged.count() > 0, "shards enriched records");
    // Every shard times each of its cuts: one per snapshot, one at the
    // end of the stream.
    let cuts = obs.histogram("exec.shard.cut_ns", &[("shard", "all")]);
    assert_eq!(cuts.count(), 4 * (result.snapshots_taken as u64 + 1));
    let per_shard_cuts: u64 = (0..4)
        .map(|i| {
            obs.histogram("exec.shard.cut_ns", &[("shard", &i.to_string())])
                .count()
        })
        .sum();
    assert_eq!(cuts.count(), per_shard_cuts);
    // Each cut records the size of the winner delta it sends.
    let deltas = obs.histogram("exec.shard.winner_delta", &[("shard", "all")]);
    assert_eq!(deltas.count(), cuts.count());
    // Every enrichment beyond one per dedup group went to a winner that a
    // later-arriving, earlier-posted duplicate displaced.
    let displaced: u64 = (0..4)
        .map(|i| {
            obs.counter("exec.shard.displaced", &[("shard", &i.to_string())])
                .get()
        })
        .sum();
    assert_eq!(
        displaced,
        merged.count() - result.output.records.len() as u64
    );

    // Per-service enrichment meters ran inside the shards.
    assert!(obs.counter("enrich.hlr.calls", &[]).get() > 0);
    assert!(obs.histogram("enrich.whois.latency_ns", &[]).count() > 0);

    // The JSON run report carries the engine series, including the ones
    // registered up front that a calm run leaves empty (backpressure
    // waits, retry backoff): a series that vanishes fails here.
    let json = obs.json_report();
    // Labeled keys appear JSON-escaped: `name{shard=\"0\"}`.
    for key in [
        r#"exec.shard.curated{shard=\"0\"}"#,
        r#"exec.shard.channel_depth{shard=\"0\"}"#,
        r#"exec.curator.channel_depth{curator=\"0\"}"#,
        r#"exec.shard.enrich_ns{shard=\"all\"}"#,
        r#"exec.shard.cut_ns{shard=\"all\"}"#,
        r#"exec.shard.winner_delta{shard=\"all\"}"#,
        r#"exec.shard.displaced{shard=\"0\"}"#,
        "exec.curate.post_ns",
        "exec.snapshot.cost_ns",
        "exec.collector.fold.wall_ns",
        "exec.ingest.wall_ns",
        "exec.engine.posts_ingested",
        "enrich.hlr.calls",
        "exec.feeder.backpressure_wait_ns",
        "exec.curator.backpressure_wait_ns",
        "enrich.backoff_ns",
    ] {
        assert!(json.contains(key), "report missing {key}:\n{json}");
    }
}

#[test]
fn noop_observed_ingest_equals_enabled_ingest() {
    let w = world();
    let plan = ExecPlan::default();
    let noop = ingest(
        &w,
        ReportStream::replay(&w),
        &CurationOptions::default(),
        &plan,
        &Obs::noop(),
        |_| {},
    );
    let observed = ingest(
        &w,
        ReportStream::replay(&w),
        &CurationOptions::default(),
        &plan,
        &Obs::enabled(),
        |_| {},
    );
    assert_eq!(observed.posts_ingested, noop.posts_ingested);
    assert_eq!(observed.output.collection, noop.output.collection);
    assert_eq!(observed.output.records.len(), noop.output.records.len());
}

/// A post stream that panics mid-flight, exercising the feeder's panic
/// path (the feeder drives this iterator on its own thread).
struct PanickingPosts {
    inner: std::vec::IntoIter<Post>,
    after: usize,
    yielded: usize,
}

impl Iterator for PanickingPosts {
    type Item = Post;

    fn next(&mut self) -> Option<Post> {
        if self.yielded == self.after {
            panic!("injected post-iterator failure");
        }
        self.yielded += 1;
        self.inner.next()
    }
}

#[test]
fn worker_panic_is_counted_and_propagated() {
    let w = world();
    let posts: Vec<Post> = ReportStream::replay(&w).collect();
    assert!(posts.len() > 50);
    let stream = PanickingPosts {
        inner: posts.into_iter(),
        after: 50,
        yielded: 0,
    };
    let obs = Obs::enabled();
    let caught = catch_unwind(AssertUnwindSafe(|| {
        ingest(
            &w,
            stream,
            &CurationOptions::default(),
            &ExecPlan::default(),
            &obs,
            |_| {},
        )
    }));
    let payload = match caught {
        Ok(_) => panic!("the worker panic must reach the caller"),
        Err(payload) => payload,
    };
    let msg = payload
        .downcast_ref::<&str>()
        .copied()
        .unwrap_or("<non-str payload>");
    assert_eq!(msg, "injected post-iterator failure");
    assert_eq!(obs.counter("exec.engine.worker_panics", &[]).get(), 1);
}

#[test]
fn snapshot_callback_panic_winds_down_and_propagates() {
    let w = world();
    // One-slot channels: the workers block on the collector as soon as it
    // stops reading, so a collector that kept its receiver through the
    // unwind would deadlock here.
    let plan = ExecPlan {
        channel_capacity: 1,
        ..ExecPlan::default()
    }
    .with_snapshots(SnapshotPlan::every(50));
    let caught = catch_unwind(AssertUnwindSafe(|| {
        ingest(
            &w,
            ReportStream::replay(&w),
            &CurationOptions::default(),
            &plan,
            &Obs::noop(),
            |_| panic!("injected snapshot-consumer failure"),
        )
    }));
    let payload = match caught {
        Ok(_) => panic!("the callback panic must reach the caller"),
        Err(payload) => payload,
    };
    let msg = payload
        .downcast_ref::<&str>()
        .copied()
        .unwrap_or("<non-str payload>");
    assert_eq!(msg, "injected snapshot-consumer failure");
}
