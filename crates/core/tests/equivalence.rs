//! The determinism contract: streaming ingest == batch pipeline, exactly.

use smishing_core::curation::CuratedMessage;
use smishing_core::exec::{ingest, resume, Checkpoint, ExecPlan, SnapshotPlan};
use smishing_core::experiment;
use smishing_core::pipeline::{Pipeline, PipelineOutput};
use smishing_core::CurationOptions;
use smishing_obs::Obs;
use smishing_worldsim::{ReportStream, World, WorldConfig};
use std::borrow::Borrow;

fn world() -> World {
    World::generate(WorldConfig {
        scale: 0.02,
        ..WorldConfig::default()
    })
}

fn plan(curators: usize, shards: usize) -> ExecPlan {
    ExecPlan {
        curators,
        shards,
        ..ExecPlan::default()
    }
}

/// Structural equality of two pipeline outputs, field by field.
fn assert_outputs_equal(a: &PipelineOutput<'_>, b: &PipelineOutput<'_>, label: &str) {
    assert_eq!(a.collection, b.collection, "{label}: collection stats");
    assert_eq!(
        a.curated_total.len(),
        b.curated_total.len(),
        "{label}: curated count"
    );
    for (x, y) in a.curated_total.iter().zip(&b.curated_total) {
        assert_eq!(x.post_id, y.post_id, "{label}");
        assert_eq!(x.text, y.text, "{label}");
        assert_eq!(x.sender_raw, y.sender_raw, "{label}");
        assert_eq!(x.url_raw, y.url_raw, "{label}");
    }
    assert_eq!(a.records.len(), b.records.len(), "{label}: record count");
    for (x, y) in a.records.iter().zip(&b.records) {
        assert_eq!(x.curated.post_id, y.curated.post_id, "{label}");
        assert_eq!(x.annotation.scam_type, y.annotation.scam_type, "{label}");
        assert_eq!(x.curated.text, y.curated.text, "{label}");
    }
}

/// Render every experiment table to one string for byte comparison.
fn all_tables(out: &PipelineOutput<'_>) -> String {
    experiment::run_all(out, &Obs::noop())
        .iter()
        .map(|r| format!("== {}\n{}\n", r.id, r.table))
        .collect()
}

#[test]
fn streaming_equals_batch_across_shard_counts() {
    let w = world();
    let batch = Pipeline::default().run(&w, &Obs::noop());
    let batch_tables = all_tables(&batch);
    for shards in [1, 4] {
        let result = ingest(
            &w,
            ReportStream::replay(&w),
            &CurationOptions::default(),
            &plan(2, shards),
            &Obs::noop(),
            |_| {},
        );
        assert_eq!(result.posts_ingested, w.posts.len() as u64);
        assert_outputs_equal(&result.output, &batch, &format!("shards={shards}"));
        // Byte-identical tables, T1 through T19 and the figures.
        assert_eq!(all_tables(&result.output), batch_tables, "shards={shards}");
    }
}

#[test]
fn mid_stream_snapshot_equals_batch_over_prefix() {
    let w = world();
    let half = (w.posts.len() / 2) as u64;
    // A world truncated to the first `half` posts is exactly what a batch
    // collector would have seen at that instant.
    let mut prefix_world = world();
    prefix_world.posts.truncate(half as usize);
    let prefix_batch = Pipeline::default().run(&prefix_world, &Obs::noop());
    // The engine lends each snapshot to the callback, so it is checked
    // there.
    let mut snaps = 0;
    let result = ingest(
        &w,
        ReportStream::replay(&w),
        &CurationOptions::default(),
        &plan(2, 3).with_snapshots(SnapshotPlan::at(&[half])),
        &Obs::noop(),
        |snap| {
            snaps += 1;
            assert_eq!(snap.at_posts, half);
            assert_outputs_equal(&snap.output, &prefix_batch, "snapshot vs batch prefix");
            // Each record carries its dedup group's evidence over exactly
            // the prefix, not over the whole stream.
            for (x, y) in snap.output.records.iter().zip(&prefix_batch.records) {
                assert_eq!(x.evidence, y.evidence, "post {:?}", x.curated.post_id);
            }
            // Every artifact renders mid-stream exactly as the batch run
            // over the prefix renders it — T15's post counts included.
            let snap_results = experiment::run_all(&snap.output, &Obs::noop());
            let prefix_results = experiment::run_all(&prefix_batch, &Obs::noop());
            assert_eq!(snap_results.len(), prefix_results.len());
            for (s, b) in snap_results.iter().zip(&prefix_results) {
                assert_eq!(s.id, b.id);
                assert_eq!(
                    s.table.to_string(),
                    b.table.to_string(),
                    "{} diverged mid-stream",
                    s.id
                );
            }
            // Every table of the output renders mid-stream.
            for (id, table) in experiment::TABLES {
                assert!(!table(&snap.output).to_string().is_empty(), "{id} empty");
            }
        },
    );
    // Ingestion did not stop at the snapshot: the run covered everything.
    assert_eq!(result.posts_ingested, w.posts.len() as u64);
    assert_eq!(result.snapshots_taken, 1);
    assert_eq!(snaps, 1);
}

/// Every table of a run's consecutive snapshots, and of its end-of-stream
/// output, renders exactly as the batch run over that prefix: no
/// snapshot's tables (T1's message, sender and URL columns, T11 and F2
/// included) lag behind its records.
#[test]
fn folds_at_consecutive_snapshots_equal_batch_over_each_prefix() {
    let w = world();
    let n = w.posts.len() as u64;
    let at: Vec<u64> = (1..=4).map(|i| n * i / 5).collect();
    let tables = |out: &PipelineOutput<'_>| -> Vec<(&'static str, String)> {
        let tables = experiment::TABLES.iter();
        tables
            .map(|&(id, table)| (id, table(out).to_string()))
            .collect()
    };
    let prefix_tables: Vec<_> = at
        .iter()
        .map(|&k| {
            let mut prefix_world = world();
            prefix_world.posts.truncate(k as usize);
            tables(&Pipeline::default().run(&prefix_world, &Obs::noop()))
        })
        .collect();
    let mut snaps = 0;
    let result = ingest(
        &w,
        ReportStream::replay(&w),
        &CurationOptions::default(),
        &plan(3, 2).with_snapshots(SnapshotPlan::at(&at)),
        &Obs::noop(),
        |snap| {
            assert_eq!(snap.at_posts, at[snaps]);
            assert_eq!(
                tables(&snap.output),
                prefix_tables[snaps],
                "snapshot at {} posts",
                snap.at_posts
            );
            snaps += 1;
        },
    );
    assert_eq!(snaps, 4);
    let batch = Pipeline::default().run(&w, &Obs::noop());
    assert_eq!(tables(&result.output), tables(&batch), "end of stream");
}

/// The curated deltas partition the curated history: each is sorted by
/// post id, and together they hold every snapshot's `curated_total` and,
/// with the end-of-stream delta, the run's, each message once, at any
/// worker topology. One plan's last marker falls on the last post, so
/// its end interval is empty; the other has a position past the end,
/// which never fires.
#[test]
fn curated_deltas_partition_the_curated_total() {
    let w = world();
    let n = w.posts.len() as u64;
    let step = n / 5;
    let fed = 4 * step;
    let batch = Pipeline::default().run(&w, &Obs::noop());
    // The deltas hold messages, the history shared handles to them.
    fn ids<C: Borrow<CuratedMessage>>(cs: &[C]) -> Vec<(u64, String)> {
        cs.iter()
            .map(|c| (c.borrow().post_id.0, c.borrow().text.clone()))
            .collect()
    }
    // Posts do not arrive in post-id order, so neither do the deltas.
    let sorted = |mut v: Vec<(u64, String)>| {
        v.sort();
        v
    };
    for curators in [1, 2] {
        for shards in [1, 3] {
            for (snapshots, posts, fires) in [
                (SnapshotPlan::every(step), fed, 4),
                (SnapshotPlan::at(&[n / 3, n + 10]), n, 1),
            ] {
                let label = format!("curators={curators} shards={shards} {snapshots:?}");
                let mut joined: Vec<(u64, String)> = Vec::new();
                let result = ingest(
                    &w,
                    ReportStream::replay(&w).take(posts as usize),
                    &CurationOptions::default(),
                    &plan(curators, shards).with_snapshots(snapshots),
                    &Obs::noop(),
                    |s| {
                        let delta = ids(&s.curated_delta);
                        assert!(delta.windows(2).all(|p| p[0].0 < p[1].0), "{label}");
                        joined.extend(delta);
                        let total = ids(&s.output.curated_total);
                        assert_eq!(sorted(joined.clone()), total, "{label}");
                    },
                );
                assert_eq!(result.snapshots_taken, fires, "{label}");
                let delta = ids(&result.curated_delta);
                assert!(delta.windows(2).all(|p| p[0].0 < p[1].0), "{label}");
                if posts == fed {
                    assert!(delta.is_empty(), "{label}: the last marker ends the stream");
                } else {
                    assert!(!delta.is_empty(), "{label}");
                    assert_eq!(result.output.curated_total.len(), batch.curated_total.len());
                }
                joined.extend(delta);
                let total = ids(&result.output.curated_total);
                assert_eq!(sorted(joined), total, "{label}");
            }
        }
    }
}

#[test]
fn periodic_snapshots_fire_in_order() {
    let w = world();
    let n = w.posts.len() as u64;
    let step = n / 4;
    let mut seen = Vec::new();
    let result = ingest(
        &w,
        ReportStream::replay(&w),
        &CurationOptions::default(),
        &plan(3, 2).with_snapshots(SnapshotPlan::every(step)),
        &Obs::noop(),
        |s| {
            seen.push(s.at_posts);
        },
    );
    assert_eq!(result.snapshots_taken, seen.len());
    assert!(seen.len() >= 4, "{seen:?}");
    let mut sorted = seen.clone();
    sorted.sort_unstable();
    assert_eq!(seen, sorted, "snapshots arrive in stream order");
    assert!(seen.windows(2).all(|w| w[1] - w[0] == step), "{seen:?}");
}

#[test]
fn checkpoint_roundtrip_and_resume() {
    let w = world();
    let half = (w.posts.len() / 2) as u64;
    let exec = plan(2, 2);

    // First run: capture a checkpoint at 50%.
    let mut cp = None;
    ingest(
        &w,
        ReportStream::replay(&w),
        &CurationOptions::default(),
        &exec.clone().with_snapshots(SnapshotPlan::at(&[half])),
        &Obs::noop(),
        |s| {
            cp = Some(Checkpoint::capture(s, &exec));
        },
    );
    let cp = cp.expect("snapshot fired");
    assert_eq!(cp.posts_consumed, half);
    assert!(!cp.dataset.is_empty());

    // Serde round-trip through the dataset layer.
    let json = cp.to_json().expect("serializes");
    let cp2 = Checkpoint::from_json(&json).expect("deserializes");
    assert_eq!(cp2.dataset, cp.dataset);
    assert_eq!(cp2.posts_consumed, half);

    // Resume: replays, verifies the dataset at the checkpoint, finishes.
    // Only snapshots from the verified checkpoint on reach the caller.
    let quarter = half / 2;
    let mut forwarded = Vec::new();
    let resumed = resume(
        &w,
        ReportStream::replay(&w),
        &cp2,
        &CurationOptions::default(),
        &exec.clone().with_snapshots(SnapshotPlan::at(&[quarter])),
        &Obs::noop(),
        |s| forwarded.push(s.at_posts),
    )
    .expect("same world");
    assert_eq!(forwarded, vec![half]);
    let batch = Pipeline::default().run(&w, &Obs::noop());
    assert_outputs_equal(&resumed.output, &batch, "resumed vs batch");

    // A checkpoint from another world is rejected.
    let other = World::generate(WorldConfig {
        seed: 1,
        scale: 0.02,
        ..WorldConfig::default()
    });
    assert!(resume(
        &other,
        ReportStream::replay(&other),
        &cp2,
        &CurationOptions::default(),
        &exec,
        &Obs::noop(),
        |_| {}
    )
    .is_err());

    // A checkpoint the replay does not reproduce is an error naming the
    // post count, and no snapshot reaches the caller: one tampered
    // dataset row, and a position past the end of the stream.
    let mut tampered = cp2.clone();
    tampered.dataset[0].text_message.push('!');
    let mut past_end = cp2.clone();
    past_end.posts_consumed = 999_999;
    for (bad, at) in [(&tampered, half), (&past_end, 999_999)] {
        let mut called = false;
        let err = resume(
            &w,
            ReportStream::replay(&w),
            bad,
            &CurationOptions::default(),
            &exec,
            &Obs::noop(),
            |_| called = true,
        )
        .err()
        .expect("unverified checkpoint is rejected");
        assert!(err.contains(&format!("post {at}")), "{err}");
        assert!(!called, "{err}");
    }
}

#[test]
fn soak_feed_with_snapshot_keeps_running() {
    let w = world();
    let lap = w.posts.len() as u64;
    // One and a half laps of the infinite feed, snapshot at one lap.
    let budget = lap + lap / 2;
    let mut snap_posts = Vec::new();
    let result = ingest(
        &w,
        ReportStream::soak(&w).take(budget as usize),
        &CurationOptions::default(),
        &plan(2, 2).with_snapshots(SnapshotPlan::at(&[lap])),
        &Obs::noop(),
        |s| snap_posts.push(s.at_posts),
    );
    assert_eq!(result.posts_ingested, budget);
    assert_eq!(snap_posts, vec![lap]);
    // After exactly one lap the soak feed has replayed the world once.
    let batch = Pipeline::default().run(&w, &Obs::noop());
    assert!(result.output.curated_total.len() > batch.curated_total.len());
}
