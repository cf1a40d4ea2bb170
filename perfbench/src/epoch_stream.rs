//! `epoch_stream`: the write side of the intel store. Small worlds are
//! replayed through `exec::ingest` with an aligned snapshot every 1/32 of
//! each replay; each snapshot is folded into the previous store with
//! `IntelSnapshot::build_incremental` and published, as
//! `smish serve --stream` does, and a final publish follows at end of
//! stream. One republish is the latency unit; posts streamed per second
//! of replay the throughput.

use crate::layers;
use crate::report::{EndToEnd, Layers, Outcome};
use crate::stats::{median, tail};
use crate::{generate_world, peak_rss_mb, secs, Records, RunConfig};
use smishing::core::exec::{ingest, ExecPlan, SnapshotPlan};
use smishing::core::{CurationOptions, PipelineOutput};
use smishing::intel::{BuildOptions, IntelHub, IntelSnapshot, SnapshotDelta};
use smishing::obs::Obs;
use smishing::worldsim::{Post, ReportStream, World};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// World scale of each replayed world (about 29k posts).
pub const SCALE: f64 = 0.125;

/// Worlds a run generates and replays, each from its own seed derived
/// from the workload seed. A world decides which epochs take the
/// incremental build's cheap path (no earlier entry displaced, so the
/// template clustering only visits new texts), and one late cheap epoch
/// saves a large share of a replay. Averaging over many worlds keeps one
/// world's luck from setting the figures.
pub const WORLDS: usize = 6;

/// Aligned snapshots per replay.
pub const EPOCHS: u64 = 32;

/// Posts replayed per world: the first 27,000 of its stream (all of a
/// smaller world's). World size varies with the seed and republish cost
/// grows with the square of the records held, so a fixed volume keeps
/// the seed from setting the workload's size.
pub const POSTS: usize = 27_000;

/// A post iterator that stamps the moment each marker post (the one a
/// snapshot fires after) leaves it.
struct Marked<I> {
    posts: I,
    count: u64,
    every: u64,
    marks: Arc<Mutex<Vec<Instant>>>,
}

impl<I: Iterator<Item = Post>> Iterator for Marked<I> {
    type Item = Post;

    fn next(&mut self) -> Option<Post> {
        let post = self.posts.next()?;
        self.count += 1;
        if self.count.is_multiple_of(self.every) {
            self.marks
                .lock()
                .expect("marks lock: no holder panics")
                .push(Instant::now());
        }
        Some(post)
    }
}

/// One timed replay.
pub struct Replay {
    /// Wall time of the whole replay, final publish included.
    pub wall_s: f64,
    /// Posts streamed.
    pub posts: u64,
    /// Per-epoch republish time (incremental build plus publish), ms.
    pub republish_ms: Vec<f64>,
    /// Incremental build time alone at each aligned snapshot, ms (the
    /// end-of-stream publish folds a shorter delta and is left out).
    pub build_ms: Vec<f64>,
    /// Per-snapshot wait from marker post to `on_snapshot` entry, ms.
    pub wait_ms: Vec<f64>,
}

/// Posts replayed from `world`, posts per epoch, and the engine plan:
/// one curator, one shard, an aligned snapshot every 1/[`EPOCHS`] of the
/// replay.
fn stream_plan(world: &World) -> (usize, u64, ExecPlan) {
    let posts = world.posts.len().min(POSTS);
    let every = (posts as u64 / EPOCHS).max(1);
    let plan = ExecPlan {
        curators: 1,
        shards: 1,
        ..ExecPlan::default()
    }
    .with_snapshots(SnapshotPlan::every(every));
    (posts, every, plan)
}

/// Wall time in seconds of a replay with the workload's snapshot plan
/// but nothing done at the snapshots: the engine's own cost, marker
/// alignment included, without the republishes that share its cores.
fn ingest_only(world: &World, obs: &Obs) -> f64 {
    let (posts, _, plan) = stream_plan(world);
    let t = Instant::now();
    let result = ingest(
        world,
        ReportStream::replay(world).take(posts),
        &CurationOptions::default(),
        &plan,
        obs,
        |_| {},
    );
    let wall_s = secs(t);
    drop(result);
    wall_s
}

/// Republish one epoch: fold `delta` into `prev`, publish, and return
/// the new store with the build and total times in ms.
fn republish(
    hub: &IntelHub,
    out: &PipelineOutput<'_>,
    prev: Option<&IntelSnapshot>,
    delta: SnapshotDelta<'_>,
) -> (Arc<IntelSnapshot>, f64, f64) {
    let t = Instant::now();
    let snap = Arc::new(IntelSnapshot::build_incremental(
        out,
        prev,
        delta,
        BuildOptions::default(),
    ));
    let build_ms = secs(t) * 1e3;
    hub.publish_arc(Arc::clone(&snap));
    (snap, build_ms, secs(t) * 1e3)
}

/// Replay `world` once, republishing at every snapshot. `finish` sees the
/// final output and the hub after the timed region.
fn replay<'w, R>(
    world: &'w World,
    obs: &Obs,
    finish: impl FnOnce(&PipelineOutput<'w>, &IntelHub) -> R,
) -> (Replay, R) {
    let (posts, every, plan) = stream_plan(world);
    let marks = Arc::new(Mutex::new(Vec::new()));
    let posts = Marked {
        posts: ReportStream::replay(world).take(posts),
        count: 0,
        every,
        marks: Arc::clone(&marks),
    };
    let hub = IntelHub::new();
    let mut prev: Option<Arc<IntelSnapshot>> = None;
    let (mut republish_ms, mut build_ms, mut wait_ms) = (Vec::new(), Vec::new(), Vec::new());
    let t0 = Instant::now();
    let result = ingest(world, posts, &CurationOptions::default(), &plan, obs, |s| {
        let entered = Instant::now();
        let marked = marks
            .lock()
            .expect("marks lock: no holder panics")
            .get(wait_ms.len())
            .copied();
        if let Some(m) = marked {
            wait_ms.push(entered.duration_since(m).as_secs_f64() * 1e3);
        }
        let (snap, b, r) = republish(
            &hub,
            &s.output,
            prev.as_deref(),
            SnapshotDelta::new(&s.curated_delta),
        );
        build_ms.push(b);
        republish_ms.push(r);
        prev = Some(snap);
    });
    let (_, _, r) = republish(
        &hub,
        &result.output,
        prev.as_deref(),
        SnapshotDelta::new(&result.curated_delta),
    );
    let wall_s = secs(t0);
    republish_ms.push(r);
    drop(prev);
    let extra = finish(&result.output, &hub);
    (
        Replay {
            wall_s,
            posts: result.posts_ingested,
            republish_ms,
            build_ms,
            wait_ms,
        },
        extra,
    )
}

/// What one replay must satisfy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayCheck {
    /// Record accounting of the final output.
    pub records: Records,
    /// Whether the last published store equals a from-scratch build.
    pub final_store_matches: bool,
    /// Templates of the final store.
    pub templates: usize,
}

impl ReplayCheck {
    /// Inspect the final output against the last published store,
    /// timing the from-scratch reference build (ms).
    pub fn of(out: &PipelineOutput<'_>, hub: &IntelHub) -> (ReplayCheck, f64, Arc<IntelSnapshot>) {
        let t = Instant::now();
        let full = IntelSnapshot::build_full(out, BuildOptions::default());
        let full_ms = secs(t) * 1e3;
        let published = hub.latest().expect("the final publish happened");
        let check = ReplayCheck {
            records: Records::of(out),
            final_store_matches: *published == full,
            templates: published.template_count(),
        };
        (check, full_ms, published)
    }

    /// Every way the replay is wrong; empty when correct.
    pub fn problems(&self) -> Vec<String> {
        let mut p: Vec<String> = self.records.problem().into_iter().collect();
        if !self.final_store_matches {
            p.push("final published store differs from build_full of the final output".into());
        }
        p
    }
}

/// Throughput is posts streamed over the replays' summed wall time.
/// Latency is the mean republish over every epoch of every replay, and
/// the tail the highest percentile with ten epochs beyond it. The mean,
/// not the median: per-epoch cost grows with history, so the median
/// lands wherever the cheap epochs push it (it is printed beside).
fn end_to_end(setup_s: f64, peak_rss_mb: f64, replays: &[Replay]) -> EndToEnd {
    let posts: u64 = replays.iter().map(|r| r.posts).sum();
    let wall_s: f64 = replays.iter().map(|r| r.wall_s).sum();
    let republish = all_republish_ms(replays);
    EndToEnd {
        setup_s,
        peak_rss_mb,
        throughput_per_s: posts as f64 / wall_s,
        latency_ms: republish.iter().sum::<f64>() / republish.len().max(1) as f64,
        latency_tail_ms: tail(&republish).value,
    }
}

/// Every epoch's republish time over `replays`, ms.
fn all_republish_ms(replays: &[Replay]) -> Vec<f64> {
    replays
        .iter()
        .flat_map(|r| r.republish_ms.iter().copied())
        .collect()
}

/// The seed of world `i` of a run at workload seed `seed`.
fn world_seed(seed: u64, i: usize) -> u64 {
    seed.wrapping_mul(WORLDS as u64).wrapping_add(i as u64)
}

/// Generate the run's [`WORLDS`] worlds `cfg.setups` times (at least
/// once): the last set and the median time one set took, in seconds.
fn timed_worlds(cfg: &RunConfig) -> (Vec<World>, f64) {
    let mut gen_s = Vec::new();
    let mut worlds = Vec::new();
    for _ in 0..cfg.setups.max(1) {
        // Free the previous set first, so the peak resident set holds one.
        worlds.clear();
        let t = Instant::now();
        worlds = (0..WORLDS)
            .map(|i| generate_world(world_seed(cfg.seed, i), cfg.scale))
            .collect();
        gen_s.push(secs(t));
    }
    (worlds, median(&gen_s))
}

/// Median of the last three aligned-snapshot builds.
fn late(build_ms: &[f64]) -> f64 {
    median(&build_ms[build_ms.len().saturating_sub(3)..])
}

/// [`late`] over the median of epochs 2–4 (epoch 1 is a full build:
/// there is nothing to fold into yet).
pub fn late_vs_early(build_ms: &[f64]) -> f64 {
    let n = build_ms.len();
    late(build_ms) / median(&build_ms[1.min(n)..4.min(n)])
}

/// One line of per-epoch figures.
fn per_epoch(name: &str, ms: &[f64]) -> String {
    let values: Vec<String> = ms.iter().map(|v| format!("{v:.1}")).collect();
    format!("{name} per epoch: {}", values.join(" "))
}

/// Run the workload.
pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    let (worlds, setup_s) = timed_worlds(cfg);

    // Whole rounds over the worlds, so each weighs the same. Each world's
    // first replay is checked; the peak RSS is read at the end of the
    // very first replay, before its check builds a reference store (the
    // peak only grows, so a later reading would include one).
    let mut peak = None;
    let mut checks: Vec<ReplayCheck> = Vec::new();
    let mut replays = Vec::new();
    let mut spent = 0.0;
    while replays.is_empty() || spent < cfg.seconds {
        for world in &worlds {
            let first_round = checks.len() < worlds.len();
            let (r, check) = replay(world, &Obs::noop(), |out, hub| {
                peak.get_or_insert_with(peak_rss_mb);
                first_round.then(|| ReplayCheck::of(out, hub).0)
            });
            spent += r.wall_s;
            checks.extend(check);
            replays.push(r);
        }
    }
    let peak_rss_mb = peak.expect("at least one replay")?;
    let e2e = end_to_end(setup_s, peak_rss_mb, &replays);
    let republish = all_republish_ms(&replays);
    let rt = tail(&republish);
    let total = |f: fn(&ReplayCheck) -> u64| checks.iter().map(f).sum::<u64>();

    let mut problems: Vec<String> = checks.iter().flat_map(ReplayCheck::problems).collect();
    let mut notes = vec![
        format!(
            "epoch_stream: {} worlds of up to {POSTS} posts, {} replays; stream_posts_per_s {:.1} \
             republish_mean_ms {:.4} republish_p50_ms {:.4} republish_tail_ms {:.4} (p{} of {} epochs)",
            worlds.len(),
            replays.len(),
            e2e.throughput_per_s,
            e2e.latency_ms,
            median(&republish),
            rt.value,
            rt.pct,
            rt.n
        ),
        format!(
            "counts: unique_records {} templates {}",
            total(|c| c.records.expected),
            total(|c| c.templates as u64)
        ),
        per_epoch("first world's republish_ms", &replays[0].republish_ms),
    ];

    let layers = if cfg.trace {
        let mut layers = Layers::default();
        layers.set("worldsim.generate_s", setup_s);
        let obs = Obs::enabled();
        let world = &worlds[0];
        let (r, ()) = replay(world, &obs, |out, hub| {
            let (check, full_ms, published) = ReplayCheck::of(out, hub);
            problems.extend(check.problems());
            layers.set("intel.build_full_ms", full_ms);
            layers::exec_series(&obs, out, &mut layers);
            if let Err(e) = layers::simindex(&published, &mut layers) {
                problems.push(e);
            }
            layers::ingest_probes(out, &mut layers, &mut notes);
        });
        layers.set("exec.ingest_s", ingest_only(world, &Obs::enabled()));
        layers.set("exec.snapshot_wait_ms", median(&r.wait_ms));
        layers.set(
            "intel.build_incremental_ms",
            median(&r.build_ms[1.min(r.build_ms.len())..]),
        );
        layers.set(
            "intel.incremental_vs_full_ratio",
            late(&r.build_ms) / layers.get("intel.build_full_ms"),
        );
        layers.set("intel.late_vs_early_ratio", late_vs_early(&r.build_ms));
        notes.push(per_epoch("first world's build_incremental_ms", &r.build_ms));
        // The first world's untraced replay against its traced one.
        end_to_end(setup_s, e2e.peak_rss_mb, &replays[..1]).overhead_into(
            &end_to_end(setup_s, e2e.peak_rss_mb, std::slice::from_ref(&r)),
            &mut layers,
        );
        Some(layers)
    } else {
        None
    };

    notes.extend(problems.iter().map(|p| format!("FAILED: {p}")));
    Ok(Outcome {
        correct: problems.is_empty(),
        attempted: total(|c| c.records.expected),
        failed: total(|c| c.records.failed()),
        e2e,
        layers,
        notes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke() -> RunConfig {
        RunConfig {
            seed: 5,
            seconds: 0.1,
            trace: true,
            scale: 0.02,
            setups: 1,
        }
    }

    #[test]
    fn smoke_run_is_correct_and_republishes_every_epoch() {
        let o = run(&smoke()).unwrap();
        assert!(o.correct, "{:#?}", o.notes);
        assert!(o.attempted > 0 && o.failed == 0);
        let layers = o.layers.as_ref().expect("traced run");
        assert!(layers.get("intel.late_vs_early_ratio") > 0.0);
        assert!(layers.get("exec.snapshot_wait_ms") > 0.0);
        assert!(layers.get("exec.ingest_s") > 0.0);
        assert_eq!(layers.get("analysis.casestudy_ms"), 0.0, "bypassed");
    }

    #[test]
    fn a_wrong_final_store_is_rejected() {
        let world = crate::generate_world(5, 0.02);
        let (r, (honest, tampered)) = replay(&world, &Obs::noop(), |out, hub| {
            let honest = ReplayCheck::of(out, hub).0;
            // A store that ages out everything but the newest second.
            hub.publish(IntelSnapshot::build_full(
                out,
                BuildOptions {
                    window_secs: Some(1),
                    ..BuildOptions::default()
                },
            ));
            (honest, ReplayCheck::of(out, hub).0)
        });
        assert_eq!(r.republish_ms.len() as u64, EPOCHS + 1);
        assert!(honest.problems().is_empty(), "{:?}", honest.problems());
        assert!(!tampered.final_store_matches);
        assert_eq!(tampered.problems().len(), 1);
    }
}
