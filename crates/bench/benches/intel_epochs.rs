//! Epoch-lifecycle benchmark for the incremental intel store.
//!
//! Three measurements:
//!
//! * A criterion pair on one mid-stream epoch — `incremental_republish`
//!   (fold the aligned snapshot's curated delta into the previous store)
//!   vs `full_rebuild` (from-scratch build of the same state) — the
//!   direct O(delta) vs O(history) comparison.
//! * A multi-epoch soak: the infinite feed replays the world's reports
//!   with fresh post ids and advancing timestamps, an aligned snapshot
//!   fires every quarter lap (constant delta per epoch), and each epoch
//!   is republished incrementally *and* rebuilt from scratch. Per-epoch
//!   wall times land in `intel.epoch.incremental_build_ns` /
//!   `intel.epoch.full_build_ns`; every epoch also asserts the two
//!   builds are byte-identical, so the soak doubles as an equivalence
//!   battery. A half-span aging window keeps the store churning —
//!   entries age out as the soak lap moves past them and resurrect when
//!   it comes back around — which is exactly the steady state a
//!   long-lived server sees.
//! * A pure-growth phase: one replay of the world with no window and 32
//!   aligned epochs, so the store only grows, asserting incremental ==
//!   from-scratch at every epoch. The soak's window keeps its store flat,
//!   so only this phase sees republish cost follow history instead of
//!   the delta.
//!
//! Exported gauges: `intel.epoch.late_vs_early_x1000` (late-epoch median
//! over early-epoch median incremental latency — ~1000 means republish
//! cost stayed flat while history grew), `intel.epoch.full_vs_incremental_x1000`
//! (median from-scratch/incremental speedup), `intel.epoch.rss_bytes`
//! (process RSS after the soak) and
//! `intel.epoch.growth_full_vs_incremental_x1000` (the growth phase's
//! median speedup over its last 8 epochs). The report is written to
//! `target/intel-epochs-run-report.json`. Then the bench panics, which
//! fails `cargo bench`, when late/early is above 3.0, the soak speedup
//! below 1.0, RSS above 1.5 GiB or the growth speedup below
//! `GROWTH_FLOOR` (12.0).
//! `SMISHING_BENCH_QUICK=1` skips criterion and shrinks the soak (the CI
//! epoch-soak job does).

use criterion::{criterion_group, Criterion};
use smishing_core::exec::{ingest, ExecPlan, SnapshotPlan};
use smishing_core::CurationOptions;
use smishing_intel::{process_rss_bytes, BuildOptions, IntelSnapshot, SnapshotDelta};
use smishing_obs::Obs;
use smishing_worldsim::{ReportStream, World, WorldConfig};
use std::hint::black_box;
use std::io::Write;
use std::time::Instant;

const SEED: u64 = 0xE90C;

fn bench_world(quick: bool) -> World {
    World::generate(WorldConfig {
        scale: if quick { 0.01 } else { 0.02 },
        seed: SEED,
        ..WorldConfig::default()
    })
}

/// Aligned epochs of the pure-growth phase, and how many of the last
/// ones its speedup is the median over.
const GROWTH_EPOCHS: u64 = 32;
const GROWTH_LATE: usize = 8;

/// The least median full/incremental speedup the pure-growth phase
/// accepts. In quick mode on a 2-core VM a republish that renumbers its
/// symbols read 24.1–25.2x, and one that re-interned every reused
/// entry's key strings and hashed them into per-pivot maps 6.0–6.2x.
const GROWTH_FLOOR: f64 = 12.0;

fn median(xs: &[u64]) -> u64 {
    let mut v = xs.to_vec();
    v.sort_unstable();
    v[v.len() / 2]
}

/// Criterion pair: replay the stream to a mid-run aligned snapshot, keep
/// the chained previous store, and time the two ways of reaching the
/// same published state.
fn bench_intel_epochs(c: &mut Criterion) {
    let world = bench_world(false);
    let curation = CurationOptions::default();
    let every = (world.posts.len() as u64 / 8).max(1);
    let plan = ExecPlan::default().with_snapshots(SnapshotPlan::every(every));
    let opts = BuildOptions::default();
    let mut prev: Option<IntelSnapshot> = None;
    let mut fixture = None;
    let _ = ingest(
        &world,
        ReportStream::replay(&world),
        &curation,
        &plan,
        &Obs::noop(),
        |s| {
            let inc = IntelSnapshot::build_incremental(
                &s.output,
                prev.as_ref(),
                SnapshotDelta::new(&s.curated_delta),
                opts,
            );
            if let Some(p) = prev.take() {
                // Keep the *latest* interior epoch: largest history,
                // same-sized delta — the steepest O(delta) vs O(history)
                // contrast the stream offers. The engine lends the
                // snapshot, so the fixture is a copy.
                fixture = Some((s.output.clone(), s.curated_delta.clone(), p));
            }
            prev = Some(inc);
        },
    );
    let (output, delta, fix_prev) = fixture.expect("at least two aligned snapshots");

    let mut g = c.benchmark_group("intel_epochs");
    g.bench_function("incremental_republish", |b| {
        b.iter(|| {
            black_box(IntelSnapshot::build_incremental(
                &output,
                Some(&fix_prev),
                SnapshotDelta::new(&delta),
                opts,
            ))
        })
    });
    g.bench_function("full_rebuild", |b| {
        b.iter(|| black_box(IntelSnapshot::build_full(&output, opts)))
    });
    g.finish();
}

/// The pure-growth phase: replay `world` once with no aging window and
/// [`GROWTH_EPOCHS`] aligned epochs, republishing incrementally and
/// rebuilding from scratch at each, and assert the two are identical.
/// Returns the median full/incremental speedup (x1000) over the last
/// [`GROWTH_LATE`] epochs, where the history is largest.
fn growth_speedup_x1000(world: &World) -> u64 {
    let every = (world.posts.len() as u64 / GROWTH_EPOCHS).max(1);
    let plan = ExecPlan::default().with_snapshots(SnapshotPlan::every(every));
    let opts = BuildOptions::default();
    let mut prev: Option<IntelSnapshot> = None;
    let mut speedups: Vec<u64> = Vec::new();
    ingest(
        world,
        ReportStream::replay(world),
        &CurationOptions::default(),
        &plan,
        &Obs::noop(),
        |s| {
            let t = Instant::now();
            let snap = IntelSnapshot::build_incremental(
                &s.output,
                prev.as_ref(),
                SnapshotDelta::new(&s.curated_delta),
                opts,
            );
            let inc = t.elapsed().as_nanos() as u64;
            let t = Instant::now();
            let oracle = IntelSnapshot::build_full(&s.output, opts);
            let full = t.elapsed().as_nanos() as u64;
            assert!(
                snap == oracle,
                "growth: incremental build diverged from from-scratch at {} posts",
                s.at_posts
            );
            speedups.push((full as f64 / inc.max(1) as f64 * 1000.0) as u64);
            prev = Some(snap);
        },
    );
    let late = median(&speedups[speedups.len().saturating_sub(GROWTH_LATE)..]);
    let per_epoch: Vec<String> = speedups
        .iter()
        .map(|&x| format!("{:.1}", x as f64 / 1000.0))
        .collect();
    eprintln!(
        "growth: {} epochs to {} entries, full/inc per epoch: {}; \
         last-{GROWTH_LATE} median {:.1}x",
        speedups.len(),
        prev.map_or(0, |p| p.len()),
        per_epoch.join(" "),
        late as f64 / 1000.0,
    );
    late
}

/// The multi-epoch soak + per-epoch equivalence battery, written as one
/// run-report artifact.
fn epoch_report(quick: bool) {
    let world = bench_world(quick);
    let obs = Obs::enabled();
    let curation = CurationOptions::default();
    let lap = world.posts.len() as u64;
    let every = (lap / 4).max(1);
    let epochs: u64 = if quick { 12 } else { 32 };
    let budget = (epochs * every) as usize;
    let span = {
        let min = world.posts.iter().map(|p| p.posted_at.0).min().unwrap_or(0);
        let max = world.posts.iter().map(|p| p.posted_at.0).max().unwrap_or(1);
        (max - min).max(2) as u64
    };
    // Half-span window: as the soak lap advances, entries last reported
    // more than half a history span ago age out and resurrect when the
    // loop re-reports them — continuous eviction churn at steady state.
    let opts = BuildOptions {
        window_secs: Some(span / 2),
    };
    let plan = ExecPlan::default().with_snapshots(SnapshotPlan::every(every));
    let inc_ns = obs.histogram("intel.epoch.incremental_build_ns", &[]);
    let full_ns = obs.histogram("intel.epoch.full_build_ns", &[]);
    let mut prev: Option<IntelSnapshot> = None;
    let mut inc_walls: Vec<u64> = Vec::new();
    let mut speedups: Vec<u64> = Vec::new();
    let result = ingest(
        &world,
        ReportStream::soak(&world).take(budget),
        &curation,
        &plan,
        &Obs::noop(),
        |s| {
            let t = Instant::now();
            let snap = IntelSnapshot::build_incremental(
                &s.output,
                prev.as_ref(),
                SnapshotDelta::new(&s.curated_delta),
                opts,
            );
            let inc = t.elapsed().as_nanos() as u64;
            let t = Instant::now();
            let oracle = IntelSnapshot::build_full(&s.output, opts);
            let full = t.elapsed().as_nanos() as u64;
            assert!(
                snap == oracle,
                "incremental build diverged from from-scratch at {} posts",
                s.at_posts
            );
            inc_ns.record(inc);
            full_ns.record(full);
            inc_walls.push(inc);
            speedups.push((full as f64 / inc.max(1) as f64 * 1000.0) as u64);
            eprintln!(
                "epoch {:>3} @ {:>7} posts: delta {:>5} | inc {:>8.2}ms vs full {:>8.2}ms \
                 ({:>5.1}x) | {} entries, {} evicted",
                inc_walls.len(),
                s.at_posts,
                s.curated_delta.len(),
                inc as f64 / 1e6,
                full as f64 / 1e6,
                full as f64 / inc.max(1) as f64,
                snap.len(),
                snap.evicted_count(),
            );
            prev = Some(snap);
        },
    );

    // Flatness: epoch 1 is a cold full build (nothing to fold into), so
    // early = epochs 2..4. With constant deltas, late-vs-early near 1000
    // means republish cost did not grow with history.
    let early = median(&inc_walls[1..inc_walls.len().min(4)]);
    let late = median(&inc_walls[inc_walls.len().saturating_sub(3)..]);
    let flat = (late as f64 / early.max(1) as f64 * 1000.0) as i64;
    let speedup = median(&speedups[1..]) as i64;
    let rss = process_rss_bytes();
    let growth = growth_speedup_x1000(&world) as i64;
    obs.counter("intel.epoch.epochs", &[])
        .add(inc_walls.len() as u64);
    obs.counter("intel.epoch.posts", &[])
        .add(result.posts_ingested);
    obs.gauge("intel.epoch.late_vs_early_x1000", &[]).set(flat);
    obs.gauge("intel.epoch.full_vs_incremental_x1000", &[])
        .set(speedup);
    obs.gauge("intel.epoch.rss_bytes", &[]).set(rss as i64);
    obs.gauge("intel.epoch.growth_full_vs_incremental_x1000", &[])
        .set(growth);
    let (flat, speedup, growth) = (
        flat as f64 / 1000.0,
        speedup as f64 / 1000.0,
        growth as f64 / 1000.0,
    );
    eprintln!(
        "soak: {} epochs over {} posts ({:.1} laps) — early inc median {:.2}ms, \
         late {:.2}ms (late/early {:.2}), full/inc speedup {:.1}x, rss {:.1} MiB",
        inc_walls.len(),
        result.posts_ingested,
        result.posts_ingested as f64 / lap as f64,
        early as f64 / 1e6,
        late as f64 / 1e6,
        flat,
        speedup,
        rss as f64 / (1024.0 * 1024.0),
    );

    let target = std::env::var("CARGO_TARGET_DIR")
        .unwrap_or_else(|_| concat!(env!("CARGO_MANIFEST_DIR"), "/../../target").to_string());
    let path = format!("{target}/intel-epochs-run-report.json");
    match std::fs::File::create(&path).and_then(|mut f| f.write_all(obs.json_report().as_bytes())) {
        Ok(()) => eprintln!("wrote epoch run report to {path}"),
        Err(e) => eprintln!("could not write epoch run report to {path}: {e}"),
    }

    // Constant deltas must mean constant republish cost: 3x absorbs
    // runner noise, while O(history) growth over three laps blows past
    // it. One bounded store plus one world fits in 1.5 GiB; a
    // per-republish leak across the soak would not. And folding a delta
    // must not be slower than rebuilding from scratch. Where the store
    // only grows, an O(delta) republish outruns the O(history) rebuild
    // by a margin that widens with history: the floor holds it, while
    // one that re-interns every reused entry's keys reads about half of
    // it, and one that re-derives every entry's link keys and reruns the
    // whole template pass whenever a doc leaves under 2x.
    let breaches: Vec<String> = [
        (
            flat > 3.0,
            format!("republish latency grew {flat:.2}x early->late (budget 3x)"),
        ),
        (rss > 3 << 29, format!("rss {rss} over the 1.5 GiB budget")),
        (
            speedup < 1.0,
            format!("incremental republish slower than from-scratch ({speedup:.2}x)"),
        ),
        (
            growth < GROWTH_FLOOR,
            format!(
                "pure growth: full/incremental speedup {growth:.2}x over the last \
                 {GROWTH_LATE} epochs (budget {GROWTH_FLOOR}x)"
            ),
        ),
    ]
    .into_iter()
    .filter_map(|(breached, why)| breached.then_some(why))
    .collect();
    assert!(breaches.is_empty(), "epoch soak: {}", breaches.join("; "));
}

criterion_group! {
    name = benches;
    config = Criterion::default();
    targets = bench_intel_epochs
}

fn main() {
    let quick = std::env::var_os("SMISHING_BENCH_QUICK").is_some();
    if !quick {
        benches();
    }
    epoch_report(quick);
}
