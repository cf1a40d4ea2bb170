//! Serve-plane benchmark for the `smishing-intel` store.
//!
//! Builds the intelligence store from a batch run, then a seeded query
//! mix over it: known-infrastructure hits (clean *and* defanged
//! spellings), guaranteed misses, similarity (`near`) probes against the
//! SimHash tier, and raw-SMS triage lines that fall through to the model.
//!
//! * The criterion groups time each query class through
//!   [`Triage::answer`], plus `lookup_hit_traced`: the same hit path
//!   through the serve plane's 1-in-64 tail sampler.
//! * The scaling curve replays the mix as serve-protocol lines through
//!   [`serve_workers`] at 1/2/4/8 workers and writes the
//!   `intel.serve.scale.{qps,speedup_x1000}{workers="N"}` gauges to
//!   `target/intel-serve-run-report.json`. On a machine with at least 4
//!   cores, 4 workers must reach twice the q/s of one, or the bench
//!   panics and `cargo bench` fails; on fewer cores the check is skipped.
//! * The near-kernel check times the similarity tier's two kernels over
//!   the store's entry texts against plain passes over the same data,
//!   min of 3, and panics on a breach: `SimIndex::nearest(q, 1)` within
//!   8x an XOR-and-`count_ones` pass over the same signatures, and
//!   `simhash` within 8x `set_hash` on the same shingle sets.
//!
//! The mixed closed loop itself (35/10/35/10/10 URL hit / sender hit /
//! miss / near / msg through `serve_session`) is perfbench's `triage_mix`
//! workload. Set `SMISHING_BENCH_QUICK=1` to skip the criterion groups
//! and shorten the scripted mix; both checks still run (the CI
//! serve-smoke and drift-soak jobs do this).

use criterion::{criterion_group, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use smishing_bench::time_kernel;
use smishing_core::pipeline::Pipeline;
use smishing_intel::{
    serve_workers, IntelHub, IntelSnapshot, Query, ServeOptions, Triage, TriageConfig, WorkerPlan,
};
use smishing_obs::{Obs, Tracer, TracerConfig};
use smishing_simindex::{set_hash, simhash, SimQuery};
use smishing_types::AdversaryPlan;
use smishing_worldsim::{World, WorldConfig};
use std::hint::black_box;
use std::io::Write;
use std::time::Instant;

const SEED: u64 = 0x1A7E;

fn bench_world() -> World {
    // `SMISHING_BENCH_ADVERSARY=PROFILE[:SEED]` builds the store from an
    // adversarial world, so the CI drift-soak job runs the scaling check
    // on the drifted path; unset keeps the base world (the serve-smoke
    // job).
    let adversary = std::env::var("SMISHING_BENCH_ADVERSARY")
        .ok()
        .map(|s| {
            s.parse::<AdversaryPlan>()
                .expect("SMISHING_BENCH_ADVERSARY must be PROFILE[:SEED]")
        })
        .unwrap_or_default();
    World::generate(WorldConfig {
        scale: 0.02,
        seed: SEED,
        adversary,
        ..WorldConfig::default()
    })
}

/// The seeded query mix: (hit keys, miss keys, near texts, triage texts).
struct QueryMix {
    hit_urls: Vec<String>,
    hit_senders: Vec<String>,
    miss_urls: Vec<String>,
    near_texts: Vec<String>,
    texts: Vec<String>,
}

fn build_mix(world: &World, snap: &IntelSnapshot, rng: &mut StdRng) -> QueryMix {
    let mut hit_urls = Vec::new();
    let mut hit_senders = Vec::new();
    for e in snap.entries() {
        if let Some(u) = e.url {
            let clean = snap.resolve(u).to_string();
            // Every other hit uses a defanged spelling — same verdict,
            // full normalization cost.
            if hit_urls.len() % 2 == 0 {
                hit_urls.push(clean);
            } else {
                hit_urls.push(
                    clean
                        .replacen("https://", "hxxps://", 1)
                        .replacen("http://", "hxxp://", 1)
                        .replace('.', "[.]"),
                );
            }
        }
        if let Some(s) = e.sender {
            hit_senders.push(snap.resolve(s).to_string());
        }
    }
    let miss_urls = (0..4096)
        .map(|i| {
            format!(
                "https://never-reported-{i}-{:x}.example/x",
                rng.r#gen::<u32>()
            )
        })
        .collect();
    // Similarity probes: indexed lure texts (every one signs to a
    // non-empty shingle set, so the candidate scan always runs).
    let near_texts: Vec<String> = snap
        .entries()
        .iter()
        .enumerate()
        .filter(|(id, _)| !snap.sim().shingles_of(*id as u32).is_empty())
        .step_by(2)
        .map(|(_, e)| e.text.clone())
        .collect();
    // Triage bodies: real smishing texts (some resolve via the index,
    // the rest exercise extraction + model scoring).
    let texts = world
        .messages
        .iter()
        .step_by(3)
        .map(|m| m.text.clone())
        .collect();
    QueryMix {
        hit_urls,
        hit_senders,
        miss_urls,
        near_texts,
        texts,
    }
}

/// The store built from a batch run over `world`, its seeded query mix,
/// and the rng that drew the mix. The store's model is trained here, so
/// no timed region pays for it.
fn store_and_mix(world: &World) -> (IntelHub, QueryMix, StdRng) {
    let out = Pipeline::default().run(world, &Obs::noop());
    let hub = IntelHub::new();
    hub.publish(IntelSnapshot::build(&out));
    let snap = hub.latest().expect("published");
    snap.model();
    let mut rng = StdRng::seed_from_u64(SEED);
    let mix = build_mix(world, &snap, &mut rng);
    (hub, mix, rng)
}

/// Render the seeded mix as serve-protocol request lines: ~35% URL hits,
/// ~10% sender hits, ~35% misses, ~10% similarity (`near`) probes and
/// ~10% full triage.
fn build_script(mix: &QueryMix, n: u64, rng: &mut StdRng) -> String {
    let mut s = String::new();
    for _ in 0..n {
        let roll: u32 = rng.gen_range(0..100);
        if roll < 35 {
            s.push_str("url ");
            s.push_str(&mix.hit_urls[rng.gen_range(0..mix.hit_urls.len())]);
        } else if roll < 45 {
            s.push_str("sender ");
            s.push_str(&mix.hit_senders[rng.gen_range(0..mix.hit_senders.len())]);
        } else if roll < 80 {
            s.push_str("url ");
            s.push_str(&mix.miss_urls[rng.gen_range(0..mix.miss_urls.len())]);
        } else if roll < 90 && !mix.near_texts.is_empty() {
            s.push_str("near ");
            s.push_str(&mix.near_texts[rng.gen_range(0..mix.near_texts.len())]);
        } else {
            s.push_str("msg ");
            s.push_str(&mix.texts[rng.gen_range(0..mix.texts.len())]);
        }
        s.push('\n');
    }
    s
}

/// Replay the scripted mix through [`serve_workers`] at 1/2/4/8 workers
/// and export the throughput curve as `intel.serve.scale.qps` gauges
/// plus a speedup-vs-one-worker gauge, both labeled by worker count. The
/// queue depth covers the whole script: an in-memory replay outruns any
/// worker pool, and shed requests cost nothing, so admission sheds here
/// would fake a speedup.
///
/// Panics when 4 workers reach less than twice one worker's q/s on a
/// machine with at least 4 cores; fewer cores cannot show the speedup,
/// so there the check is skipped.
fn scaling_curve(hub: &IntelHub, mix: &QueryMix, obs: &Obs, quick: bool, rng: &mut StdRng) {
    let script_n: u64 = if quick { 8_000 } else { 200_000 };
    let script = build_script(mix, script_n, rng);
    let (mut qps_one, mut qps_four) = (0.0f64, 0.0f64);
    for workers in [1usize, 2, 4, 8] {
        let t = Instant::now();
        let session = serve_workers(
            hub,
            TriageConfig::default(),
            script.as_bytes(),
            std::io::sink(),
            &Obs::noop(),
            ServeOptions::default(),
            &WorkerPlan::new(workers, script_n as usize),
        )
        .expect("scaling run");
        let wall = t.elapsed();
        assert_eq!(session.stats.shed, 0, "scaling run must not shed");
        let qps = session.stats.queries as f64 / wall.as_secs_f64();
        if workers == 1 {
            qps_one = qps;
        }
        if workers == 4 {
            qps_four = qps;
        }
        let speedup = if qps_one > 0.0 { qps / qps_one } else { 1.0 };
        let label = workers.to_string();
        obs.gauge("intel.serve.scale.qps", &[("workers", &label)])
            .set(qps as i64);
        obs.gauge("intel.serve.scale.speedup_x1000", &[("workers", &label)])
            .set((speedup * 1000.0).round() as i64);
        eprintln!(
            "scaling: workers={workers} — {} queries in {:.2}s, {qps:.0} q/s ({speedup:.2}x vs 1 worker)",
            session.stats.queries,
            wall.as_secs_f64(),
        );
    }
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cores < 4 {
        eprintln!(
            "scaling: only {cores} cores, workers=4 >= 2x workers=1 check skipped (needs >= 4)"
        );
        return;
    }
    let speedup = qps_four / qps_one.max(1.0);
    assert!(
        speedup >= 2.0,
        "workers=4 ({qps_four:.0} q/s) is only {speedup:.2}x workers=1 ({qps_one:.0} q/s) \
         on {cores} cores (want >= 2x)"
    );
    eprintln!("scaling: workers=4 speedup {speedup:.2}x over workers=1 on {cores} cores");
}

/// The near rung's kernels must cost a small multiple of a plain pass
/// over the same data, over the store's entry texts: `nearest(q, 1)` at
/// most 8x XOR plus `count_ones` against every signature, and `simhash`
/// at most 8x `set_hash` of the same shingle set. The block-masked,
/// bucketed, lazily re-ranked scan and the bit-sliced count read
/// 2.8-4.3x and 2.8-3.1x on a 2-core VM; the full sort with 48 Jaccards
/// and the vote loop they replaced read 22-27x and 29-36x.
fn near_kernel_check(hub: &IntelHub) {
    let snap = hub.latest().expect("published");
    let sim = snap.sim();
    let queries: Vec<SimQuery> = snap
        .texts()
        .map(|text| sim.query(text))
        .filter(|q| !q.is_empty())
        .collect();
    let sigs: Vec<u64> = (0..sim.len() as u32).map(|id| sim.sig(id)).collect();
    let max_hamming = sim.config().max_hamming;
    let scan_ns = time_kernel(&queries, |q| {
        sigs.iter()
            .filter(|&&s| (q.sig ^ s).count_ones() <= max_hamming)
            .count()
    })
    .max(1) as f64;
    let nearest = time_kernel(&queries, |q| sim.nearest(q, 1)) as f64 / scan_ns;
    let set_hash_ns = time_kernel(&queries, |q| set_hash(&q.shingles)).max(1) as f64;
    let signing = time_kernel(&queries, |q| simhash(&q.shingles)) as f64 / set_hash_ns;
    let per_query = |ns: f64| ns / 1e3 / queries.len().max(1) as f64;
    eprintln!(
        "near kernels over {} queries x {} docs (min of 3): nearest {nearest:.2}x \
         the XOR + count_ones pass ({:.2}us per query, budget 8x), simhash {signing:.2}x \
         set_hash ({:.3}us per query, budget 8x)",
        queries.len(),
        sigs.len(),
        per_query(scan_ns),
        per_query(set_hash_ns),
    );
    assert!(
        nearest <= 8.0,
        "nearest costs {nearest:.2}x an XOR + count_ones pass (budget 8x)"
    );
    assert!(
        signing <= 8.0,
        "simhash costs {signing:.2}x set_hash (budget 8x)"
    );
}

fn bench_intel_serve(c: &mut Criterion) {
    let (hub, mix, _) = store_and_mix(&bench_world());
    let mut triage = Triage::new(hub.reader());

    let mut g = c.benchmark_group("intel_serve");
    g.bench_function("lookup_hit", |b| {
        let mut i = 0usize;
        b.iter(|| {
            i = (i + 1) % mix.hit_urls.len();
            black_box(triage.answer(&Query::Url(&mix.hit_urls[i]), None))
        })
    });
    // Same hit path through the serve plane's tail sampler (default
    // 1-in-64): the delta vs `lookup_hit` is the tracing overhead the
    // acceptance bar holds under 5% on p99.
    g.bench_function("lookup_hit_traced", |b| {
        let mut tracer = Tracer::new(TracerConfig::default());
        let mut i = 0usize;
        b.iter(|| {
            i = (i + 1) % mix.hit_urls.len();
            let q = &mix.hit_urls[i];
            let mut tb = tracer.begin(q);
            let a = triage.answer(&Query::Url(q), tb.as_mut());
            if let Some(tb) = tb {
                tracer.finish(tb.finish("hit"));
            }
            black_box(a)
        })
    });
    g.bench_function("lookup_miss_cached", |b| {
        b.iter(|| black_box(triage.answer(&Query::Url(&mix.miss_urls[0]), None)))
    });
    g.bench_function("near_lookup", |b| {
        let mut i = 0usize;
        b.iter(|| {
            i = (i + 1) % mix.near_texts.len();
            black_box(triage.answer(&Query::Near(&mix.near_texts[i]), None))
        })
    });
    g.bench_function("triage_model", |b| {
        let mut i = 0usize;
        b.iter(|| {
            i = (i + 1) % mix.texts.len();
            let text = &mix.texts[i];
            black_box(triage.answer(&Query::Msg { sender: None, text }, None))
        })
    });
    g.finish();
}

/// The worker-plane scaling curve, written as one run-report artifact,
/// and the near-kernel check.
fn serve_report(quick: bool) {
    let obs = Obs::enabled();
    let (hub, mix, mut rng) = store_and_mix(&bench_world());
    near_kernel_check(&hub);
    scaling_curve(&hub, &mix, &obs, quick, &mut rng);

    let target = std::env::var("CARGO_TARGET_DIR")
        .unwrap_or_else(|_| concat!(env!("CARGO_MANIFEST_DIR"), "/../../target").to_string());
    let path = format!("{target}/intel-serve-run-report.json");
    match std::fs::File::create(&path).and_then(|mut f| f.write_all(obs.json_report().as_bytes())) {
        Ok(()) => eprintln!("wrote serve run report to {path}"),
        Err(e) => eprintln!("could not write serve run report to {path}: {e}"),
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default();
    targets = bench_intel_serve
}

fn main() {
    let quick = std::env::var_os("SMISHING_BENCH_QUICK").is_some();
    if !quick {
        benches();
    }
    serve_report(quick);
}
