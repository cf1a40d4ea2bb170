//! Closed-loop load generator for the `smishing-intel` serving layer.
//!
//! Builds the intelligence store from a batch run, then replays a seeded
//! stream of mixed queries against [`Triage`] — known-infrastructure
//! hits (clean *and* defanged spellings), guaranteed misses, similarity
//! (`near`) probes against the SimHash tier, and raw-SMS triage calls
//! that fall through to the model — measuring per-query latency into
//! `smishing-obs` histograms (`intel.serve.*` plus `intel.near.lookup_ns`
//! and the `intel.near.candidates` candidate-set-size distribution) and
//! reporting throughput plus p50/p90/p99 per class.
//!
//! Every invocation also runs the ground-truth triage evaluation
//! (precision/recall vs the campaign-held-out model baseline, per seed)
//! and writes everything into `target/intel-serve-run-report.json`. Set
//! `SMISHING_BENCH_QUICK=1` to skip the criterion groups and shrink the
//! closed loop (the CI serve-smoke job does).

use criterion::{criterion_group, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use smishing_core::pipeline::Pipeline;
use smishing_intel::{
    evaluate_triage, serve_workers, verdict_label, IntelHub, IntelSnapshot, Query, ServeOptions,
    Triage, TriageConfig, WorkerPlan,
};
use smishing_obs::{Obs, Tracer, TracerConfig};
use smishing_types::AdversaryPlan;
use smishing_worldsim::{World, WorldConfig};
use std::hint::black_box;
use std::io::Write;
use std::time::Instant;

const SEED: u64 = 0x1A7E;

fn bench_world() -> World {
    // `SMISHING_BENCH_ADVERSARY=PROFILE[:SEED]` builds the store from an
    // adversarial world so the CI drift-soak job can gate serve latency
    // on the drifted path with the same report shape the baseline has;
    // unset keeps the baseline world (the serve-smoke job).
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
        // Probes feed the ground-truth probe-recall gauges in the report;
        // they never enter the report stream, so the store is unchanged.
        template_variants: 0.25,
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

/// Drive `n` queries through the triage head: ~35% URL hits, ~10% sender
/// hits, ~35% misses, ~10% similarity (`near`) probes, ~10% full triage.
/// With a `tracer`, every query goes through the serve plane's tail
/// sampling (default 1-in-64) exactly like `smish serve` does, and the
/// latencies land in `intel.serve.traced.*` / `intel.near.traced.*`
/// histograms so the sampling overhead is directly comparable.
/// Returns (hits, misses, near_hits, triaged).
fn closed_loop(
    triage: &mut Triage,
    mix: &QueryMix,
    n: u64,
    obs: &Obs,
    rng: &mut StdRng,
    mut tracer: Option<&mut Tracer>,
) -> (u64, u64, u64, u64) {
    let (lu, tr, ne, nc) = if tracer.is_some() {
        (
            "intel.serve.traced.lookup_ns",
            "intel.serve.traced.triage_ns",
            "intel.near.traced.lookup_ns",
            "intel.near.traced.candidates",
        )
    } else {
        (
            "intel.serve.lookup_ns",
            "intel.serve.triage_ns",
            "intel.near.lookup_ns",
            "intel.near.candidates",
        )
    };
    let lookup_ns = obs.histogram(lu, &[]);
    let triage_ns = obs.histogram(tr, &[]);
    let near_ns = obs.histogram(ne, &[]);
    let near_cand = obs.histogram(nc, &[]);
    let (mut hits, mut misses, mut near_hits, mut triaged) = (0u64, 0u64, 0u64, 0u64);
    for _ in 0..n {
        let roll: u32 = rng.gen_range(0..100);
        let (pool, query_of): (&[String], fn(&str) -> Query<'_>) = if roll < 35 {
            (&mix.hit_urls, |q| Query::Url(q))
        } else if roll < 45 {
            (&mix.hit_senders, |q| Query::Sender(q))
        } else if roll < 80 {
            (&mix.miss_urls, |q| Query::Url(q))
        } else if roll < 90 && !mix.near_texts.is_empty() {
            (&mix.near_texts, |q| Query::Near(q))
        } else {
            (&mix.texts, |text| Query::Msg { sender: None, text })
        };
        let q = &pool[rng.gen_range(0..pool.len())];
        let query = query_of(q);
        let (hist, name) = match query {
            Query::Url(_) | Query::Sender(_) => (&lookup_ns, lu),
            Query::Near(_) => (&near_ns, ne),
            Query::Msg { .. } => (&triage_ns, tr),
        };
        let mut tb = tracer.as_deref_mut().and_then(|tc| tc.begin(q));
        let t = Instant::now();
        let a = triage.answer(&query, tb.as_mut());
        let ns = t.elapsed().as_nanos() as u64;
        hist.record(ns);
        if let (Some(tc), Some(tb)) = (tracer.as_deref_mut(), tb) {
            tc.exemplar(name, tb.id(), ns);
            tc.finish(tb.finish(verdict_label(&a.verdict)));
        }
        match query {
            Query::Url(_) | Query::Sender(_) if a.verdict.attribution().is_some() => hits += 1,
            Query::Url(_) | Query::Sender(_) => misses += 1,
            Query::Near(_) => {
                near_cand.record(a.candidates as u64);
                near_hits += u64::from(a.verdict.near().is_some());
            }
            Query::Msg { .. } => {
                triaged += 1;
                black_box(a.verdict.score());
            }
        }
    }
    (hits, misses, near_hits, triaged)
}

/// Render the seeded mix as serve-protocol request lines — the same
/// ~35/10/35/10/10 hit/sender/miss/near/triage blend `closed_loop`
/// drives, but as the line protocol the worker plane speaks.
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
/// (labeled by worker count — `qps` in the name means `smish perfdiff`
/// gates them as higher-better once baselined) plus an informational
/// speedup-vs-one-worker gauge. The queue depth covers the whole script:
/// an in-memory replay outruns any worker pool, and shed requests cost
/// nothing, so admission sheds here would fake a speedup.
fn scaling_curve(hub: &IntelHub, mix: &QueryMix, obs: &Obs, quick: bool, rng: &mut StdRng) {
    let script_n: u64 = if quick { 8_000 } else { 200_000 };
    let script = build_script(mix, script_n, rng);
    let mut qps_one = 0.0f64;
    for workers in [1usize, 2, 4, 8] {
        // Skip model training: it runs lazily per worker instance, so a
        // bigger pool would pay more one-off startup inside the timed
        // region and the curve would understate real scaling.
        let cfg = TriageConfig {
            train_model: false,
            ..TriageConfig::default()
        };
        let t = Instant::now();
        let session = serve_workers(
            hub,
            cfg,
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
}

fn bench_intel_serve(c: &mut Criterion) {
    let world = bench_world();
    let out = Pipeline::default().run(&world, &Obs::noop());
    let hub = IntelHub::new();
    hub.publish(IntelSnapshot::build(&out));
    let snap = hub.latest().expect("published");
    let mut rng = StdRng::seed_from_u64(SEED);
    let mix = build_mix(&world, &snap, &mut rng);
    let mut triage = Triage::new(hub.reader());
    triage.snapshot(); // train the model outside the timed region

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

/// The closed-loop run + ground-truth scorecard, written as one artifact.
fn serve_report(quick: bool) {
    let world = bench_world();
    let obs = Obs::enabled();
    let out = Pipeline::default().run(&world, &Obs::noop());
    let hub = IntelHub::new();
    hub.publish(IntelSnapshot::build(&out));
    let snap = hub.latest().expect("published");
    let mut rng = StdRng::seed_from_u64(SEED);
    let mix = build_mix(&world, &snap, &mut rng);
    let mut triage = Triage::new(hub.reader());
    triage.snapshot(); // train before the loop

    let n: u64 = if quick { 50_000 } else { 2_000_000 };
    // Clone the rng so the traced re-run below replays the *identical*
    // query sequence — any latency delta is tracing, not the mix.
    let mut rng_traced = rng.clone();
    let t = Instant::now();
    let (hits, misses, near_hits, triaged) =
        closed_loop(&mut triage, &mix, n, &obs, &mut rng, None);
    let wall = t.elapsed();
    let qps = n as f64 / wall.as_secs_f64();
    obs.counter("intel.serve.queries", &[]).add(n);
    obs.counter("intel.serve.hits", &[]).add(hits);
    obs.counter("intel.serve.misses", &[]).add(misses);
    obs.counter("intel.serve.near_hits", &[]).add(near_hits);
    obs.counter("intel.serve.triaged", &[]).add(triaged);
    obs.gauge("intel.serve.qps", &[]).set(qps as i64);

    let lookup = obs.histogram("intel.serve.lookup_ns", &[]);
    eprintln!(
        "closed loop: {n} queries in {:.2}s — {qps:.0} q/s ({hits} hits / {misses} misses / {near_hits} near hits / {triaged} triaged)",
        wall.as_secs_f64()
    );
    eprintln!(
        "lookup latency: p50 {:.1}us  p90 {:.1}us  p99 {:.1}us",
        lookup.quantile(0.50) / 1e3,
        lookup.quantile(0.90) / 1e3,
        lookup.quantile(0.99) / 1e3,
    );
    let near = obs.histogram("intel.near.lookup_ns", &[]);
    let cand = obs.histogram("intel.near.candidates", &[]);
    eprintln!(
        "near latency: p50 {:.1}us  p90 {:.1}us  p99 {:.1}us | candidates p50 {:.0} p99 {:.0}",
        near.quantile(0.50) / 1e3,
        near.quantile(0.90) / 1e3,
        near.quantile(0.99) / 1e3,
        cand.quantile(0.50),
        cand.quantile(0.99),
    );

    // Traced re-run: identical query sequence through the serve plane's
    // default 1-in-64 tail sampler. The ratio gauge is informational
    // (×1000); the regression gate bites on the traced `*_ns` histogram
    // quantiles themselves, which are lower-better like any latency.
    let mut tracer = Tracer::new(TracerConfig::default());
    let t = Instant::now();
    closed_loop(
        &mut triage,
        &mix,
        n,
        &obs,
        &mut rng_traced,
        Some(&mut tracer),
    );
    let wall_traced = t.elapsed();
    tracer.export(&obs);
    let traced = obs.histogram("intel.serve.traced.lookup_ns", &[]);
    let (base_p99, traced_p99) = (lookup.quantile(0.99), traced.quantile(0.99));
    let overhead = if base_p99 > 0.0 {
        traced_p99 / base_p99
    } else {
        1.0
    };
    obs.gauge("intel.serve.traced_p99_ratio_x1000", &[])
        .set((overhead * 1000.0).round() as i64);
    eprintln!(
        "traced loop: {n} queries in {:.2}s — lookup p99 {:.1}us vs {:.1}us untraced ({:+.1}% with 1-in-{} sampling)",
        wall_traced.as_secs_f64(),
        traced_p99 / 1e3,
        base_p99 / 1e3,
        (overhead - 1.0) * 100.0,
        TracerConfig::default().sample_every,
    );

    scaling_curve(&hub, &mix, &obs, quick, &mut rng);

    // Ground-truth scorecard per seed: full stack vs the campaign-held-out
    // baseline, exported as permille gauges so the run report carries it.
    if let Some(e) = evaluate_triage(&world, &out, SEED) {
        let permille = |v: f64| (v * 1000.0).round() as i64;
        obs.gauge("intel.eval.triage_precision_permille", &[])
            .set(permille(e.triage_precision));
        obs.gauge("intel.eval.triage_recall_permille", &[])
            .set(permille(e.triage_recall));
        obs.gauge("intel.eval.baseline_precision_permille", &[])
            .set(permille(e.baseline_precision));
        obs.gauge("intel.eval.baseline_recall_permille", &[])
            .set(permille(e.baseline_recall));
        obs.gauge("intel.eval.attribution_accuracy_permille", &[])
            .set(permille(e.attribution_accuracy));
        obs.gauge("intel.eval.probe_exact_recall_permille", &[])
            .set(permille(e.probe_exact_recall));
        obs.gauge("intel.eval.probe_near_recall_permille", &[])
            .set(permille(e.probe_near_recall));
        eprintln!(
            "scorecard: triage P {:.3} R {:.3} | baseline P {:.3} R {:.3} | attribution {:.3}",
            e.triage_precision,
            e.triage_recall,
            e.baseline_precision,
            e.baseline_recall,
            e.attribution_accuracy
        );
        eprintln!(
            "rotated probes: {} probes | exact-ladder recall {:.3} | near recall {:.3}",
            e.probe_n, e.probe_exact_recall, e.probe_near_recall
        );
    }

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
