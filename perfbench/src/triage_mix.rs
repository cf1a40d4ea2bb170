//! `triage_mix`: the read side of the intel store. A store is built from
//! a scale-0.25 world; one closed-loop client then drives
//! `serve_session` with a seeded request mix:
//!
//! - 35% URL hits, half of them defanged;
//! - 10% sender hits;
//! - 35% URL misses, drawn from a fixed seeded pool of [`MISS_POOL`]
//!   hosts no report carries, as the repository's serve bench draws them;
//!   repeats may be answered by the triage head's negative cache;
//! - 10% `near` probes with entry texts, which must find themselves;
//! - 10% `msg` lines, half reported texts and half generated ham. The
//!   ham half keeps the model rung busy: every reported text resolves in
//!   the index.
//!
//! One request is the latency unit; requests per second the throughput.

use crate::feed::{closed_loop, Answered, Request};
use crate::layers;
use crate::report::{EndToEnd, Layers, Outcome, TRIAGE_CLASSES};
use crate::stats::{median, percentile, tail};
use crate::{generate_world, peak_rss_mb, pipeline, secs, RunConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use smishing::intel::{serve_session, IntelHub, IntelSnapshot, ServeOptions, Triage, TriageConfig};
use smishing::obs::Obs;
use smishing::textnlp::ham::generate_ham;
use std::cell::Cell;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

/// World scale of the workload.
pub const SCALE: f64 = 0.25;

/// Distinct URL misses the script draws from (the size of the
/// repository's own serve bench pool, and of the default negative cache).
pub const MISS_POOL: usize = 4096;

/// Request classes of the mix, in [`Class::index`] order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// `url` of a stored URL (clean or defanged): must hit.
    UrlHit,
    /// `sender` of a stored sender: must hit.
    SenderHit,
    /// `url` of a host no report carries: must miss.
    UrlMiss,
    /// `near` with a stored entry text: must match itself.
    Near,
    /// `msg` with a reported text: must resolve in the index.
    MsgReported,
    /// `msg` with generated ham: any verdict, never an error.
    MsgHam,
}

impl Class {
    const ALL: [Class; 6] = [
        Class::UrlHit,
        Class::SenderHit,
        Class::UrlMiss,
        Class::Near,
        Class::MsgReported,
        Class::MsgHam,
    ];

    fn index(self) -> usize {
        self as usize
    }

    /// The per-layer metric class (`msg` covers both halves).
    fn metric(self) -> &'static str {
        TRIAGE_CLASSES[self.index().min(4)]
    }

    /// Whether `reply` is the verdict this class expects.
    pub fn accepts(self, reply: &str) -> bool {
        let is = |p: &str| reply.starts_with(p);
        match self {
            Class::UrlHit | Class::SenderHit => is("hit "),
            Class::UrlMiss => is("miss url "),
            Class::Near => is("near ") && reply.contains(" hamming=0 "),
            Class::MsgReported => is("hit ") || is("near "),
            Class::MsgHam => is("hit ") || is("near ") || is("triage "),
        }
    }
}

/// The request pools a store offers.
pub struct Pools {
    urls: Vec<String>,
    senders: Vec<String>,
    misses: Vec<String>,
    texts: Vec<String>,
    ham: Vec<String>,
}

/// A line the protocol carries intact: one line, and no `|` (which a
/// `msg` line reads as a sender separator).
fn line_safe(text: &str) -> bool {
    !text.is_empty() && !text.contains(['\n', '\r', '|'])
}

impl Pools {
    /// Stored URLs, senders and self-matching texts of `snap`, plus miss
    /// URLs and ham generated from `seed`.
    pub fn of(snap: &IntelSnapshot, seed: u64) -> Pools {
        let (mut urls, mut senders, mut texts) = (Vec::new(), Vec::new(), Vec::new());
        for (id, e) in snap.entries().iter().enumerate() {
            if let Some(u) = e.url {
                urls.push(snap.resolve(u).to_string());
            }
            if let Some(s) = e.sender {
                senders.push(snap.resolve(s).to_string());
            }
            if line_safe(&e.text) && !snap.sim().shingles_of(id as u32).is_empty() {
                texts.push(e.text.clone());
            }
        }
        let mut rng = StdRng::seed_from_u64(seed ^ 0x4A3D);
        let misses = (0..MISS_POOL)
            .map(|_| format!("http://nx{:016x}.com/login", rng.gen::<u64>()))
            .collect();
        let ham = generate_ham(2_000, &mut rng)
            .into_iter()
            .map(|h| h.text)
            .filter(|t| line_safe(t))
            .collect();
        Pools {
            urls,
            senders,
            misses,
            texts,
            ham,
        }
    }

    fn check(&self) -> Result<(), String> {
        for (name, pool) in [
            ("urls", &self.urls),
            ("senders", &self.senders),
            ("misses", &self.misses),
            ("texts", &self.texts),
            ("ham", &self.ham),
        ] {
            if pool.is_empty() {
                return Err(format!("the store offers no {name} to query"));
            }
        }
        Ok(())
    }
}

/// `hxxp(s)://host[.]tld/...`, as analysts paste indicators.
fn defang(url: &str) -> String {
    url.replacen("http", "hxxp", 1).replace('.', "[.]")
}

/// The seeded request sequence over `pools`.
pub fn requests(pools: &Pools, seed: u64) -> impl FnMut() -> Request + '_ {
    let mut rng = StdRng::seed_from_u64(seed);
    move || {
        let pick = |rng: &mut StdRng, pool: &[String]| pool[rng.gen_range(0..pool.len())].clone();
        let roll = rng.gen_range(0..100u32);
        let (class, line) = match roll {
            0..=34 => {
                let url = pick(&mut rng, &pools.urls);
                let url = if rng.gen_bool(0.5) { defang(&url) } else { url };
                (Class::UrlHit, format!("url {url}"))
            }
            35..=44 => (
                Class::SenderHit,
                format!("sender {}", pick(&mut rng, &pools.senders)),
            ),
            45..=79 => (
                Class::UrlMiss,
                format!("url {}", pick(&mut rng, &pools.misses)),
            ),
            80..=89 => (
                Class::Near,
                format!("near {}", pick(&mut rng, &pools.texts)),
            ),
            _ if rng.gen_bool(0.5) => (
                Class::MsgReported,
                format!("msg {}", pick(&mut rng, &pools.texts)),
            ),
            _ => (Class::MsgHam, format!("msg {}", pick(&mut rng, &pools.ham))),
        };
        Request {
            class: class.index(),
            line,
        }
    }
}

/// Result of one closed-loop session.
#[derive(Debug, Default)]
pub struct Session {
    /// Wall time of the session.
    pub wall_s: f64,
    /// Every answered request.
    pub answered: Vec<Answered>,
    /// Requests released.
    pub released: u64,
    /// Replies received.
    pub replied: u64,
    /// Replies with the wrong verdict.
    pub wrong: u64,
    /// Examples of wrong replies.
    pub wrong_examples: Vec<String>,
    /// Malformed or shed requests the session counted.
    pub errors_and_shed: u64,
    /// Ham messages the model rung scored.
    pub model_verdicts: u64,
}

/// Serve `next` requests through `serve_session` for `seconds` or until
/// `next` runs out, closed loop, checking each reply against its class.
pub fn serve(
    triage: &mut Triage,
    obs: &Obs,
    seconds: f64,
    mut next: impl FnMut() -> Option<Request>,
) -> Result<Session, String> {
    let model = Rc::new(Cell::new(0u64));
    let counted = Rc::clone(&model);
    let check = move |class: usize, reply: &str| {
        if reply.ends_with("via=model") {
            counted.set(counted.get() + 1);
        }
        Class::ALL[class].accepts(reply)
    };
    let start = Instant::now();
    let gen = move || if secs(start) < seconds { next() } else { None };
    let (feed, sink, ledger) = closed_loop(gen, check);
    let s = serve_session(triage, feed, sink, obs, ServeOptions::default())
        .map_err(|e| format!("serve_session: {e}"))?;
    let wall_s = secs(start);
    let l = ledger.borrow();
    Ok(Session {
        wall_s,
        answered: l.answered.clone(),
        released: l.released(),
        replied: l.replied(),
        wrong: l.rejected_count,
        wrong_examples: l
            .rejected
            .iter()
            .map(|(c, req, reply)| format!("{:?}: {req:?} -> {reply:?}", Class::ALL[*c]))
            .collect(),
        errors_and_shed: s.stats.errors + s.stats.shed,
        model_verdicts: model.get(),
    })
}

impl Session {
    /// Every way the session is wrong; empty when correct.
    pub fn problems(&self) -> Vec<String> {
        let mut p = Vec::new();
        if self.replied != self.released {
            p.push(format!(
                "{} requests, {} replies",
                self.released, self.replied
            ));
        }
        if self.errors_and_shed > 0 {
            p.push(format!("{} errors + shed", self.errors_and_shed));
        }
        if self.wrong > 0 {
            p.push(format!(
                "{} wrong verdicts, e.g. {}",
                self.wrong,
                self.wrong_examples.join("; ")
            ));
        }
        if self.model_verdicts == 0 {
            p.push("the model rung never ran".into());
        }
        p
    }

    /// Latencies in µs of the requests whose class satisfies `keep`.
    fn us(&self, keep: impl Fn(Class) -> bool) -> Vec<f64> {
        self.answered
            .iter()
            .filter(|a| keep(Class::ALL[a.class]))
            .map(|a| a.latency_ns as f64 / 1e3)
            .collect()
    }

    /// Requests per second of the session; per-request mean and tail
    /// latency (p99 once the session has a thousand requests). The mean,
    /// not the median: the median sits among the ~6 µs exact lookups,
    /// whose speed swings with the host's cache contention (ten-seed
    /// spread 0.20–0.36 of the median), while the mean carries every
    /// rung's cost and spread 0.10 like the throughput.
    fn end_to_end(&self, setup_s: f64, peak_rss_mb: f64) -> EndToEnd {
        let ms: Vec<f64> = self
            .answered
            .iter()
            .map(|a| a.latency_ns as f64 / 1e6)
            .collect();
        EndToEnd {
            setup_s,
            peak_rss_mb,
            throughput_per_s: self.released as f64 / self.wall_s,
            latency_ms: ms.iter().sum::<f64>() / ms.len().max(1) as f64,
            latency_tail_ms: tail(&ms).value,
        }
    }
}

/// A triage head over `hub` with its model trained (the first
/// `Triage::snapshot` trains it); returns the training time in ms.
fn ready_triage(hub: &IntelHub) -> Result<(Triage, f64), String> {
    let mut triage = Triage::with_config(hub.reader(), TriageConfig::default());
    let t = Instant::now();
    triage
        .snapshot()
        .ok_or("no snapshot published before serving")?;
    Ok((triage, secs(t) * 1e3))
}

/// Run the workload.
pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    let mut setup = Vec::new();
    let mut store = None;
    for _ in 0..cfg.setups.max(1) {
        // Free the previous set-up's store first, so the peak resident
        // set never holds two.
        drop(store.take());
        let t = Instant::now();
        let world = generate_world(cfg.seed, cfg.scale);
        let out = pipeline().run(&world, &Obs::noop());
        let hub = IntelHub::new();
        hub.publish(IntelSnapshot::build(&out));
        let (triage, _) = ready_triage(&hub)?;
        setup.push(secs(t));
        store = Some((hub, triage));
    }
    let (hub, mut triage) = store.expect("at least one set-up");
    let setup_s = median(&setup);
    let snap: Arc<IntelSnapshot> = hub.latest().expect("published in set-up");
    let pools = Pools::of(&snap, cfg.seed);
    pools.check()?;

    let mut next = requests(&pools, cfg.seed);
    let session = serve(&mut triage, &Obs::noop(), cfg.seconds, || Some(next()))?;
    let e2e = session.end_to_end(setup_s, peak_rss_mb()?);
    let mut problems = session.problems();
    let all_us = session.us(|_| true);
    let rt = tail(&all_us);
    let near_us = session.us(|c| c == Class::Near);
    let mut notes = vec![
        format!(
            "triage_mix: {} entries, {} requests; triage_qps {:.1} triage_mean_us {:.3} triage_p50_us {:.3} \
             triage_p{}_us {:.3} (of {} requests) near_p50_us {:.3} near_p99_us {:.3}",
            snap.len(),
            session.released,
            e2e.throughput_per_s,
            e2e.latency_ms * 1e3,
            median(&all_us),
            rt.pct,
            rt.value,
            rt.n,
            median(&near_us),
            percentile(&near_us, 99.0)
        ),
        format!(
            "counts: entries {} templates {} model_verdicts {}",
            snap.len(),
            snap.template_count(),
            session.model_verdicts
        ),
    ];

    let layers = if cfg.trace {
        let mut layers = Layers::default();
        let obs = Obs::enabled();
        let t = Instant::now();
        let world = generate_world(cfg.seed, cfg.scale);
        layers.set("worldsim.generate_s", secs(t));
        let t = Instant::now();
        let out = pipeline().run(&world, &obs);
        layers.set("exec.ingest_s", secs(t));
        layers::exec_series(&obs, &out, &mut layers);
        let t = Instant::now();
        let rebuilt = IntelSnapshot::build(&out);
        layers.set("intel.build_full_ms", secs(t) * 1e3);
        if rebuilt != *snap {
            problems.push("a second build of the same world gave another store".into());
        }
        layers::ingest_probes(&out, &mut layers, &mut notes);
        drop(out);
        if let Err(e) = layers::simindex(&snap, &mut layers) {
            problems.push(e);
        }
        let t = Instant::now();
        for u in &pools.urls {
            std::hint::black_box(snap.lookup_url(u));
        }
        layers.set(
            "intel.lookup_url_us",
            secs(t) * 1e6 / pools.urls.len() as f64,
        );

        let (mut traced_triage, train_ms) = ready_triage(&hub)?;
        layers.set("detect.train_ms", train_ms);
        let mut next = requests(&pools, cfg.seed);
        let traced = serve(&mut traced_triage, &obs, cfg.seconds, || Some(next()))?;
        problems.extend(traced.problems());
        for name in TRIAGE_CLASSES {
            let us = traced.us(|c| c.metric() == name);
            layers.set(&format!("triage.{name}_p50_us"), median(&us));
            layers.set(&format!("triage.{name}_p99_us"), percentile(&us, 99.0));
        }
        e2e.overhead_into(&traced.end_to_end(setup_s, e2e.peak_rss_mb), &mut layers);
        Some(layers)
    } else {
        None
    };

    notes.extend(problems.iter().map(|p| format!("FAILED: {p}")));
    Ok(Outcome {
        correct: problems.is_empty(),
        attempted: session.released,
        failed: session.wrong + session.errors_and_shed + (session.released - session.replied),
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
            seed: 9,
            seconds: 0.2,
            trace: true,
            scale: 0.02,
            setups: 1,
        }
    }

    fn store(seed: u64) -> (IntelHub, Pools) {
        let world = generate_world(seed, 0.02);
        let out = pipeline().run(&world, &Obs::noop());
        let hub = IntelHub::new();
        hub.publish(IntelSnapshot::build(&out));
        let pools = Pools::of(&hub.latest().unwrap(), seed);
        (hub, pools)
    }

    #[test]
    fn smoke_run_is_correct_and_covers_every_class() {
        let o = run(&smoke()).unwrap();
        assert!(o.correct, "{:#?}", o.notes);
        assert!(o.attempted > 0 && o.failed == 0);
        let layers = o.layers.as_ref().expect("traced run");
        for class in TRIAGE_CLASSES {
            assert!(
                layers.get(&format!("triage.{class}_p50_us")) > 0.0,
                "{class}"
            );
        }
        assert!(layers.get("detect.train_ms") > 0.0);
    }

    #[test]
    fn the_mix_follows_the_seed() {
        let (_, pools) = store(9);
        let lines = |seed| -> Vec<Request> {
            let mut next = requests(&pools, seed);
            (0..200).map(|_| next()).collect()
        };
        assert_eq!(lines(1), lines(1));
        assert_ne!(lines(1), lines(2));
        let urls = lines(1)
            .iter()
            .filter(|r| r.class == Class::UrlHit.index())
            .count();
        assert!((40..=100).contains(&urls), "~35% URL hits, got {urls}/200");
    }

    #[test]
    fn a_wrong_expected_verdict_is_rejected() {
        let (hub, pools) = store(9);
        let (mut triage, _) = ready_triage(&hub).unwrap();
        let hit = format!("url {}", pools.urls[0]);
        let mut script = vec![
            Request {
                class: Class::MsgHam.index(),
                line: format!("msg {}", pools.ham[0]),
            },
            // Labelled a miss, but the URL is in the store.
            Request {
                class: Class::UrlMiss.index(),
                line: hit,
            },
        ];
        let s = serve(&mut triage, &Obs::noop(), 60.0, move || script.pop()).unwrap();
        assert_eq!((s.released, s.replied), (2, 2));
        assert_eq!(s.wrong, 1, "{:?}", s.wrong_examples);
        assert!(s.problems().iter().any(|p| p.contains("wrong verdicts")));
    }
}
