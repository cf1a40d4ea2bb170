//! Satellite: the worker plane's byte-parity contract, property-tested.
//!
//! Arbitrary interleavings of every shippable request kind (`url` hits
//! and misses, `sender`, `near`, `msg` with entry texts and with
//! generated ham, `sample`, `stats`, malformed lines, a `sample` with a
//! malformed count, and unreadable ones: not UTF-8, or over the 64 KiB
//! line cap)
//! are replayed through [`serve_workers`] at worker counts
//! {1, 2, 4} and through the sequential [`serve_session`] loop, against
//! both hub flavors `smish serve` builds: a batch-pipeline store and a
//! stream-ingested store republished across several epochs (the
//! `--stream` path). With no shedding, the responses must be
//! byte-identical — modulo wall-clock digits in the `stats` line and the
//! near-candidate quantiles, which a per-worker negative cache may
//! legitimately shift (a repeated `near` miss is served from the LRU in
//! one mode and recomputed on a cold worker in the other; the *verdict*
//! is identical either way). Ham falls through every index rung, so its
//! `via=model` lines compare the scores of the snapshot's one model,
//! whichever thread trained it.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use smishing_core::exec::{ingest, ExecPlan, SnapshotPlan};
use smishing_core::pipeline::Pipeline;
use smishing_core::CurationOptions;
use smishing_intel::{
    serve_session, serve_workers, IntelHub, IntelSnapshot, ServeOptions, ServeStats, Triage,
    TriageConfig, WorkerPlan,
};
use smishing_obs::Obs;
use smishing_textnlp::ham::generate_ham;
use smishing_worldsim::{ReportStream, World, WorldConfig};
use std::sync::OnceLock;

const SEED: u64 = 61;

/// Ready-to-feed request material drawn from one snapshot.
struct Pools {
    hit_urls: Vec<String>,
    senders: Vec<String>,
    near_texts: Vec<String>,
    msg_texts: Vec<String>,
    /// Generated ham: no reported URL, sender or lure explains it, so
    /// the model rung answers.
    ham_texts: Vec<String>,
}

fn pools(snap: &IntelSnapshot) -> Pools {
    let mut p = Pools {
        hit_urls: Vec::new(),
        senders: Vec::new(),
        near_texts: Vec::new(),
        msg_texts: Vec::new(),
        ham_texts: generate_ham(64, &mut StdRng::seed_from_u64(SEED))
            .into_iter()
            .map(|h| h.text)
            .collect(),
    };
    for (id, e) in snap.entries().iter().enumerate() {
        if let Some(u) = e.url {
            p.hit_urls.push(snap.resolve(u).to_string());
        }
        if let Some(s) = e.sender {
            p.senders.push(snap.resolve(s).to_string());
        }
        if !snap.sim().shingles_of(id as u32).is_empty() {
            p.near_texts.push(e.text.clone());
        }
        p.msg_texts.push(e.text.clone());
    }
    assert!(!p.hit_urls.is_empty() && !p.near_texts.is_empty());
    p
}

/// Batch flavor: one publish from the batch pipeline.
fn batch_hub() -> &'static (IntelHub, Pools) {
    static CELL: OnceLock<(IntelHub, Pools)> = OnceLock::new();
    CELL.get_or_init(|| {
        let w = World::generate(WorldConfig::test_scale(SEED));
        let out = Pipeline::default().run(&w, &Obs::noop());
        let hub = IntelHub::new();
        hub.publish(IntelSnapshot::build(&out));
        let p = pools(&hub.latest().unwrap());
        (hub, p)
    })
}

/// Stream flavor: the `--stream` path — aligned mid-ingest snapshots
/// republish the store across several epochs, final publish last. The
/// serve runs start after the last publish, so both execution modes see
/// the same (multi-epoch) hub state.
fn stream_hub() -> &'static (IntelHub, Pools) {
    static CELL: OnceLock<(IntelHub, Pools)> = OnceLock::new();
    CELL.get_or_init(|| {
        let w = World::generate(WorldConfig::test_scale(SEED));
        let hub = IntelHub::new();
        let every = (w.posts.len() as u64 / 3).max(1);
        let result = ingest(
            &w,
            ReportStream::replay(&w),
            &CurationOptions::default(),
            &ExecPlan::default().with_snapshots(SnapshotPlan::every(every)),
            &Obs::noop(),
            |s| {
                hub.publish(IntelSnapshot::build(&s.output));
            },
        );
        hub.publish(IntelSnapshot::build(&result.output));
        assert!(hub.epoch() >= 2, "stream flavor must republish");
        let p = pools(&hub.latest().unwrap());
        (hub, p)
    })
}

/// One scripted request as raw draws: a kind roll, a pool index, and a
/// miss salt, resolved against the pools at render time (the vendored
/// proptest stand-in speaks ranges and tuples, not `sample::Index`).
type Req = (u8, usize, u32);

fn req() -> impl Strategy<Value = Req> {
    (0u8..116, 0usize..1_000_000, 0u32..u32::MAX)
}

/// The serve plane's line cap (`MAX_LINE_BYTES`, crate-private).
const LINE_CAP: usize = 64 * 1024;

fn render(script: &[Req], p: &Pools) -> Vec<u8> {
    let pick = |pool: &[String], idx: usize| pool[idx % pool.len()].clone();
    let mut s = Vec::new();
    for &(roll, idx, salt) in script {
        match roll {
            0..=19 => s.extend(format!("url {}\n", pick(&p.hit_urls, idx)).bytes()),
            20..=39 => s.extend(format!("url https://zz{salt:x}-fuzz.example/q\n").bytes()),
            40..=54 => s.extend(format!("sender {}\n", pick(&p.senders, idx)).bytes()),
            55..=69 => s.extend(format!("near {}\n", pick(&p.near_texts, idx)).bytes()),
            70..=84 => s.extend(format!("msg {}\n", pick(&p.msg_texts, idx)).bytes()),
            85..=89 => s.extend(format!("sample {}\n", 1 + idx % 7).bytes()),
            90..=94 => s.extend(b"stats\n"),
            95..=99 => s.extend(b"bogus line\n"),
            100..=101 => {
                s.extend(format!("url https://zz{salt:x}-").bytes());
                s.push(0xff);
                s.extend(b".example/q\n");
            }
            102..=103 => {
                s.extend(b"msg ");
                s.extend(std::iter::repeat_n(b'x', LINE_CAP + idx % 1024));
                s.push(b'\n');
            }
            104..=105 => s.extend(format!("sample {}x\n", idx % 7).bytes()),
            _ => s.extend(format!("msg {}\n", pick(&p.ham_texts, idx)).bytes()),
        }
    }
    s
}

/// Blank out the digits that may legitimately differ between execution
/// modes: wall-clock `*_ns=` quantiles and the near-candidate quantiles
/// on `stats` lines. Counters, verdicts, and every other byte stay
/// load-bearing.
fn mask(out: &[u8]) -> String {
    let text = std::str::from_utf8(out).expect("utf8 protocol output");
    let mut masked = String::with_capacity(text.len());
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("stats ") {
            masked.push_str("stats");
            for tok in rest.split(' ') {
                masked.push(' ');
                let volatile = ["_ns=", "near_cand_p50=", "near_cand_p99="]
                    .iter()
                    .any(|k| tok.contains(k));
                if volatile {
                    let key = tok.split_once('=').map_or(tok, |(k, _)| k);
                    masked.push_str(key);
                    masked.push_str("=X");
                } else {
                    masked.push_str(tok);
                }
            }
        } else {
            masked.push_str(line);
        }
        masked.push('\n');
    }
    masked
}

fn run_sequential(hub: &IntelHub, script: &[u8]) -> (ServeStats, Vec<u8>) {
    let mut triage = Triage::new(hub.reader());
    let mut out = Vec::new();
    let session = serve_session(
        &mut triage,
        script,
        &mut out,
        &Obs::noop(),
        ServeOptions::default(),
    )
    .unwrap();
    (session.stats, out)
}

fn assert_parity(hub: &IntelHub, script: &[u8], flavor: &str) {
    let (seq_stats, seq_out) = run_sequential(hub, script);
    let seq_masked = mask(&seq_out);
    for workers in [1usize, 2, 4] {
        let mut out = Vec::new();
        let session = serve_workers(
            hub,
            TriageConfig::default(),
            script,
            &mut out,
            &Obs::noop(),
            ServeOptions::default(),
            &WorkerPlan::new(workers, 4096),
        )
        .unwrap();
        assert_eq!(session.stats.shed, 0, "{flavor} workers={workers}");
        assert_eq!(
            mask(&out),
            seq_masked,
            "{flavor} workers={workers}: responses diverged\nscript:\n{}",
            String::from_utf8_lossy(script)
        );
        let mut expect = seq_stats;
        expect.shed = 0;
        expect.worker_panics = 0;
        assert_eq!(session.stats, expect, "{flavor} workers={workers}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The tentpole invariant: any request interleaving produces the
    /// same bytes at 1/2/4 workers as sequentially, on both hub flavors.
    #[test]
    fn any_script_is_byte_identical_across_workers_and_hub_flavors(
        script in prop::collection::vec(req(), 1..32)
    ) {
        let (hub, p) = batch_hub();
        let rendered = render(&script, p);
        assert_parity(hub, &rendered, "batch");

        let (hub, p) = stream_hub();
        let rendered = render(&script, p);
        assert_parity(hub, &rendered, "stream");
    }
}

/// Model-scored lines are byte-identical at 1, 2 and 4 workers and
/// inline, on both hub flavors: a fixed script of ham and entry-text
/// `msg` lines, whose ham answers `via=model`.
#[test]
fn trained_model_verdicts_match_across_modes() {
    for (flavor, (hub, p)) in [("batch", batch_hub()), ("stream", stream_hub())] {
        let mut script = String::new();
        for (ham, text) in p
            .ham_texts
            .iter()
            .zip(p.msg_texts.iter().step_by(7))
            .take(12)
        {
            script.push_str(&format!("msg {ham}\nmsg {text}\n"));
        }
        script.push_str("stats\n");
        let (_, seq_out) = run_sequential(hub, script.as_bytes());
        let model_lines = String::from_utf8_lossy(&seq_out)
            .lines()
            .filter(|l| l.ends_with(" via=model"))
            .count();
        assert!(model_lines >= 6, "{flavor}: {model_lines} via=model lines");
        assert_parity(hub, script.as_bytes(), flavor);
    }
}
