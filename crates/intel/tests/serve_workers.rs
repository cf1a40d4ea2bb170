//! Satellites: the worker plane's admission-control and failure
//! contracts.
//!
//! * **Overload** — a deliberately stalled consumer behind a tiny
//!   bounded queue forces admission sheds; every request must be either
//!   answered or counted under `serve.shed` (never silently dropped),
//!   and the `health` verb must report the shed total.
//! * **Worker panic** — a worker dying mid-request is counted under
//!   `serve.worker_panics`, re-raised on the caller after the session's
//!   accounting exports, and loses no response bytes before the failure
//!   point.
//! * **Rejected lines** — a script of queries mixed with every kind of
//!   rejected line, 1,000 distinct unknown commands among them, counts
//!   each request line once among answered queries, rejected lines and
//!   shed, inline and behind a depth-1 queue, under at most six
//!   `intel.serve.rejected` labels.
//! * **One model per epoch** — on a freshly published store, `near`,
//!   `url` and `sender` lookups train nothing, and of two `explain`s of
//!   a ham message only the first trains the snapshot's model, inline
//!   and through 2 workers.

use smishing_core::pipeline::Pipeline;
use smishing_intel::{
    serve_session, serve_workers, IntelHub, IntelSnapshot, Reject, ServeOptions, ServeStats,
    Triage, TriageConfig, WorkerPlan,
};
use smishing_obs::Obs;
use smishing_worldsim::{World, WorldConfig};
use std::collections::BTreeMap;
use std::io::Write;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

fn hub() -> IntelHub {
    let w = World::generate(WorldConfig::test_scale(53));
    let out = Pipeline::default().run(&w, &Obs::noop());
    let hub = IntelHub::new();
    hub.publish(IntelSnapshot::build(&out));
    hub
}

/// A writer that stalls its first write, pinning the collector long
/// enough for the reader to outrun a depth-1 queue.
struct StalledWriter {
    out: Vec<u8>,
    stalled: bool,
}

impl Write for StalledWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        if !self.stalled {
            self.stalled = true;
            std::thread::sleep(Duration::from_millis(150));
        }
        self.out.write(buf)
    }
    fn flush(&mut self) -> std::io::Result<()> {
        self.out.flush()
    }
}

#[test]
fn overload_sheds_are_counted_never_silent() {
    let hub = hub();
    const N: u64 = 300;
    let mut script = String::new();
    for i in 0..N {
        script.push_str(&format!("url https://flood-{i}.example/x\n"));
    }
    script.push_str("health\nstats\n");

    let mut writer = StalledWriter {
        out: Vec::new(),
        stalled: false,
    };
    let obs = Obs::enabled();
    let session = serve_workers(
        &hub,
        TriageConfig::default(),
        script.as_bytes(),
        &mut writer,
        &obs,
        ServeOptions::default(),
        &WorkerPlan {
            workers: 1,
            queue_depth: 1,
            panic_on: None,
        },
    )
    .unwrap();

    let stats = session.stats;
    assert!(
        stats.shed > 0,
        "a stalled depth-1 queue must shed: {stats:?}"
    );
    assert_eq!(
        stats.queries + stats.shed,
        N,
        "answered + shed must conserve the request stream: {stats:?}"
    );
    let text = String::from_utf8(writer.out).unwrap();
    let answered = text.lines().filter(|l| l.starts_with("miss url ")).count() as u64;
    assert_eq!(
        answered, stats.queries,
        "one response line per answered query"
    );

    // The verbs land after the flood, so both report the final total.
    let health = text
        .lines()
        .find(|l| l.starts_with("health "))
        .expect("health line");
    assert!(
        health.contains(&format!("shed={}", stats.shed)),
        "health must carry the shed total: {health}"
    );
    let stats_line = text
        .lines()
        .find(|l| l.starts_with("stats "))
        .expect("stats line");
    assert!(
        stats_line.contains(&format!("shed={}", stats.shed)),
        "{stats_line}"
    );
    // And the session export carries it into the run report's counters
    // and the time-series ring.
    let report = obs.json_report();
    assert!(report.contains("intel.serve.shed"), "{report}");
    assert!(report.contains("serve.ts."), "{report}");
}

#[test]
fn worker_panic_is_counted_reraised_and_loses_no_prior_bytes() {
    let hub = hub();
    let snap = hub.latest().unwrap();
    let hits: Vec<String> = snap
        .entries()
        .iter()
        .filter_map(|e| e.url.map(|u| format!("url {}", snap.resolve(u))))
        .take(11)
        .collect();
    assert!(hits.len() >= 11, "need 11 hit lines");
    let poison = "url https://poison.example/kaboom";
    let script: String = hits[..6]
        .iter()
        .map(|l| format!("{l}\n"))
        .chain([format!("{poison}\n")])
        .chain(hits[6..].iter().map(|l| format!("{l}\n")))
        .collect();

    // The sequential expectation for the pre-panic prefix.
    let mut expected = Vec::new();
    let prefix: String = hits[..6].iter().map(|l| format!("{l}\n")).collect();
    serve_session(
        &mut Triage::new(hub.reader()),
        prefix.as_bytes(),
        &mut expected,
        &Obs::noop(),
        ServeOptions::default(),
    )
    .unwrap();

    let obs = Obs::enabled();
    let mut out = Vec::new();
    let payload = catch_unwind(AssertUnwindSafe(|| {
        serve_workers(
            &hub,
            TriageConfig::default(),
            script.as_bytes(),
            &mut out,
            &obs,
            ServeOptions::default(),
            &WorkerPlan {
                workers: 1,
                queue_depth: 16,
                panic_on: Some(poison.to_string()),
            },
        )
    }))
    .expect_err("the worker's panic must re-raise on the caller");
    let msg = payload
        .downcast_ref::<String>()
        .cloned()
        .expect("panic payload is the injected message");
    assert!(msg.contains("injected worker fault"), "{msg}");

    // Every reply before the failure point arrived, in order, intact;
    // nothing after the dead worker got answered.
    assert_eq!(out, expected, "pre-panic bytes must survive the panic");

    // The accounting exported before the re-raise: the panic counted,
    // the poisoned + unanswered requests shed, nothing silent.
    let report = obs.json_report();
    assert!(
        report.contains("\"intel.serve.worker_panics\": 1"),
        "{report}"
    );
    assert!(report.contains("\"intel.serve.queries\": 6"), "{report}");
    assert!(report.contains("\"intel.serve.shed\": 6"), "{report}");
}

/// Queries interleaved with every kind of rejected line, and the number
/// of each: (script, queries, rejected lines per class). `health` and
/// `sample` are rejected only while no snapshot is published.
fn hostile_script() -> (Vec<u8>, u64, BTreeMap<&'static str, u64>) {
    let mut script = Vec::new();
    let mut queries = 0;
    let mut rejected = BTreeMap::new();
    let mut add = |line: &[u8], class: Option<Reject>| {
        script.extend_from_slice(line);
        script.push(b'\n');
        match class {
            Some(class) => *rejected.entry(class.label()).or_insert(0) += 1,
            None => queries += 1,
        }
    };
    for i in 0..1000 {
        add(
            format!("cmd{i} arg").as_bytes(),
            Some(Reject::UnknownCommand),
        );
        if i % 5 == 0 {
            add(format!("url https://q-{i}.example/x").as_bytes(), None);
            add(b"msg hello, running late tonight", None);
        }
        if i % 100 == 0 {
            add(b"near", Some(Reject::MissingValue));
            // A message with no text after its optional `sender|` prefix.
            add(b"msg", Some(Reject::MissingValue));
            add(b"msg |", Some(Reject::MissingValue));
            add(b"msg +15551234567|", Some(Reject::MissingValue));
            add(b"explain msg +15551234567|", Some(Reject::MissingValue));
            // A bare verb is a named query with no value, not message text.
            add(b"explain url", Some(Reject::MissingValue));
            add(b"explain sender", Some(Reject::MissingValue));
            add(b"explain near", Some(Reject::MissingValue));
            add(b"url http://\xff.example/x", Some(Reject::InvalidUtf8));
            add(&vec![b'u'; 70 * 1024], Some(Reject::LineTooLong));
            add(b"health", Some(Reject::NoSnapshot));
            // A blank line first: it is no request.
            add(b"\nsample near 2", Some(Reject::NoSnapshot));
            // A malformed count is refused before the snapshot is read.
            add(b"sample -1", Some(Reject::BadCount));
            add(b"sample nearby 3", Some(Reject::BadCount));
            add(b"traces 99999999999999999999", Some(Reject::BadCount));
            add(b"timeseries x", Some(Reject::BadCount));
        }
    }
    (script, queries, rejected)
}

/// The `intel.serve.rejected` counters of a run report, by label.
fn rejected_counts(obs: &Obs) -> BTreeMap<String, u64> {
    let report = obs.report().expect("enabled");
    report
        .counters
        .iter()
        .filter(|(id, _)| id.name == "intel.serve.rejected")
        .map(|(id, &n)| {
            assert_eq!(id.labels.len(), 1, "{id:?}");
            (id.labels[0].1.clone(), n)
        })
        .collect()
}

#[test]
fn every_request_line_is_answered_rejected_or_shed() {
    let (script, queries, expected) = hostile_script();
    let lines = queries + expected.values().sum::<u64>();
    let empty = IntelHub::new();
    let check = |obs: &Obs, stats: ServeStats, path: &str| {
        let counts = rejected_counts(obs);
        assert!(counts.len() <= Reject::ALL.len(), "{path}: {counts:?}");
        for (class, n) in &counts {
            assert_eq!(
                expected.get(class.as_str()).copied().unwrap_or(0),
                *n,
                "{path}: {class}"
            );
        }
        let rejected: u64 = counts.values().sum();
        assert_eq!(
            stats.queries + rejected + stats.shed,
            lines,
            "{path}: every line answered, rejected or shed: {stats:?} {counts:?}"
        );
        assert_eq!(stats.errors, rejected - counts["no_snapshot"], "{path}");
    };

    let obs = Obs::enabled();
    let mut out = Vec::new();
    let session = serve_session(
        &mut Triage::new(empty.reader()),
        &script[..],
        &mut out,
        &obs,
        ServeOptions::default(),
    )
    .unwrap();
    assert_eq!(session.stats.shed, 0);
    check(&obs, session.stats, "inline");

    let obs = Obs::enabled();
    let mut writer = StalledWriter {
        out: Vec::new(),
        stalled: false,
    };
    let session = serve_workers(
        &empty,
        TriageConfig::default(),
        &script[..],
        &mut writer,
        &obs,
        ServeOptions::default(),
        &WorkerPlan::new(2, 1),
    )
    .unwrap();
    check(&obs, session.stats, "workers");
    assert_eq!(
        String::from_utf8_lossy(&writer.out)
            .lines()
            .filter(|l| l.starts_with("err "))
            .count() as u64,
        lines - session.stats.queries - session.stats.shed,
        "one err reply per rejected line"
    );
}

/// The model rung's trace note ends in ` trained` on the one call that
/// trained the snapshot's model. The script opens with `near` lines, so
/// a `near` query is the first to observe the publish; then `url` and
/// `sender` lookups; then two `explain`s of a ham message. No query line
/// reaches the model, so the outcome cannot depend on worker timing.
#[test]
fn key_and_near_lookups_never_train_and_one_explain_does() {
    let ham = "explain msg hello, are we still on for lunch tomorrow?\n";
    for workers in [0usize, 2] {
        let hub = hub();
        let snap = hub.latest().unwrap();
        let entries = &snap.entries()[..20];
        let mut script = String::new();
        for e in entries {
            script.push_str(&format!("near {}\n", e.text));
        }
        for e in entries {
            if let Some(u) = e.url {
                script.push_str(&format!("url {}\n", snap.resolve(u)));
            }
            if let Some(s) = e.sender {
                script.push_str(&format!("sender {}\n", snap.resolve(s)));
            }
        }
        script.push_str(ham);
        script.push_str(ham);

        let mut out = Vec::new();
        if workers == 0 {
            serve_session(
                &mut Triage::new(hub.reader()),
                script.as_bytes(),
                &mut out,
                &Obs::noop(),
                ServeOptions::default(),
            )
        } else {
            serve_workers(
                &hub,
                TriageConfig::default(),
                script.as_bytes(),
                &mut out,
                &Obs::noop(),
                ServeOptions::default(),
                &WorkerPlan::new(workers, 1024),
            )
        }
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        let notes: Vec<&str> = text
            .lines()
            .filter_map(|l| l.trim_start().strip_prefix("rung model "))
            .collect();
        assert_eq!(notes.len(), 2, "workers={workers}:\n{text}");
        assert!(
            notes[0].ends_with(" trained"),
            "workers={workers}: {notes:?}"
        );
        assert!(
            !notes[1].contains("trained"),
            "workers={workers}: {notes:?}"
        );
    }
}
