//! The multi-worker serve plane behind `smish serve --serve-workers N`.
//!
//! [`serve_session`](crate::serve::serve_session) answers every request
//! inline on one thread; at paper scale (millions of user reports, a
//! carrier-side query stream) that single core is the ceiling. This
//! module keeps the *protocol* — and, by construction, the exact bytes
//! on stdout — while spreading the triage work over N workers:
//!
//! ```text
//!             parse + classify + admit (bounded try_send)
//!  stdin ──▶ reader ──┬────────────── work queue ──▶ worker 0 ┐ Triage::answer
//!   (caller   │       │  (cap = --queue-depth)  ──▶ worker 1 │ per query,
//!    thread)  │       └─────────────────────────▶ worker N-1 ┘ own Triage
//!             │ verbs/errors (seq-stamped, blocking)   │ replies + traces
//!             ▼                                        ▼
//!           collector ◀────────── reply queue ◀────────┘
//!             │  reorder by seq (BTreeMap) → SessionCore accounting
//!  stdout ◀───┘  → verbs answered at their barrier position
//! ```
//!
//! **Ordering.** Every admitted request gets a dense sequence number;
//! the collector buffers out-of-order replies and emits strictly by
//! seq, so responses interleave exactly as the sequential loop would
//! have written them. Introspection verbs (`stats`, `health`, …) are
//! seq-stamped too and handled *by the collector at their position*,
//! which makes each one a natural barrier: its counters and histogram
//! quantiles reflect precisely the queries before it in the input, same
//! as single-threaded serving.
//!
//! **Admission control.** The work queue is bounded (`--queue-depth`).
//! When it is full the reader does not block the intake loop; the
//! request is *shed*: no response line, a `serve.shed` count in the
//! session stats, the `stats`/`health` verbs, and the time-series ring.
//! Nothing is ever silently dropped — every request is either answered
//! or counted.
//!
//! **Failure.** A worker panic is caught per batch: replies already
//! sunk stay valid (the collector has or will emit them in order), the
//! unsent remainder of the batch is shed, the panic is counted under
//! `serve.worker_panics`, and the first payload is re-raised on the
//! caller *after* the session's accounting is exported — mirroring the
//! exec engine's worker-panic propagation.
//!
//! **Model.** Every thread owns its [`Triage`] (a negative cache) but
//! scores with the snapshot's one model, trained by the first to need it.
//!
//! **Tracing.** The reader replicates the tracer's 1-in-K sampling
//! cadence; traced requests carry a detached [`TraceBuilder`] through
//! the worker hop and the collector adopts finished traces in seq
//! order, so trace ids (and the `traces` verb) match the sequential
//! session's.

use crate::hub::IntelHub;
use crate::serve::{
    answer_query, classify, LineReader, QueryReply, Reject, Request, ServeOptions, ServeSession,
    SessionCore,
};
use crate::triage::{Triage, TriageConfig};
use crossbeam::channel::{bounded, TrySendError};
use smishing_core::exec::obs_send;
use smishing_obs::{Obs, Trace, TraceBuilder};
use std::collections::BTreeMap;
use std::io::{self, BufRead, Write};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::thread;

/// Most queries a worker takes off the queue at once. A batch is the
/// unit of the worker's panic fence and of its `batches`/`batch_size`
/// metrics; each query in it is answered on its own.
const BATCH_MAX: usize = 32;

/// Tuning for [`serve_workers`].
#[derive(Debug, Clone)]
pub struct WorkerPlan {
    /// Triage workers (clamped to at least 1).
    pub workers: usize,
    /// Work-queue bound: requests admitted but not yet picked up by a
    /// worker. A full queue sheds (clamped to at least 1).
    pub queue_depth: usize,
    /// Test hook: a worker answering a request whose *full line* equals
    /// this panics mid-batch (exercises the shutdown/panic path).
    pub panic_on: Option<String>,
}

impl WorkerPlan {
    /// A plan with no fault injection.
    pub fn new(workers: usize, queue_depth: usize) -> WorkerPlan {
        WorkerPlan {
            workers,
            queue_depth,
            panic_on: None,
        }
    }
}

impl Default for WorkerPlan {
    fn default() -> Self {
        WorkerPlan::new(4, 1024)
    }
}

/// One admitted query on its way to a worker.
struct Work {
    seq: u64,
    /// The full request line (command + rest), owned for the hop and
    /// parsed again by the worker; also the traced request string,
    /// matching the sequential tracer.
    line: String,
    traced: bool,
}

/// What the collector reassembles.
enum ToCollector {
    /// An answered query.
    Reply {
        seq: u64,
        reply: QueryReply,
        trace: Option<Trace>,
    },
    /// An introspection verb, answered by the collector at its barrier
    /// position.
    Verb { seq: u64, line: String },
    /// A rejected line: its class and command, written and counted by
    /// the collector at its position.
    Error {
        seq: u64,
        class: Reject,
        cmd: String,
    },
    /// An admitted query abandoned by a dying worker (or drained after
    /// every worker exited): fills the seq hole so later responses
    /// still flow, and is counted as shed.
    Shed { seq: u64 },
}

impl ToCollector {
    fn seq(&self) -> u64 {
        match self {
            ToCollector::Reply { seq, .. }
            | ToCollector::Verb { seq, .. }
            | ToCollector::Error { seq, .. }
            | ToCollector::Shed { seq } => *seq,
        }
    }
}

/// Serve the line protocol over `plan.workers` triage workers with
/// in-order reassembly. Byte-for-byte the same stdout as
/// [`serve_session`](crate::serve::serve_session) given the same input
/// and no shedding; see the module docs for the ordering, admission,
/// and failure guarantees. Worker panics are re-raised on the caller
/// after the session's metrics are exported.
pub fn serve_workers<R: BufRead, W: Write + Send>(
    hub: &IntelHub,
    cfg: TriageConfig,
    input: R,
    out: W,
    obs: &Obs,
    opts: ServeOptions,
    plan: &WorkerPlan,
) -> io::Result<ServeSession> {
    let workers = plan.workers.max(1);
    let depth = plan.queue_depth.max(1);
    let sample_every = opts.trace.sample_every;

    obs.gauge("intel.serve.workers", &[]).set(workers as i64);
    obs.gauge("intel.serve.queue_depth", &[]).set(depth as i64);
    let blocked = obs.counter("intel.serve.blocked_sends", &[]);
    let wait = obs.histogram("intel.serve.backpressure_wait_ns", &[]);

    let (work_tx, work_rx) = bounded::<Work>(depth);
    // The reply queue holds at most one in-flight message per admitted
    // request, so depth + a batch per worker never truly blocks; the
    // bound exists to keep a stalled writer from buffering unboundedly.
    let (reply_tx, reply_rx) = bounded::<ToCollector>(depth + workers * BATCH_MAX);

    // Sheds noted by the reader (no seq, no message) for the collector
    // to fold into the session stats before its next in-order message.
    let shed_unseq = AtomicU64::new(0);
    let panics: Mutex<Vec<Box<dyn std::any::Any + Send>>> = Mutex::new(Vec::new());

    let (session, out, reader_err, collector_err) = thread::scope(|s| {
        // ---- triage workers ------------------------------------------------
        let worker_handles: Vec<_> = (0..workers)
            .map(|wid| {
                let work_rx = work_rx.clone();
                let reply_tx = reply_tx.clone();
                let mut triage = Triage::with_config(hub.reader(), cfg.clone());
                let blocked = blocked.clone();
                let wait = wait.clone();
                let panics = &panics;
                let panic_on = plan.panic_on.as_deref();
                let label = wid.to_string();
                let w_queries = obs.counter("intel.serve.worker.queries", &[("worker", &label)]);
                let w_batches = obs.counter("intel.serve.worker.batches", &[("worker", &label)]);
                let batch_size = obs.histogram("intel.serve.worker.batch_size", &[]);
                let busy_ns = obs.histogram("intel.serve.worker.busy_ns", &[]);
                s.spawn(move || {
                    let mut items: Vec<Work> = Vec::with_capacity(BATCH_MAX);
                    while let Ok(first) = work_rx.recv() {
                        items.clear();
                        items.push(first);
                        while items.len() < BATCH_MAX {
                            match work_rx.try_recv() {
                                Ok(m) => items.push(m),
                                Err(_) => break,
                            }
                        }
                        // How many replies made it out before a panic, so
                        // the remainder of the batch can be shed.
                        let sent = std::cell::Cell::new(0usize);
                        let body = AssertUnwindSafe(|| {
                            busy_ns.time(|| {
                                for m in &items {
                                    if panic_on == Some(m.line.as_str()) {
                                        panic!("injected worker fault: {}", m.line);
                                    }
                                    let Some((_, Request::Query(query))) = classify(Ok(&m.line))
                                    else {
                                        unreachable!("the reader admits only query lines");
                                    };
                                    let tb = m.traced.then(|| TraceBuilder::detached(&m.line));
                                    let (reply, trace) = answer_query(&mut triage, &query, tb);
                                    obs_send(
                                        &reply_tx,
                                        ToCollector::Reply {
                                            seq: m.seq,
                                            reply,
                                            trace,
                                        },
                                        &blocked,
                                        &wait,
                                    );
                                    sent.set(sent.get() + 1);
                                }
                            });
                        });
                        w_batches.inc();
                        batch_size.record(items.len() as u64);
                        if let Err(payload) = catch_unwind(body) {
                            w_queries.add(sent.get() as u64);
                            panics.lock().unwrap().push(payload);
                            // Shed the batch's unanswered remainder so the
                            // seq stream stays dense past the failure.
                            for m in items.drain(sent.get()..) {
                                let _ = reply_tx.send(ToCollector::Shed { seq: m.seq });
                            }
                            return;
                        }
                        w_queries.add(items.len() as u64);
                    }
                })
            })
            .collect();

        // ---- collector -----------------------------------------------------
        let collector = {
            let mut triage = Triage::with_config(hub.reader(), cfg.clone());
            let mut core = SessionCore::new(obs, &opts);
            let shed_unseq = &shed_unseq;
            let reorder_high = obs.gauge("intel.serve.reorder_depth", &[]);
            let mut out = out;
            s.spawn(move || {
                let mut pending: BTreeMap<u64, ToCollector> = BTreeMap::new();
                let mut next: u64 = 0;
                let mut high: usize = 0;
                let mut io_err: Option<io::Error> = None;
                let handle = |msg: ToCollector,
                              core: &mut SessionCore,
                              triage: &mut Triage,
                              out: &mut W|
                 -> io::Result<()> {
                    match msg {
                        ToCollector::Reply { reply, trace, .. } => {
                            core.tracer.note_requests(1);
                            if let Some(trace) = trace {
                                let id = core.tracer.adopt(trace);
                                core.tracer.exemplar(reply.lane.hist_name(), id, reply.ns);
                            }
                            core.record_reply(&reply);
                            writeln!(out, "{}", reply.text)
                        }
                        ToCollector::Verb { line, .. } => match classify(Ok(&line)) {
                            Some((_, Request::Verb(cmd, rest))) => {
                                core.verb(triage, cmd, rest, out)
                            }
                            // The reader forwards nothing else as a verb.
                            _ => Ok(()),
                        },
                        ToCollector::Error { class, cmd, .. } => core.reject(class, &cmd, out),
                        ToCollector::Shed { .. } => {
                            core.shed();
                            Ok(())
                        }
                    }
                };
                for msg in reply_rx.iter() {
                    // Reader-side sheds are folded in before the next
                    // in-order message, so any verb sent after a shed
                    // observes it.
                    for _ in 0..shed_unseq.swap(0, Ordering::Relaxed) {
                        core.shed();
                    }
                    pending.insert(msg.seq(), msg);
                    high = high.max(pending.len());
                    while let Some(m) = pending.remove(&next) {
                        next += 1;
                        if let Err(e) = handle(m, &mut core, &mut triage, &mut out) {
                            io_err.get_or_insert(e);
                        }
                    }
                }
                // Conservation: every admitted seq arrives exactly once,
                // so pending is empty here unless a hole was never
                // filled; emit whatever remains in ascending order
                // rather than losing it.
                for (_, m) in std::mem::take(&mut pending) {
                    if let Err(e) = handle(m, &mut core, &mut triage, &mut out) {
                        io_err.get_or_insert(e);
                    }
                }
                for _ in 0..shed_unseq.swap(0, Ordering::Relaxed) {
                    core.shed();
                }
                reorder_high.set(high as i64);
                (core, out, io_err)
            })
        };

        // ---- reader (caller thread) ---------------------------------------
        let mut seq: u64 = 0;
        let mut q_count: u64 = 0;
        let mut reader_err: Option<io::Error> = None;
        let mut lines = LineReader::new(input);
        loop {
            let read = match lines.next_line() {
                Ok(Some(read)) => read,
                Ok(None) => break,
                Err(e) => {
                    reader_err = Some(e);
                    break;
                }
            };
            let Some((line, request)) = classify(read) else {
                continue;
            };
            let to_collector = match request {
                Request::Quit => break,
                Request::Query(_) => {
                    // Replicates Tracer::begin's cadence: first query
                    // always traced, then 1-in-K (0 = never).
                    let traced = sample_every != 0 && q_count.is_multiple_of(sample_every);
                    match work_tx.try_send(Work {
                        seq,
                        line: line.to_string(),
                        traced,
                    }) {
                        Ok(()) => {
                            seq += 1;
                            q_count += 1;
                        }
                        Err(TrySendError::Full(_)) => {
                            shed_unseq.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(TrySendError::Disconnected(_)) => break,
                    }
                    continue;
                }
                Request::Verb(..) => ToCollector::Verb {
                    seq,
                    line: line.to_string(),
                },
                Request::Malformed(class, cmd) => ToCollector::Error {
                    seq,
                    class,
                    cmd: cmd.to_string(),
                },
            };
            if reply_tx.send(to_collector).is_err() {
                break;
            }
            seq += 1;
        }

        // Shutdown: starve the workers, join them, then shed whatever
        // they never picked up (all-workers-dead case) so the collector
        // sees every seq.
        drop(work_tx);
        for h in worker_handles {
            let _ = h.join();
        }
        while let Ok(m) = work_rx.try_recv() {
            let _ = reply_tx.send(ToCollector::Shed { seq: m.seq });
        }
        drop(reply_tx);
        let (core, out, collector_err) = collector.join().expect("collector never panics");
        (core, out, reader_err, collector_err)
    });
    drop(out);

    let mut core = session;
    let panics = panics.into_inner().unwrap();
    core.stats.worker_panics = panics.len() as u64;
    let session = core.finish(obs);
    if let Some(payload) = panics.into_iter().next() {
        resume_unwind(payload);
    }
    if let Some(e) = reader_err.or(collector_err) {
        return Err(e);
    }
    Ok(session)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::IntelSnapshot;
    use smishing_core::pipeline::Pipeline;
    use smishing_worldsim::{World, WorldConfig};

    fn hub() -> IntelHub {
        let w = World::generate(WorldConfig::test_scale(53));
        let out = Pipeline::default().run(&w, &Obs::noop());
        let hub = IntelHub::new();
        hub.publish(IntelSnapshot::build(&out));
        hub
    }

    #[test]
    fn workers_answer_in_input_order() {
        let hub = hub();
        let mut t = Triage::new(hub.reader());
        let mut serve = |input: &[u8]| {
            let mut out = Vec::new();
            let session = crate::serve::serve_session(
                &mut t,
                input,
                &mut out,
                &Obs::noop(),
                ServeOptions::default(),
            )
            .unwrap();
            (session.stats, out)
        };
        let (_, sample) = serve(b"sample 40\n");
        let script = String::from_utf8(sample).unwrap();
        let (seq_stats, seq_out) = serve(script.as_bytes());

        for workers in [1, 4] {
            let mut out = Vec::new();
            let session = serve_workers(
                &hub,
                TriageConfig::default(),
                script.as_bytes(),
                &mut out,
                &Obs::noop(),
                ServeOptions::default(),
                &WorkerPlan::new(workers, 1024),
            )
            .unwrap();
            assert_eq!(out, seq_out, "workers={workers}");
            assert_eq!(session.stats.queries, seq_stats.queries);
            assert_eq!(session.stats.hits, seq_stats.hits);
            assert_eq!(session.stats.shed, 0);
        }
    }

    #[test]
    fn verbs_are_barriers_with_prefix_exact_counts() {
        let hub = hub();
        let script = "url https://nope-1.example/a\nurl https://nope-2.example/b\nstats\n\
                      url https://nope-3.example/c\nstats\nquit\n";
        let mut out = Vec::new();
        let session = serve_workers(
            &hub,
            TriageConfig::default(),
            script.as_bytes(),
            &mut out,
            &Obs::noop(),
            ServeOptions::default(),
            &WorkerPlan::new(4, 64),
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        let stats_lines: Vec<&str> = text.lines().filter(|l| l.starts_with("stats ")).collect();
        assert_eq!(stats_lines.len(), 2, "{text}");
        assert!(stats_lines[0].contains("queries=2 "), "{}", stats_lines[0]);
        assert!(stats_lines[1].contains("queries=3 "), "{}", stats_lines[1]);
        assert_eq!(session.stats.queries, 3);
        assert_eq!(session.stats.misses, 3);
    }

    #[test]
    fn worker_metrics_and_trace_ids_follow_request_order() {
        let hub = hub();
        let obs = Obs::enabled();
        let script = "url https://nope-1.example/a\nurl https://nope-2.example/b\n\
                      url https://nope-3.example/c\ntraces 10\n";
        let mut out = Vec::new();
        let session = serve_workers(
            &hub,
            TriageConfig::default(),
            script.as_bytes(),
            &mut out,
            &obs,
            ServeOptions {
                trace: smishing_obs::TracerConfig {
                    sample_every: 2,
                    ..smishing_obs::TracerConfig::default()
                },
                ts_window: 30,
                ..ServeOptions::default()
            },
            &WorkerPlan::new(2, 64),
        )
        .unwrap();
        // 3 queries, 1-in-2 sampling: requests 1 and 3 traced.
        assert_eq!(session.tracer.requests(), 3);
        assert_eq!(session.tracer.sampled(), 2);
        let text = String::from_utf8(out).unwrap();
        assert!(
            text.contains("traces retained=2 sampled=2 requests=3"),
            "{text}"
        );
        let report = obs.json_report();
        for key in [
            "intel.serve.worker.queries",
            "intel.serve.worker.batch_size",
            "intel.serve.workers",
            "intel.serve.queue_depth",
        ] {
            assert!(report.contains(key), "{key} missing: {report}");
        }
    }

    #[test]
    fn unreadable_lines_answer_in_order_like_inline() {
        let hub = hub();
        let mut input = b"url https://nope-1.example/a\nurl http://\xff.example\n".to_vec();
        input.extend(std::iter::repeat_n(b'x', crate::serve::MAX_LINE_BYTES + 1));
        input.extend_from_slice(b"\nurl https://nope-2.example/b\nstats\n");

        let mut seq_out = Vec::new();
        let seq = crate::serve::serve_session(
            &mut Triage::new(hub.reader()),
            &input[..],
            &mut seq_out,
            &Obs::noop(),
            ServeOptions::default(),
        )
        .unwrap();
        assert_eq!((seq.stats.queries, seq.stats.errors), (2, 2));
        let text = String::from_utf8(seq_out.clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[1..3], ["err invalid utf-8", "err line too long"]);

        let mut out = Vec::new();
        let session = serve_workers(
            &hub,
            TriageConfig::default(),
            &input[..],
            &mut out,
            &Obs::noop(),
            ServeOptions::default(),
            &WorkerPlan::new(2, 64),
        )
        .unwrap();
        assert_eq!(session.stats.errors, 2);
        let mask = |b: &[u8]| {
            let t = String::from_utf8(b.to_vec()).unwrap();
            t.lines()
                .map(|l| l.split(" lookup_p99_ns=").next().unwrap().to_string())
                .collect::<Vec<_>>()
        };
        assert_eq!(mask(&out), mask(&seq_out));
    }
}
