//! The stdin/stdout line protocol behind `smish serve`.
//!
//! One request per line, one response per line — trivially scriptable
//! (the CI smoke job pipes a query batch through and reads the counters
//! out of the run report). Commands:
//!
//! ```text
//! url <raw>            look up a URL (defanged/homoglyph spellings ok)
//! sender <raw>         look up a sender ID / phone number
//! msg <text>           triage a raw SMS body
//! msg <sender>|<text>  triage with a sender
//! near <text>          similarity-tier lookup: nearest campaign template
//! explain <msg|url …>  run one query force-traced; reply + full span tree
//! traces [n]           render the n slowest retained traces (default 5)
//! timeseries [n]       per-second qps/latency/rate lines, newest first
//! health               epoch age, index sizes, templates, cache, shed,
//!                      retained/evicted counts, aging window, process RSS
//!                      (plus an adversary gauge when a drift profile is live)
//! sample <n>           emit n ready-to-feed query lines from the store
//! sample near <n>      emit n ready-to-feed `near` lines (entry texts)
//! stats                one-line counter summary (incl. template count and
//!                      near-tier latency/candidate quantiles)
//! quit                 stop serving
//! ```
//!
//! Responses: `hit via=<pivot> key=<canonical> template=<id> ...`,
//! `miss <kind> key=<canonical>`, `near score=<p> template=<id>
//! hamming=<d> jaccard=<j> ...`, `triage score=<p> smishing=<bool>
//! via=<index|near|model|none>`, or `err <reason>` — including `err
//! invalid utf-8` and `err line too long` for a line that is not UTF-8
//! or exceeds 64 KiB; the session keeps serving after either. Latencies
//! go into the `intel.serve.lookup_ns` / `intel.serve.triage_ns` /
//! `intel.serve.near_ns` histograms (plus the candidate-set sizes into
//! `intel.serve.near_candidates`) and the `intel.serve.*` counters of
//! the run report.
//!
//! ## Introspection
//!
//! Every session owns a [`Tracer`] and a [`TimeRing`]. Queries are
//! tail-sampled (1-in-K, [`TracerConfig::sample_every`]) into span-tree
//! traces — the rest of the traffic runs the exact untraced ladder — and
//! every query lands in the per-second time-series ring regardless of
//! sampling. `explain` forces a trace for one query without waiting for
//! the sampler. At EOF the session exports `trace.*` and `serve.ts.*`
//! gauges (including per-histogram exemplar trace ids) into the run
//! report next to the latency histograms they explain.
//!
//! ## Two execution modes, one protocol
//!
//! [`serve_session`] answers inline on the calling thread. The
//! multi-worker plane in [`crate::workers`] parses and classifies on a
//! reader thread, fans queries out to N triage workers, and reassembles
//! replies in sequence order — sharing `LineReader` (input), `classify`
//! (parsing), `answer_query` (the one timed [`Triage::answer`] call and
//! its reply line) and `SessionCore` (accounting) with this module so
//! its stdout stays byte-identical to the sequential path. Requests
//! the bounded queue cannot admit are *shed*: no response line, but a
//! `serve.shed` count surfaced in the `stats`/`health` verbs and the
//! time-series ring (nothing is ever silently dropped).

use crate::triage::{Query, Triage, TriageVerdict};
use smishing_obs::{
    Histogram, Obs, TimeRing, Trace, TraceBuilder, Tracer, TracerConfig, TsOutcome,
};
use std::io::{self, BufRead, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Counters of one serving session.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ServeStats {
    /// Total query lines processed (sample/stats lines excluded).
    pub queries: u64,
    /// Known-infrastructure hits.
    pub hits: u64,
    /// Similarity-tier hits (`near` queries and `msg` lines resolved by
    /// the near rung).
    pub near_hits: u64,
    /// `near` queries that matched no template.
    pub near_misses: u64,
    /// Lookup misses (url/sender queries that matched nothing).
    pub misses: u64,
    /// Messages that fell through to the model (`msg` without an index
    /// hit).
    pub triaged: u64,
    /// Malformed lines.
    pub errors: u64,
    /// Queries refused at admission (bounded queue full) or abandoned by
    /// a dying worker. Always 0 in the sequential path.
    pub shed: u64,
    /// Triage workers lost to a panic (the payload is re-raised on the
    /// caller after the session's accounting is exported).
    pub worker_panics: u64,
}

/// Live gauge for a session fed by an adversarial stream: which drift
/// profile is running, how many rotation waves it scheduled, and (via a
/// counter shared with the stream iterator) how many wave posts have
/// been injected so far. Surfaced as a suffix on the `health` line; when
/// absent the line is byte-identical to a plain session.
#[derive(Debug, Clone)]
pub struct AdversaryGauge {
    /// Profile label (the `AdversaryPlan` display form).
    pub profile: String,
    /// Rotation waves scheduled over the stream.
    pub waves: u64,
    /// Wave posts injected so far, incremented by the stream side.
    pub injected: Arc<AtomicU64>,
}

/// Session tuning for [`serve_session`].
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Tracer tuning (sampling rate, ring and slowest-N capacities).
    pub trace: TracerConfig,
    /// Time-series window in seconds.
    pub ts_window: usize,
    /// Adversarial-stream gauge, if this session's snapshots come from
    /// a drifting world.
    pub adversary: Option<AdversaryGauge>,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            trace: TracerConfig::default(),
            ts_window: 120,
            adversary: None,
        }
    }
}

/// Everything a finished serving session knows about itself.
#[derive(Debug)]
pub struct ServeSession {
    /// Aggregate counters.
    pub stats: ServeStats,
    /// Retained traces (ring + slowest-N + exemplars).
    pub tracer: Tracer,
    /// Per-second time series.
    pub ring: TimeRing,
}

/// Stable verdict label for trace retention and response accounting.
pub fn verdict_label(v: &TriageVerdict) -> &'static str {
    match v {
        TriageVerdict::Hit(_) => "hit",
        TriageVerdict::Near(_) => "near",
        TriageVerdict::ModelOnly { .. } => "model",
        TriageVerdict::Unknown => "unknown",
    }
}

/// Render a verdict as one protocol response line (`hit ...` /
/// `triage ...`). Shared by `serve` and the one-shot `query` command.
pub fn verdict_line(v: &TriageVerdict) -> String {
    match v {
        TriageVerdict::Hit(a) => format!(
            "hit via={} key={} template={} cluster={} size={} scam={} reports={} first={} last={}",
            a.matched.label(),
            a.key,
            a.template,
            a.cluster,
            a.cluster_size,
            a.scam_type.label(),
            a.n_reports,
            a.first_seen.0,
            a.last_seen.0,
        ),
        TriageVerdict::Near(a) => format!(
            "near score={:.4} template={} cluster={} size={} scam={} hamming={} jaccard={:.4} reports={}",
            a.score(),
            a.template,
            a.cluster,
            a.cluster_size,
            a.scam_type.label(),
            a.hamming,
            a.jaccard,
            a.n_reports,
        ),
        TriageVerdict::ModelOnly { score } => {
            format!(
                "triage score={score:.4} smishing={} via=model",
                *score >= 0.5
            )
        }
        TriageVerdict::Unknown => "triage score=0.0000 smishing=false via=none".to_string(),
    }
}

/// Longest request line served, newline excluded. A longer line is
/// skipped up to its newline without being buffered and answered
/// `err line too long`.
pub(crate) const MAX_LINE_BYTES: usize = 64 * 1024;

/// Request lines off the wire, through one reused byte buffer capped at
/// [`MAX_LINE_BYTES`]. Both execution modes read through it. It never
/// asks the input for bytes past a line's newline, so a closed-loop
/// client that sends line n+1 only after reply n is served without
/// deadlock.
pub(crate) struct LineReader<R> {
    input: R,
    buf: Vec<u8>,
}

impl<R: BufRead> LineReader<R> {
    pub(crate) fn new(input: R) -> Self {
        LineReader {
            input,
            buf: Vec::new(),
        }
    }

    /// The next line without its newline — `Err` with the reply reason
    /// when it is not valid UTF-8 or over the cap — or `None` at EOF.
    pub(crate) fn next_line(&mut self) -> io::Result<Option<Result<&str, &'static str>>> {
        self.buf.clear();
        let mut read_any = false;
        let mut too_long = false;
        loop {
            let chunk = match self.input.fill_buf() {
                Ok(chunk) => chunk,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            };
            if chunk.is_empty() {
                if !read_any {
                    return Ok(None);
                }
                break;
            }
            read_any = true;
            let newline = chunk.iter().position(|&b| b == b'\n');
            let take = newline.unwrap_or(chunk.len());
            if !too_long {
                if self.buf.len() + take > MAX_LINE_BYTES {
                    too_long = true;
                    self.buf.clear();
                } else {
                    self.buf.extend_from_slice(&chunk[..take]);
                }
            }
            self.input.consume(take + usize::from(newline.is_some()));
            if newline.is_some() {
                break;
            }
        }
        if too_long {
            return Ok(Some(Err("line too long")));
        }
        Ok(Some(
            std::str::from_utf8(&self.buf).map_err(|_| "invalid utf-8"),
        ))
    }
}

/// One classified request line.
pub(crate) enum Request<'a> {
    /// `quit` / `exit` — stop serving.
    Quit,
    /// A triage query, answerable by any worker.
    Query(Query<'a>),
    /// An introspection verb and its argument, answered on the session
    /// (collector) thread where the tracer/ring/stats live.
    Verb(&'a str, &'a str),
    /// A line answered `err {reason}` and counted under `errors`.
    Malformed(String),
}

/// Classify one line as the [`LineReader`] returned it; `None` for a
/// blank line. The single protocol grammar shared by the sequential
/// loop and the worker plane. Also returns the trimmed line (empty for
/// an unreadable one), which names the request in traces.
pub(crate) fn classify<'a>(read: Result<&'a str, &'static str>) -> Option<(&'a str, Request<'a>)> {
    let line = match read {
        Ok(line) => line.trim(),
        Err(reason) => return Some(("", Request::Malformed(reason.to_string()))),
    };
    if line.is_empty() {
        return None;
    }
    let (cmd, rest) = line.split_once(' ').unwrap_or((line, ""));
    let rest = rest.trim();
    let request = match cmd {
        "quit" | "exit" => Request::Quit,
        "url" | "sender" | "near" | "explain" if rest.is_empty() => {
            Request::Malformed(format!("{cmd} needs a value"))
        }
        "explain" | "traces" | "timeseries" | "health" | "sample" | "stats" => {
            Request::Verb(cmd, rest)
        }
        _ => match Query::parse(cmd, rest) {
            Some(q) => Request::Query(q),
            None => Request::Malformed(format!("unknown command {cmd}")),
        },
    };
    Some((line, request))
}

/// The latency histogram a query is accounted into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Lane {
    /// `url` / `sender`: `intel.serve.lookup_ns`.
    Lookup,
    /// `near`: `intel.serve.near_ns` (plus `intel.serve.near_candidates`).
    Near,
    /// `msg`: `intel.serve.triage_ns`.
    Triage,
}

impl Lane {
    fn of(query: &Query<'_>) -> Lane {
        match query {
            Query::Url(_) | Query::Sender(_) => Lane::Lookup,
            Query::Near(_) => Lane::Near,
            Query::Msg { .. } => Lane::Triage,
        }
    }

    /// Histogram name (also the exemplar key sampled traces attach to).
    pub(crate) fn hist_name(self) -> &'static str {
        match self {
            Lane::Lookup => "intel.serve.lookup_ns",
            Lane::Near => "intel.serve.near_ns",
            Lane::Triage => "intel.serve.triage_ns",
        }
    }
}

/// A fully formatted response to one query plus everything the session
/// needs to account for it. Built inline by the sequential loop and
/// shipped over the reply channel by triage workers.
#[derive(Debug)]
pub(crate) struct QueryReply {
    /// The latency histogram this query lands in.
    pub lane: Lane,
    /// The response line (no trailing newline).
    pub text: String,
    /// Time-series outcome bucket.
    pub outcome: TsOutcome,
    /// Wall time of the [`Triage::answer`] call, wherever it ran.
    pub ns: u64,
    /// Near candidate-set size (recorded for the `near` lane only).
    pub candidates: u64,
    /// True when the call absorbed a republish (cache flush + model
    /// retrain); its wall time is the cost.
    pub republished: bool,
}

/// The time-series bucket of a verdict given the query that asked.
fn outcome_of(query: &Query<'_>, v: &TriageVerdict) -> TsOutcome {
    match (v, query) {
        (TriageVerdict::Hit(_), _) => TsOutcome::Hit,
        (TriageVerdict::Near(_), _) => TsOutcome::Near,
        (_, Query::Msg { .. }) => TsOutcome::Triaged,
        _ => TsOutcome::Miss,
    }
}

/// The protocol response line for one answered query: the verdict line,
/// or `miss <verb> key=<raw>` when a `url`/`sender`/`near` lookup found
/// nothing. Shared by `serve` and the one-shot `smish query`.
pub fn reply_line(query: &Query<'_>, v: &TriageVerdict) -> String {
    match (outcome_of(query, v), query) {
        (TsOutcome::Miss, Query::Url(key) | Query::Sender(key) | Query::Near(key)) => {
            format!("miss {} key={key}", query.verb())
        }
        _ => verdict_line(v),
    }
}

/// Answer one query and build its reply: the one place either execution
/// mode calls [`Triage::answer`]. The clock runs around that call alone,
/// so the reader refresh — and with it a republish's cache flush and
/// model retrain — lands in the query's latency and in the `serve.ts`
/// republish cost in both modes. A sampled trace is finished with the
/// verdict label.
pub(crate) fn answer_query(
    triage: &mut Triage,
    query: &Query<'_>,
    mut trace: Option<TraceBuilder>,
) -> (QueryReply, Option<Trace>) {
    let t = Instant::now();
    let a = triage.answer(query, trace.as_mut());
    let ns = t.elapsed().as_nanos() as u64;
    let reply = QueryReply {
        lane: Lane::of(query),
        text: reply_line(query, &a.verdict),
        outcome: outcome_of(query, &a.verdict),
        ns,
        candidates: a.candidates as u64,
        republished: a.republished,
    };
    (reply, trace.map(|tb| tb.finish(verdict_label(&a.verdict))))
}

/// The query an `explain` argument names: `url|sender|near <value>`, or
/// else the whole argument as a message (optionally `sender|text`, with
/// an explicit `msg ` prefix allowed).
fn explain_query(rest: &str) -> Query<'_> {
    let named = rest.split_once(' ').and_then(|(cmd, value)| match cmd {
        "url" | "sender" | "near" if !value.is_empty() => Query::parse(cmd, value),
        _ => None,
    });
    named.unwrap_or_else(|| Query::msg(rest.strip_prefix("msg ").unwrap_or(rest).trim()))
}

/// Answer one request force-traced and write the verdict line, then the
/// rendered span tree; the trace is retained by `tracer`. The serve
/// `explain` verb and `smish query explain` share it.
pub fn explain<W: Write>(
    triage: &mut Triage,
    tracer: &mut Tracer,
    rest: &str,
    out: &mut W,
) -> io::Result<()> {
    let mut tb = tracer.begin_forced(rest);
    let v = triage.answer(&explain_query(rest), Some(&mut tb)).verdict;
    let trace = tb.finish(verdict_label(&v));
    writeln!(out, "{}", verdict_line(&v))?;
    write!(out, "{}", trace.render())?;
    tracer.finish(trace);
    Ok(())
}

/// The session-thread half of a serving session: counters, tracer,
/// time-series ring, and the latency histograms every response lands
/// in. The sequential loop drives one inline; the worker plane's
/// collector drives one in sequence order, which keeps every
/// protocol-visible number (stats counters, histogram quantiles, trace
/// ids) prefix-exact with the single-threaded path.
pub(crate) struct SessionCore {
    pub stats: ServeStats,
    pub tracer: Tracer,
    pub ring: TimeRing,
    pub started: Instant,
    adversary: Option<AdversaryGauge>,
    lookup_ns: Histogram,
    triage_ns: Histogram,
    near_ns: Histogram,
    near_candidates: Histogram,
}

impl SessionCore {
    pub(crate) fn new(obs: &Obs, opts: &ServeOptions) -> Self {
        SessionCore {
            stats: ServeStats::default(),
            tracer: Tracer::new(opts.trace),
            ring: TimeRing::new(opts.ts_window),
            started: Instant::now(),
            adversary: opts.adversary.clone(),
            lookup_ns: obs.histogram("intel.serve.lookup_ns", &[]),
            triage_ns: obs.histogram("intel.serve.triage_ns", &[]),
            near_ns: obs.histogram("intel.serve.near_ns", &[]),
            near_candidates: obs.histogram("intel.serve.near_candidates", &[]),
        }
    }

    fn hist(&self, lane: Lane) -> &Histogram {
        match lane {
            Lane::Lookup => &self.lookup_ns,
            Lane::Near => &self.near_ns,
            Lane::Triage => &self.triage_ns,
        }
    }

    /// Account one malformed line and write its `err` reply.
    pub(crate) fn error<W: Write>(&mut self, reason: &str, out: &mut W) -> io::Result<()> {
        self.stats.errors += 1;
        let second = self.started.elapsed().as_secs();
        self.ring.record(second, TsOutcome::Error, 0);
        writeln!(out, "err {reason}")
    }

    /// Account one shed request (admitted nowhere, answered never).
    pub(crate) fn shed(&mut self) {
        self.stats.shed += 1;
        let second = self.started.elapsed().as_secs();
        self.ring.record(second, TsOutcome::Shed, 0);
    }

    /// Account one answered query: stats bucket, latency histogram,
    /// time-series ring, republish absorption.
    pub(crate) fn record_reply(&mut self, r: &QueryReply) {
        self.stats.queries += 1;
        match r.outcome {
            TsOutcome::Hit => self.stats.hits += 1,
            TsOutcome::Near => self.stats.near_hits += 1,
            TsOutcome::Miss => {
                if r.lane == Lane::Near {
                    self.stats.near_misses += 1;
                } else {
                    self.stats.misses += 1;
                }
            }
            TsOutcome::Triaged => self.stats.triaged += 1,
            TsOutcome::Error | TsOutcome::Shed => {}
        }
        self.hist(r.lane).record(r.ns);
        if r.lane == Lane::Near {
            self.near_candidates.record(r.candidates);
        }
        let second = self.started.elapsed().as_secs();
        self.ring.record(second, r.outcome, r.ns);
        if r.republished {
            self.ring.record_republish(second, r.ns);
        }
    }

    /// Handle one introspection verb. Runs on the thread that owns the
    /// tracer/ring/stats (inline sequentially; the collector in worker
    /// mode), with a triage handle for snapshot-backed verbs.
    pub(crate) fn verb<W: Write>(
        &mut self,
        triage: &mut Triage,
        cmd: &str,
        rest: &str,
        out: &mut W,
    ) -> io::Result<()> {
        match cmd {
            // Force-traced one-shot: reply line, then the span tree.
            // Introspection, not traffic — histograms and the time series
            // stay clean of its always-on tracing overhead.
            "explain" => explain(triage, &mut self.tracer, rest, out)?,
            "traces" => {
                let n: usize = rest.parse().unwrap_or(5);
                let slowest: Vec<String> = self.tracer.slowest(n).map(|t| t.render()).collect();
                writeln!(
                    out,
                    "traces retained={} sampled={} requests={}",
                    slowest.len(),
                    self.tracer.sampled(),
                    self.tracer.requests()
                )?;
                for t in slowest {
                    write!(out, "{t}")?;
                }
            }
            "timeseries" => {
                let n: usize = rest.parse().unwrap_or(self.ring.window());
                let rendered = self.ring.render(n);
                writeln!(
                    out,
                    "timeseries window_s={} lines={}",
                    self.ring.window(),
                    rendered.lines().count()
                )?;
                write!(out, "{rendered}")?;
            }
            "health" => match triage.snapshot() {
                Some(snap) => {
                    let sizes = snap.index_sizes();
                    // Empty unless an adversarial stream registered a
                    // gauge — the default line must stay byte-identical.
                    let adversary = self.adversary.as_ref().map_or_else(String::new, |g| {
                        format!(
                            " adversary={} waves={} injected={}",
                            g.profile,
                            g.waves,
                            g.injected.load(Ordering::Relaxed),
                        )
                    });
                    writeln!(
                        out,
                        "health epoch={} epoch_age_s={} entries={} urls={} domains={} \
                         senders={} phones={} brands={} clusters={} templates={} \
                         cache_len={} cache_cap={} shed={} retained={} evicted={} \
                         window_s={} rss_bytes={}{adversary}",
                        triage.epoch_seen(),
                        triage.epoch_age().map_or(0, |d| d.as_secs()),
                        snap.len(),
                        sizes.urls,
                        sizes.domains,
                        sizes.senders,
                        sizes.phones,
                        sizes.brands,
                        snap.cluster_count(),
                        snap.template_count(),
                        triage.cache_len(),
                        triage.cache_capacity(),
                        self.stats.shed,
                        snap.len(),
                        snap.evicted_count(),
                        snap.window_secs().map_or(0, |w| w),
                        process_rss_bytes(),
                    )?;
                }
                None => writeln!(out, "err no snapshot published yet")?,
            },
            "sample" => {
                // `sample near <n>` emits entry texts as `near` query
                // lines; plain `sample <n>` emits url/sender lines.
                let (near_sample, n_str) = match rest.split_once(' ') {
                    Some(("near", n)) => (true, n.trim()),
                    _ => (rest == "near", rest),
                };
                let n: usize = n_str.parse().unwrap_or(10);
                match triage.snapshot() {
                    Some(snap) => {
                        let mut emitted = 0;
                        for (id, e) in snap.entries().iter().enumerate() {
                            if emitted >= n {
                                break;
                            }
                            if near_sample {
                                // Texts that shingle to nothing (URL-only
                                // bodies) can never self-match; skip them.
                                if snap.sim().shingles_of(id as u32).is_empty() {
                                    continue;
                                }
                                writeln!(out, "near {}", e.text)?;
                            } else if let Some(u) = e.url {
                                writeln!(out, "url {}", snap.resolve(u))?;
                            } else if let Some(s) = e.sender {
                                writeln!(out, "sender {}", snap.resolve(s))?;
                            } else {
                                continue;
                            }
                            emitted += 1;
                        }
                    }
                    None => writeln!(out, "err no snapshot published yet")?,
                }
            }
            "stats" => {
                let templates = triage.snapshot().map_or(0, |s| s.template_count());
                writeln!(
                    out,
                    "stats queries={} hits={} near_hits={} near_misses={} misses={} triaged={} errors={} shed={} templates={} \
                     lookup_p99_ns={} triage_p99_ns={} near_p50_ns={} near_p99_ns={} near_cand_p50={} near_cand_p99={}",
                    self.stats.queries,
                    self.stats.hits,
                    self.stats.near_hits,
                    self.stats.near_misses,
                    self.stats.misses,
                    self.stats.triaged,
                    self.stats.errors,
                    self.stats.shed,
                    templates,
                    self.lookup_ns.quantile(0.99).round() as u64,
                    self.triage_ns.quantile(0.99).round() as u64,
                    self.near_ns.quantile(0.50).round() as u64,
                    self.near_ns.quantile(0.99).round() as u64,
                    self.near_candidates.quantile(0.50).round() as u64,
                    self.near_candidates.quantile(0.99).round() as u64,
                )?;
            }
            other => {
                debug_assert!(false, "not a verb: {other}");
            }
        }
        Ok(())
    }

    /// Export the session's counters, traces, and time series into the
    /// run report and hand back the finished [`ServeSession`].
    pub(crate) fn finish(self, obs: &Obs) -> ServeSession {
        let SessionCore {
            stats,
            tracer,
            ring,
            ..
        } = self;
        obs.counter("intel.serve.queries", &[]).add(stats.queries);
        obs.counter("intel.serve.hits", &[]).add(stats.hits);
        obs.counter("intel.serve.near_hits", &[])
            .add(stats.near_hits);
        obs.counter("intel.serve.near_misses", &[])
            .add(stats.near_misses);
        obs.counter("intel.serve.misses", &[]).add(stats.misses);
        obs.counter("intel.serve.triaged", &[]).add(stats.triaged);
        obs.counter("intel.serve.errors", &[]).add(stats.errors);
        obs.counter("intel.serve.shed", &[]).add(stats.shed);
        obs.counter("intel.serve.worker_panics", &[])
            .add(stats.worker_panics);
        obs.gauge("intel.serve.rss_bytes", &[])
            .set(process_rss_bytes() as i64);
        tracer.export(obs);
        ring.export(obs);
        ServeSession {
            stats,
            tracer,
            ring,
        }
    }
}

/// Resident set size of this process in bytes: field 2 of
/// `/proc/self/statm` (pages) times the page size on Linux, 0 on other
/// platforms. Reported by the `health` verb and exported as the
/// `intel.serve.rss_bytes` gauge so the soak CI job can budget memory.
pub fn process_rss_bytes() -> u64 {
    #[cfg(target_os = "linux")]
    {
        // statm: size resident shared text lib data dt (in pages). The
        // kernel's page size is 4096 on every platform we run CI on; if
        // the file is unreadable, report 0 rather than fail a query.
        std::fs::read_to_string("/proc/self/statm")
            .ok()
            .and_then(|s| {
                s.split_whitespace()
                    .nth(1)
                    .and_then(|p| p.parse::<u64>().ok())
            })
            .map_or(0, |pages| pages * 4096)
    }
    #[cfg(not(target_os = "linux"))]
    {
        0
    }
}

/// Serve queries line by line until EOF or `quit`, returning the whole
/// session — counters, retained traces, and the per-second time series.
pub fn serve_session<R: BufRead, W: Write>(
    triage: &mut Triage,
    input: R,
    mut out: W,
    obs: &Obs,
    opts: ServeOptions,
) -> io::Result<ServeSession> {
    let mut core = SessionCore::new(obs, &opts);
    let mut lines = LineReader::new(input);
    while let Some(read) = lines.next_line()? {
        let Some((line, request)) = classify(read) else {
            continue;
        };
        match request {
            Request::Quit => break,
            Request::Malformed(reason) => core.error(&reason, &mut out)?,
            Request::Query(query) => {
                let tb = core.tracer.begin(line);
                let (reply, trace) = answer_query(triage, &query, tb);
                if let Some(trace) = trace {
                    core.tracer
                        .exemplar(reply.lane.hist_name(), trace.id, reply.ns);
                    core.tracer.finish(trace);
                }
                core.record_reply(&reply);
                writeln!(out, "{}", reply.text)?;
            }
            Request::Verb(cmd, rest) => core.verb(triage, cmd, rest, &mut out)?,
        }
    }
    Ok(core.finish(obs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hub::IntelHub;
    use crate::snapshot::IntelSnapshot;
    use crate::triage::TriageConfig;
    use smishing_core::pipeline::Pipeline;
    use smishing_obs::Obs;
    use smishing_worldsim::{World, WorldConfig};

    fn triage() -> Triage {
        let w = World::generate(WorldConfig::test_scale(53));
        let out = Pipeline::default().run(&w, &Obs::noop());
        let hub = IntelHub::new();
        hub.publish(IntelSnapshot::build(&out));
        Triage::with_config(
            hub.reader(),
            TriageConfig {
                train_model: false,
                ..TriageConfig::default()
            },
        )
    }

    fn serve(t: &mut Triage, input: &[u8], obs: &Obs) -> (ServeStats, String) {
        let mut out = Vec::new();
        let session = serve_session(t, input, &mut out, obs, ServeOptions::default()).unwrap();
        (session.stats, String::from_utf8(out).unwrap())
    }

    fn run(t: &mut Triage, script: &str) -> (ServeStats, String) {
        serve(t, script.as_bytes(), &Obs::noop())
    }

    #[test]
    fn sample_round_trips_to_hits() {
        let mut t = triage();
        let (_, script) = run(&mut t, "sample 25");
        assert_eq!(script.lines().count(), 25);
        let (stats, replies) = run(&mut t, &script);
        assert_eq!(stats.queries, 25);
        assert_eq!(stats.hits, 25, "sampled keys must all hit:\n{replies}");
        assert_eq!(stats.misses, 0);
    }

    #[test]
    fn misses_errors_and_quit() {
        let mut t = triage();
        let script =
            "url https://nope.example/x\nbogus line\nsender\nquit\nurl after-quit.example/y\n";
        let (stats, out) = run(&mut t, script);
        assert_eq!(stats.queries, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.errors, 2);
        assert!(out.contains("miss url"));
        assert!(out.contains("err unknown command"));
        assert!(!out.contains("after-quit"), "quit must stop the loop");
    }

    #[test]
    fn msg_lines_triage_and_counters_export() {
        let mut t = triage();
        let obs = Obs::enabled();
        let script = "msg +15550001111|win a prize now\nstats\n";
        let (stats, text) = serve(&mut t, script.as_bytes(), &obs);
        assert_eq!(stats.queries, 1);
        assert_eq!(stats.triaged + stats.hits + stats.near_hits, 1);
        assert!(text.contains("stats queries=1"), "{text}");
        assert!(text.contains("templates="), "{text}");
        let report = obs.json_report();
        assert!(report.contains("intel.serve.queries"), "{report}");
    }

    #[test]
    fn near_sample_round_trips_to_near_hits() {
        let mut t = triage();
        let (_, script) = run(&mut t, "sample near 20");
        assert_eq!(script.lines().count(), 20);
        assert!(script.lines().all(|l| l.starts_with("near ")), "{script}");
        let (stats, replies) = run(&mut t, &script);
        assert_eq!(stats.queries, 20);
        assert_eq!(
            stats.near_hits, 20,
            "identical texts must self-match:\n{replies}"
        );
        assert_eq!(stats.near_misses, 0);
        assert!(replies.lines().all(|l| l.starts_with("near score=")));
        assert!(replies.contains("template="), "{replies}");
    }

    #[test]
    fn explain_returns_span_tree_naming_every_rung() {
        let mut t = triage();
        let (_, sample) = run(&mut t, "sample 1");
        let url = sample.trim().strip_prefix("url ").unwrap_or(sample.trim());
        let script =
            format!("explain url {url}\nexplain +15550001111|lunch tomorrow at the usual spot?\n");
        let (stats, out) = run(&mut t, &script);
        // Introspection lines are not traffic.
        assert_eq!(stats.queries, 0, "{out}");
        assert!(out.contains("trace id=1 verdict=hit"), "{out}");
        assert!(out.contains("rung url wall_ns="), "{out}");
        assert!(out.contains("end id=1"), "{out}");
        // The full-message explain walks every rung of the ladder.
        for rung in ["refang", "sender", "phone", "near"] {
            assert!(
                out.contains(&format!("rung {rung} wall_ns=")),
                "{rung}: {out}"
            );
        }
        assert!(out.contains("trace id=2"), "{out}");
    }

    #[test]
    fn traces_verb_lists_retained_traces_slowest_first() {
        let mut t = triage();
        let (_, sample) = run(&mut t, "sample 3");
        // Explains are force-traced, so they are always retained.
        let explains: String = sample.lines().map(|l| format!("explain {l}\n")).collect();
        let (_, out) = run(&mut t, &format!("{explains}traces 2\n"));
        assert!(out.contains("traces retained=2 sampled=3"), "{out}");
        let totals: Vec<u64> = out
            .lines()
            .filter_map(|l| l.strip_prefix("trace id="))
            .filter_map(|l| {
                l.split_whitespace()
                    .find_map(|kv| kv.strip_prefix("total_ns="))
            })
            .filter_map(|v| v.parse().ok())
            .collect();
        // 3 explain trees + 2 listed trees = 5 rendered traces; the
        // listed pair comes slowest first.
        assert_eq!(totals.len(), 5, "{out}");
        assert!(totals[3] >= totals[4], "slowest first: {totals:?}");
    }

    #[test]
    fn timeseries_and_health_report_session_state() {
        let mut t = triage();
        let script = "url https://nope.example/x\nhealth\ntimeseries 5\nstats\n";
        let obs = Obs::enabled();
        let mut out = Vec::new();
        let session = serve_session(
            &mut t,
            script.as_bytes(),
            &mut out,
            &obs,
            ServeOptions::default(),
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        let health = text
            .lines()
            .find(|l| l.starts_with("health "))
            .expect("health line");
        for key in [
            "epoch=1",
            "epoch_age_s=",
            "entries=",
            "urls=",
            "domains=",
            "senders=",
            "phones=",
            "brands=",
            "clusters=",
            "templates=",
            "cache_len=",
            "cache_cap=4096",
            "shed=0",
        ] {
            assert!(health.contains(key), "{key} missing: {health}");
        }
        assert!(text.contains("timeseries window_s=120 lines=1"), "{text}");
        assert!(text.contains("ts age_s=0 qps=1"), "{text}");
        // Satellite: the stats line now carries the near-tier series.
        let stats_line = text
            .lines()
            .find(|l| l.starts_with("stats "))
            .expect("stats line");
        for key in [
            "near_p50_ns=",
            "near_p99_ns=",
            "near_cand_p50=",
            "near_cand_p99=",
            "lookup_p99_ns=",
            "shed=0",
        ] {
            assert!(stats_line.contains(key), "{key} missing: {stats_line}");
        }
        // Session export: trace + timeseries gauges land in the report.
        assert_eq!(session.stats.misses, 1);
        let report = obs.json_report();
        assert!(report.contains("trace.requests"), "{report}");
        assert!(report.contains("serve.ts.last_qps"), "{report}");
    }

    #[test]
    fn health_gauge_appears_only_with_an_adversary_stream() {
        // Default options: no adversary key anywhere on the line.
        let mut t = triage();
        let (_, out) = run(&mut t, "health\n");
        assert!(out.starts_with("health "), "{out}");
        assert!(!out.contains("adversary="), "{out}");

        // With a registered gauge the suffix carries the live counter.
        let injected = Arc::new(AtomicU64::new(0));
        let opts = ServeOptions {
            adversary: Some(AdversaryGauge {
                profile: "rotation".to_string(),
                waves: 7,
                injected: Arc::clone(&injected),
            }),
            ..ServeOptions::default()
        };
        injected.store(42, Ordering::Relaxed);
        let mut out = Vec::new();
        serve_session(&mut t, "health\n".as_bytes(), &mut out, &Obs::noop(), opts).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(
            text.trim_end()
                .ends_with("adversary=rotation waves=7 injected=42"),
            "{text}"
        );
    }

    #[test]
    fn sampled_traces_attach_exemplars_to_histograms() {
        let mut t = triage();
        let (_, sample) = run(&mut t, "sample 8");
        let obs = Obs::enabled();
        let mut out = Vec::new();
        let session = serve_session(
            &mut t,
            sample.as_bytes(),
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
        )
        .unwrap();
        assert_eq!(session.stats.queries, 8);
        assert_eq!(session.tracer.requests(), 8);
        assert_eq!(session.tracer.sampled(), 4, "1-in-2 sampling");
        let ex = session.tracer.exemplars();
        assert!(
            ex.contains_key("intel.serve.lookup_ns"),
            "sampled url/sender queries must leave an exemplar: {ex:?}"
        );
        let report = obs.json_report();
        assert!(report.contains("trace.exemplar_id"), "{report}");
        assert!(report.contains("trace.sampled"), "{report}");
    }

    #[test]
    fn near_miss_and_empty_near_error() {
        let mut t = triage();
        let obs = Obs::enabled();
        let script = "near aimless doodle about watering the office ferns on thursday\nnear\n";
        let (stats, text) = serve(&mut t, script.as_bytes(), &obs);
        assert_eq!(stats.near_misses, 1);
        assert_eq!(stats.near_hits, 0);
        assert_eq!(stats.errors, 1);
        assert!(text.contains("miss near"), "{text}");
        let report = obs.json_report();
        assert!(report.contains("intel.serve.near_misses"), "{report}");
        assert!(report.contains("intel.serve.near_candidates"), "{report}");
    }

    #[test]
    fn invalid_utf8_is_an_error_line_not_the_end_of_the_session() {
        let mut t = triage();
        let input = b"url http://a.com\nurl http://\xff.com\nurl http://b.com\nstats\n";
        let (stats, out) = serve(&mut t, input, &Obs::noop());
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(
            lines[..3],
            [
                "miss url key=http://a.com",
                "err invalid utf-8",
                "miss url key=http://b.com"
            ]
        );
        assert!(lines[3].contains(" errors=1 "), "{out}");
        assert_eq!((stats.queries, stats.errors), (2, 1));
    }

    #[test]
    fn over_cap_line_is_skipped_unbuffered_and_answered_too_long() {
        let mut t = triage();
        let at_cap = format!("url https://{}.example", "a".repeat(MAX_LINE_BYTES - 20));
        assert_eq!(at_cap.len(), MAX_LINE_BYTES);
        let mut input = b"url https://before.example/x\n".to_vec();
        input.extend(std::iter::repeat_n(b'x', 4 * MAX_LINE_BYTES));
        input.extend_from_slice(format!("\n{at_cap}\nurl https://after.example/y\n").as_bytes());
        // An unterminated over-cap tail is rejected at EOF as well.
        input.extend(std::iter::repeat_n(b'y', MAX_LINE_BYTES + 1));
        let (stats, out) = serve(&mut t, &input, &Obs::noop());
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 5, "{:?}", &out[..out.len().min(300)]);
        assert_eq!(lines[0], "miss url key=https://before.example/x");
        assert_eq!(lines[1], "err line too long");
        assert!(
            lines[2].starts_with("miss url key=https://aaa"),
            "a line at the cap is served"
        );
        assert_eq!(lines[3], "miss url key=https://after.example/y");
        assert_eq!(lines[4], "err line too long");
        assert_eq!((stats.queries, stats.errors), (3, 2));

        // The discarded line never sits in the reader's buffer.
        let mut huge = vec![b'z'; 16 * MAX_LINE_BYTES];
        huge.push(b'\n');
        let mut reader = LineReader::new(&huge[..]);
        assert_eq!(reader.next_line().unwrap(), Some(Err("line too long")));
        assert!(reader.buf.capacity() <= 2 * MAX_LINE_BYTES);
        assert_eq!(reader.next_line().unwrap(), None);
    }

    /// A client that releases request n+1 only once reply n is written,
    /// and fails the read if the server asks early.
    struct ClosedLoop {
        lines: Vec<&'static [u8]>,
        released: usize,
        pos: usize,
        replies: std::rc::Rc<std::cell::Cell<usize>>,
    }

    impl std::io::Read for ClosedLoop {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = self.fill_buf()?.len().min(buf.len());
            buf[..n].copy_from_slice(&self.lines[self.released - 1][self.pos..self.pos + n]);
            self.consume(n);
            Ok(n)
        }
    }

    impl BufRead for ClosedLoop {
        fn fill_buf(&mut self) -> io::Result<&[u8]> {
            if self.released > 0 && self.pos < self.lines[self.released - 1].len() {
                return Ok(&self.lines[self.released - 1][self.pos..]);
            }
            if self.released == self.lines.len() {
                return Ok(&[]);
            }
            if self.replies.get() < self.released {
                return Err(io::Error::new(
                    io::ErrorKind::WouldBlock,
                    "read past a newline before its reply",
                ));
            }
            self.released += 1;
            self.pos = 0;
            Ok(self.lines[self.released - 1])
        }

        fn consume(&mut self, amt: usize) {
            self.pos += amt;
        }
    }

    struct CountingSink(std::rc::Rc<std::cell::Cell<usize>>);

    impl Write for CountingSink {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            let newlines = buf.iter().filter(|&&b| b == b'\n').count();
            self.0.set(self.0.get() + newlines);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn reader_waits_for_each_reply_before_the_next_line() {
        let mut t = triage();
        let replies = std::rc::Rc::new(std::cell::Cell::new(0));
        let client = ClosedLoop {
            lines: vec![
                b"url https://a.example/x\n",
                b"url http://\xff.example\n",
                b"near ferns on thursday\n",
                b"msg +15550001111|lunch?\n",
            ],
            released: 0,
            pos: 0,
            replies: std::rc::Rc::clone(&replies),
        };
        let session = serve_session(
            &mut t,
            client,
            CountingSink(std::rc::Rc::clone(&replies)),
            &Obs::noop(),
            ServeOptions::default(),
        )
        .expect("closed-loop client served without an early read");
        assert_eq!(replies.get(), 4);
        assert_eq!((session.stats.queries, session.stats.errors), (3, 1));
    }
}
