//! Request-level tracing: per-query span trees with tail-sampled
//! retention.
//!
//! Aggregate histograms say a serve plane is slow; a trace says *why one
//! query was*. Each traced request gets a [`Trace`] — an ordered,
//! allocation-light list of [`TraceSpan`]s, one per triage rung
//! (refang/fold → exact-URL → apex → sender → phone → near → LR), each
//! carrying its wall-clock nanoseconds, the candidate count the rung
//! examined, and what it concluded (`hit entry=…` / `miss` / `cached`).
//!
//! The [`Tracer`] decides which requests get a builder at all (1-in-K
//! counter sampling, so the plain query path stays untraced and
//! unmeasured) and which finished traces are worth keeping:
//!
//! * a bounded **ring buffer** of the most recent sampled traces
//!   (wraparound overwrites the oldest), and
//! * a bounded **slowest-N** set, tail-selected by total wall time among
//!   sampled traces — the exemplars that explain the p99.
//!
//! Exemplar trace ids attach to the latency histograms by name: the
//! serving layer reports `(histogram, trace_id, wall_ns)` after each
//! traced request, and [`Tracer::export`] publishes the slowest exemplar
//! per histogram as gauges next to the histogram itself, so a run report
//! links its `intel.serve.triage_ns` p99 to a concrete, replayable trace.

use crate::Obs;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One rung of a traced request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceSpan {
    /// Rung name (`refang`, `url`, `domain`, `sender`, `phone`, `near`,
    /// `model`).
    pub rung: &'static str,
    /// Wall-clock nanoseconds spent in the rung.
    pub wall_ns: u64,
    /// Candidates the rung examined (docs sharing a signature band with
    /// the query, …; 0 where the notion doesn't apply).
    pub candidates: u64,
    /// What the rung concluded (`hit entry=12 key=…`, `miss`, `cached`).
    pub note: String,
}

/// A finished request trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    /// Session-unique trace id.
    pub id: u64,
    /// The request, as received (command + operand).
    pub request: String,
    /// Final verdict label (`hit`, `near`, `model`, `unknown`, `miss`).
    pub verdict: String,
    /// End-to-end wall nanoseconds.
    pub total_ns: u64,
    /// Rungs in traversal order.
    pub spans: Vec<TraceSpan>,
}

impl Trace {
    /// Render the span tree as protocol-friendly lines:
    ///
    /// ```text
    /// trace id=7 verdict=near total_ns=41210 rungs=5
    ///   rung refang wall_ns=812 candidates=0 note=-
    ///   rung url wall_ns=501 candidates=0 note=miss
    ///   ...
    /// end id=7
    /// ```
    pub fn render(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "trace id={} verdict={} total_ns={} rungs={}",
            self.id,
            self.verdict,
            self.total_ns,
            self.spans.len()
        );
        for span in &self.spans {
            let _ = writeln!(
                s,
                "  rung {} wall_ns={} candidates={} note={}",
                span.rung,
                span.wall_ns,
                span.candidates,
                if span.note.is_empty() {
                    "-"
                } else {
                    &span.note
                }
            );
        }
        let _ = writeln!(s, "end id={}", self.id);
        s
    }

    /// One-line summary for `traces` listings.
    pub fn summary(&self) -> String {
        let rungs: Vec<&str> = self.spans.iter().map(|s| s.rung).collect();
        format!(
            "trace id={} verdict={} total_ns={} rungs={} path={}",
            self.id,
            self.verdict,
            self.total_ns,
            self.spans.len(),
            rungs.join(">"),
        )
    }
}

/// An in-flight trace. Rungs are recorded in call order; the builder
/// pre-allocates span capacity so the traced hot path does not allocate
/// per rung (notes allocate only on hits, which are the rare case under
/// miss-dominated traffic).
#[derive(Debug)]
pub struct TraceBuilder {
    id: u64,
    request: String,
    started: Instant,
    spans: Vec<TraceSpan>,
}

impl TraceBuilder {
    /// Rungs a full triage walk traverses; used as span pre-allocation.
    const MAX_RUNGS: usize = 8;

    fn new(id: u64, request: &str) -> TraceBuilder {
        TraceBuilder {
            id,
            request: request.to_string(),
            started: Instant::now(),
            spans: Vec::with_capacity(Self::MAX_RUNGS),
        }
    }

    /// A builder minted outside any [`Tracer`] (id 0), for pipelines
    /// where the sampling decision and the retention happen on different
    /// threads: a dispatcher decides *which* requests are traced, a
    /// worker fills the builder in, and the owning tracer assigns the
    /// session id when it [`Tracer::adopt`]s the finished trace.
    pub fn detached(request: &str) -> TraceBuilder {
        TraceBuilder::new(0, request)
    }

    /// The trace id (assigned at sampling time; 0 for a detached builder
    /// until the tracer adopts it).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Record one rung with a note.
    pub fn rung(&mut self, rung: &'static str, wall_ns: u64, candidates: u64, note: String) {
        self.spans.push(TraceSpan {
            rung,
            wall_ns,
            candidates,
            note,
        });
    }

    /// Record one rung without a note (the common miss path).
    pub fn rung_quiet(&mut self, rung: &'static str, wall_ns: u64, candidates: u64) {
        self.rung(rung, wall_ns, candidates, String::new());
    }

    /// Finish the trace with a verdict label.
    pub fn finish(self, verdict: &str) -> Trace {
        Trace {
            id: self.id,
            request: self.request,
            verdict: verdict.to_string(),
            total_ns: u64::try_from(self.started.elapsed().as_nanos()).unwrap_or(u64::MAX),
            spans: self.spans,
        }
    }
}

/// Tracer tuning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TracerConfig {
    /// Trace every `sample_every`-th request (1 = every request,
    /// 0 = never). The first request is always traced so `explain`-less
    /// sessions still retain at least one exemplar.
    pub sample_every: u64,
    /// Ring-buffer capacity for recent sampled traces.
    pub ring_capacity: usize,
    /// How many slowest traces are retained for the whole session.
    pub slowest_capacity: usize,
}

impl Default for TracerConfig {
    fn default() -> TracerConfig {
        TracerConfig {
            sample_every: 64,
            ring_capacity: 256,
            slowest_capacity: 16,
        }
    }
}

/// The slowest exemplar attached to one latency histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Exemplar {
    /// Trace id of the slowest traced request observed for the histogram.
    pub trace_id: u64,
    /// Its wall nanoseconds.
    pub wall_ns: u64,
}

/// Sampling policy + bounded retention for finished traces.
#[derive(Debug)]
pub struct Tracer {
    cfg: TracerConfig,
    requests: u64,
    sampled: u64,
    next_id: u64,
    /// Recent sampled traces; `ring_at` is the next write slot.
    ring: Vec<Trace>,
    ring_at: usize,
    /// Slowest sampled traces, ascending by `total_ns` (min at index 0 so
    /// eviction is a front check).
    slowest: Vec<Trace>,
    exemplars: BTreeMap<String, Exemplar>,
}

impl Tracer {
    /// A tracer with explicit tuning.
    pub fn new(cfg: TracerConfig) -> Tracer {
        Tracer {
            cfg,
            requests: 0,
            sampled: 0,
            next_id: 0,
            ring: Vec::with_capacity(cfg.ring_capacity.min(1 << 16)),
            ring_at: 0,
            slowest: Vec::with_capacity(cfg.slowest_capacity.min(1 << 12)),
            exemplars: BTreeMap::new(),
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &TracerConfig {
        &self.cfg
    }

    /// Count a request; return a builder when this one is sampled.
    /// Untraced requests cost one branch and one increment.
    pub fn begin(&mut self, request: &str) -> Option<TraceBuilder> {
        self.requests += 1;
        if self.cfg.sample_every == 0 || !(self.requests - 1).is_multiple_of(self.cfg.sample_every)
        {
            return None;
        }
        Some(self.begin_forced(request))
    }

    /// Unconditionally start a trace (the `explain` verb).
    pub fn begin_forced(&mut self, request: &str) -> TraceBuilder {
        self.sampled += 1;
        self.next_id += 1;
        TraceBuilder::new(self.next_id, request)
    }

    /// Count `n` requests whose sampling decision was made elsewhere (a
    /// dispatcher thread replicating the 1-in-K policy). Keeps
    /// [`Tracer::requests`] meaningful when `begin` never runs.
    pub fn note_requests(&mut self, n: u64) {
        self.requests += n;
    }

    /// Adopt a trace whose builder was minted with
    /// [`TraceBuilder::detached`]: assign the next session id, count it
    /// as sampled, retain it, and return the id (for exemplars). Adopt
    /// order defines id order, so an in-order collector reproduces the
    /// ids a single-threaded session would have assigned.
    pub fn adopt(&mut self, mut trace: Trace) -> u64 {
        self.sampled += 1;
        self.next_id += 1;
        trace.id = self.next_id;
        let id = trace.id;
        self.finish(trace);
        id
    }

    /// Retain a finished trace: into the ring (overwriting the oldest on
    /// wraparound) and, when slow enough, into the slowest-N set.
    pub fn finish(&mut self, trace: Trace) {
        if self.cfg.slowest_capacity > 0 {
            let evict = self.slowest.len() == self.cfg.slowest_capacity;
            if !evict || trace.total_ns > self.slowest[0].total_ns {
                if evict {
                    self.slowest.remove(0);
                }
                let at = self
                    .slowest
                    .partition_point(|t| t.total_ns <= trace.total_ns);
                self.slowest.insert(at, trace.clone());
            }
        }
        if self.cfg.ring_capacity == 0 {
            return;
        }
        if self.ring.len() < self.cfg.ring_capacity {
            self.ring.push(trace);
        } else {
            self.ring[self.ring_at] = trace;
        }
        self.ring_at = (self.ring_at + 1) % self.cfg.ring_capacity;
    }

    /// Update the exemplar for `histogram` if this trace is the slowest
    /// seen for it.
    pub fn exemplar(&mut self, histogram: &str, trace_id: u64, wall_ns: u64) {
        match self.exemplars.get_mut(histogram) {
            Some(e) if e.wall_ns >= wall_ns => {}
            Some(e) => {
                *e = Exemplar { trace_id, wall_ns };
            }
            None => {
                self.exemplars
                    .insert(histogram.to_string(), Exemplar { trace_id, wall_ns });
            }
        }
    }

    /// Requests seen (traced or not).
    pub fn requests(&self) -> u64 {
        self.requests
    }

    /// Requests that got a builder.
    pub fn sampled(&self) -> u64 {
        self.sampled
    }

    /// The slowest retained traces, slowest first, at most `n`.
    pub fn slowest(&self, n: usize) -> impl Iterator<Item = &Trace> {
        self.slowest.iter().rev().take(n)
    }

    /// Recent sampled traces, newest first, at most `n`.
    pub fn recent(&self, n: usize) -> Vec<&Trace> {
        let len = self.ring.len();
        (0..len.min(n))
            .map(|back| {
                // `ring_at` is the oldest slot once the ring has wrapped.
                let idx = (self.ring_at + len - 1 - back) % len.max(1);
                &self.ring[idx]
            })
            .collect()
    }

    /// A retained trace by id (ring first, then slowest set).
    pub fn find(&self, id: u64) -> Option<&Trace> {
        self.ring
            .iter()
            .chain(self.slowest.iter())
            .find(|t| t.id == id)
    }

    /// The exemplar map (histogram name → slowest trace).
    pub fn exemplars(&self) -> &BTreeMap<String, Exemplar> {
        &self.exemplars
    }

    /// Publish tracer state into a registry: totals as counters, ring
    /// occupancy and per-histogram exemplars as gauges — so the JSON run
    /// report and Prometheus exposition carry the trace layer's own
    /// accounting next to the latencies it explains.
    pub fn export(&self, obs: &Obs) {
        obs.counter("trace.requests", &[]).add(self.requests);
        obs.counter("trace.sampled", &[]).add(self.sampled);
        obs.gauge("trace.ring_occupancy", &[])
            .set(self.ring.len() as i64);
        obs.gauge("trace.slowest_retained", &[])
            .set(self.slowest.len() as i64);
        for (hist, e) in &self.exemplars {
            let labels = [("hist", hist.as_str())];
            obs.gauge("trace.exemplar_id", &labels)
                .set(e.trace_id as i64);
            obs.gauge("trace.exemplar_wall_ns", &labels)
                .set(i64::try_from(e.wall_ns).unwrap_or(i64::MAX));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk(id: u64, total_ns: u64) -> Trace {
        Trace {
            id,
            request: format!("req {id}"),
            verdict: "miss".to_string(),
            total_ns,
            spans: Vec::new(),
        }
    }

    #[test]
    fn builder_preserves_rung_order() {
        let mut tr = Tracer::new(TracerConfig::default());
        let mut b = tr.begin_forced("msg hello");
        b.rung_quiet("refang", 10, 0);
        b.rung_quiet("url", 20, 0);
        b.rung_quiet("domain", 30, 2);
        b.rung("near", 40, 7, "hit entry=3".to_string());
        let t = b.finish("near");
        let rungs: Vec<&str> = t.spans.iter().map(|s| s.rung).collect();
        assert_eq!(rungs, ["refang", "url", "domain", "near"]);
        assert_eq!(t.spans[2].candidates, 2);
        assert_eq!(t.spans[3].note, "hit entry=3");
        let rendered = t.render();
        assert!(rendered.starts_with("trace id=1 verdict=near total_ns="));
        assert!(rendered.contains("  rung domain wall_ns=30 candidates=2 note=-"));
        assert!(rendered.ends_with("end id=1\n"));
        assert!(t.summary().contains("path=refang>url>domain>near"));
    }

    #[test]
    fn sampling_is_one_in_k_with_first_request_traced() {
        let mut tr = Tracer::new(TracerConfig {
            sample_every: 4,
            ..TracerConfig::default()
        });
        let traced: Vec<bool> = (0..12).map(|_| tr.begin("q").is_some()).collect();
        assert_eq!(
            traced,
            [true, false, false, false, true, false, false, false, true, false, false, false]
        );
        assert_eq!(tr.requests(), 12);
        assert_eq!(tr.sampled(), 3);
        let mut never = Tracer::new(TracerConfig {
            sample_every: 0,
            ..TracerConfig::default()
        });
        assert!(never.begin("q").is_none());
        assert_eq!(never.requests(), 1);
    }

    #[test]
    fn ring_wraps_and_recent_is_newest_first() {
        let mut tr = Tracer::new(TracerConfig {
            ring_capacity: 3,
            slowest_capacity: 0,
            sample_every: 1,
        });
        for id in 1..=5 {
            tr.finish(mk(id, id * 100));
        }
        // Ids 1 and 2 were overwritten by the wraparound.
        assert_eq!(tr.ring.len(), 3);
        let recent: Vec<u64> = tr.recent(10).iter().map(|t| t.id).collect();
        assert_eq!(recent, [5, 4, 3]);
        assert!(tr.find(1).is_none());
        assert!(tr.find(4).is_some());
    }

    #[test]
    fn slowest_retention_is_bounded_and_tail_selected() {
        let mut tr = Tracer::new(TracerConfig {
            ring_capacity: 2,
            slowest_capacity: 3,
            sample_every: 1,
        });
        for (id, ns) in [(1, 50), (2, 900), (3, 10), (4, 700), (5, 800), (6, 20)] {
            tr.finish(mk(id, ns));
        }
        let ids: Vec<u64> = tr.slowest(10).map(|t| t.id).collect();
        assert_eq!(ids, [2, 5, 4], "slowest first, fast traces evicted");
        // A fast trace fell out of the tiny ring but stays findable via
        // the slowest set.
        assert!(tr.find(2).is_some());
        assert!(tr.find(3).is_none());
    }

    #[test]
    fn detached_builders_get_ids_in_adopt_order() {
        let mut tr = Tracer::new(TracerConfig::default());
        // Worker threads fill detached builders; the collector adopts in
        // protocol order and ids come out exactly as `begin` would have
        // assigned them.
        let a = TraceBuilder::detached("url a").finish("hit");
        let b = TraceBuilder::detached("url b").finish("miss");
        assert_eq!((a.id, b.id), (0, 0));
        tr.note_requests(2);
        assert_eq!(tr.adopt(a), 1);
        assert_eq!(tr.adopt(b), 2);
        assert_eq!(tr.requests(), 2);
        assert_eq!(tr.sampled(), 2);
        assert_eq!(tr.find(1).unwrap().request, "url a");
        assert_eq!(tr.find(2).unwrap().verdict, "miss");
        // Adopted ids continue the same sequence `begin_forced` uses.
        let c = tr.begin_forced("explain x").finish("hit");
        assert_eq!(c.id, 3);
    }

    #[test]
    fn exemplars_keep_the_slowest_per_histogram() {
        let mut tr = Tracer::new(TracerConfig::default());
        tr.exemplar("intel.serve.triage_ns", 1, 500);
        tr.exemplar("intel.serve.triage_ns", 2, 900);
        tr.exemplar("intel.serve.triage_ns", 3, 100);
        tr.exemplar("intel.serve.lookup_ns", 3, 100);
        let e = tr.exemplars().get("intel.serve.triage_ns").unwrap();
        assert_eq!((e.trace_id, e.wall_ns), (2, 900));
        assert_eq!(tr.exemplars().len(), 2);
    }

    #[test]
    fn export_publishes_counters_gauges_and_exemplars() {
        let mut tr = Tracer::new(TracerConfig {
            sample_every: 2,
            ring_capacity: 4,
            slowest_capacity: 2,
        });
        for i in 0..6 {
            if let Some(b) = tr.begin("url x") {
                tr.finish(b.finish(if i % 2 == 0 { "hit" } else { "miss" }));
            }
        }
        tr.exemplar("intel.serve.lookup_ns", 2, 12_345);
        let obs = Obs::enabled();
        tr.export(&obs);
        assert_eq!(obs.counter("trace.requests", &[]).get(), 6);
        assert_eq!(obs.counter("trace.sampled", &[]).get(), 3);
        assert_eq!(obs.gauge("trace.ring_occupancy", &[]).get(), 3);
        let labels = [("hist", "intel.serve.lookup_ns")];
        assert_eq!(obs.gauge("trace.exemplar_id", &labels).get(), 2);
        assert_eq!(obs.gauge("trace.exemplar_wall_ns", &labels).get(), 12_345);
        // And the exposition carries them with the hist label intact.
        let prom = obs.text_exposition();
        assert!(prom.contains("trace_exemplar_id{hist=\"intel.serve.lookup_ns\"} 2"));
        assert!(prom.contains("# TYPE trace_ring_occupancy gauge"));
        let json = obs.json_report();
        // Label quotes are JSON-escaped inside the rendered key.
        assert!(json.contains("trace.exemplar_wall_ns{hist=\\\"intel.serve.lookup_ns\\\"}"));
    }
}
