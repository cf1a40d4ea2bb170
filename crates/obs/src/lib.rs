//! # smishing-obs — the observability layer
//!
//! A dependency-free metrics registry, span API and leveled logger for the
//! smishing measurement pipeline. One [`Obs`] handle threads through the
//! batch pipeline, the enrichment fan-out and the streaming engine:
//!
//! * [`Counter`] / [`Gauge`] / [`Histogram`] — atomic, labeled (by stage /
//!   service / shard), shareable across worker threads, and mergeable:
//!   [`Histogram::merge_from`] combines per-shard recordings *exactly*.
//! * [`Span`] — RAII wall-clock stage timing (`pipeline.enrich.wall_ns`).
//! * [`Level`] + the `obs_error!`/`obs_warn!`/`obs_info!`/`obs_debug!`
//!   macros — leveled stderr logging behind `--log-level`/`--quiet`.
//! * [`Report`] — a deterministic-schema JSON run report
//!   (`--metrics-json`) and a Prometheus-style text exposition
//!   (`--metrics-text`); [`parse_report`] reads one back, and
//!   [`growth_diff`] gates how each layer's wall time grows between two
//!   input sizes.
//! * [`Tracer`] — request-level tracing: tail-sampled per-query span
//!   trees over the triage rungs, with a slowest-N ring and histogram
//!   exemplars ([`trace`]).
//! * [`TimeRing`] — a bounded per-second serve-plane time series
//!   (qps, p50/p99, hit/near/miss/shed, republish cost) ([`timeseries`]).
//!
//! The zero-cost contract: [`Obs::noop`] (the `Default`) hands out inert
//! handles — no allocation, no clock reads, no atomics — so instrumented
//! code paths behave byte-identically to uninstrumented ones.
//!
//! ```
//! use smishing_obs::{obs_info, Obs};
//!
//! let obs = Obs::enabled();
//! let span = obs.span("pipeline.demo.wall_ns");
//! obs.counter("pipeline.demo.items", &[]).add(3);
//! obs.histogram("enrich.hlr.latency_ns", &[]).record(1_200);
//! drop(span);
//! obs_info!(obs, "demo stage done");
//! let json = obs.json_report();
//! assert!(json.contains("pipeline.demo.items"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod histogram;
pub mod log;
pub mod metrics;
pub mod perfdiff;
pub mod registry;
pub mod report;
pub mod span;
pub mod timeseries;
pub mod trace;

pub use histogram::{Histogram, LocalHistogram};
pub use log::Level;
pub use metrics::{Counter, Gauge};
pub use perfdiff::{growth_diff, GrowthLine, GrowthReport, Unrated};
pub use registry::{MetricId, Registry};
pub use report::{parse_report, GaugeStat, HistStat, Report, SCHEMA};
pub use span::Span;
pub use timeseries::{TimeRing, TsBucket, TsOutcome};
pub use trace::{Exemplar, Trace, TraceBuilder, TraceSpan, Tracer, TracerConfig};

use std::sync::Arc;
use std::time::Instant;

struct ObsInner {
    registry: Registry,
    level: Level,
}

/// The observability handle. Clone freely: clones share one registry.
///
/// A handle is either *enabled* (owns a [`Registry`] and a log level) or
/// the *no-op* handle, whose every operation short-circuits.
#[derive(Clone, Default)]
pub struct Obs {
    inner: Option<Arc<ObsInner>>,
}

impl Obs {
    /// The no-op handle: hands out inert metrics, drops all logs.
    pub fn noop() -> Obs {
        Obs { inner: None }
    }

    /// An enabled handle logging at [`Level::Info`].
    pub fn enabled() -> Obs {
        Obs::with_level(Level::Info)
    }

    /// An enabled handle logging at `level`.
    pub fn with_level(level: Level) -> Obs {
        Obs {
            inner: Some(Arc::new(ObsInner {
                registry: Registry::new(),
                level,
            })),
        }
    }

    /// Whether instrumentation is live.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The log level, when enabled.
    pub fn level(&self) -> Option<Level> {
        self.inner.as_ref().map(|i| i.level)
    }

    /// Resolve a counter (inert when disabled).
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        match &self.inner {
            None => Counter::default(),
            Some(i) => i.registry.counter(name, labels),
        }
    }

    /// Resolve a gauge (inert when disabled).
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        match &self.inner {
            None => Gauge::default(),
            Some(i) => i.registry.gauge(name, labels),
        }
    }

    /// Resolve a histogram (inert when disabled).
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Histogram {
        match &self.inner {
            None => Histogram::default(),
            Some(i) => i.registry.histogram(name, labels),
        }
    }

    /// Open a wall-clock span recording into histogram `name` on drop.
    pub fn span(&self, name: &str) -> Span {
        self.span_with(name, &[])
    }

    /// Open a labeled wall-clock span.
    pub fn span_with(&self, name: &str, labels: &[(&str, &str)]) -> Span {
        match &self.inner {
            None => Span::disabled(),
            Some(i) => match i.registry.histogram(name, labels).0 {
                None => Span::disabled(),
                Some(core) => Span {
                    inner: Some((Instant::now(), core)),
                },
            },
        }
    }

    /// Emit a log line at `level` (no-op when disabled or filtered).
    pub fn log(&self, level: Level, args: std::fmt::Arguments<'_>) {
        if let Some(i) = &self.inner {
            if level <= i.level {
                eprintln!("[{level}] {args}");
            }
        }
    }

    /// Snapshot the registry (None when disabled).
    pub fn report(&self) -> Option<Report> {
        self.inner.as_ref().map(|i| i.registry.snapshot())
    }

    /// The JSON run report (an empty `smishing-obs/v1` document when
    /// disabled).
    pub fn json_report(&self) -> String {
        self.report().unwrap_or_default().to_json()
    }

    /// The Prometheus-style text exposition (empty when disabled).
    pub fn text_exposition(&self) -> String {
        self.report().unwrap_or_default().to_prometheus()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_handles_are_inert() {
        let obs = Obs::noop();
        assert!(!obs.is_enabled());
        let c = obs.counter("x", &[]);
        c.inc();
        assert_eq!(c.get(), 0);
        assert!(!c.is_active());
        let h = obs.histogram("y", &[]);
        h.record(5);
        assert_eq!(h.count(), 0);
        let _span = obs.span("z");
        assert!(obs.report().is_none());
    }

    #[test]
    fn enabled_handles_share_state_by_id() {
        let obs = Obs::enabled();
        obs.counter("a.b.c", &[("shard", "0")]).inc();
        obs.counter("a.b.c", &[("shard", "0")]).add(2);
        assert_eq!(obs.counter("a.b.c", &[("shard", "0")]).get(), 3);
        assert_eq!(obs.counter("a.b.c", &[("shard", "1")]).get(), 0);
    }

    #[test]
    fn spans_record_into_histograms() {
        let obs = Obs::enabled();
        {
            let _s = obs.span("stage.x.wall_ns");
        }
        let h = obs.histogram("stage.x.wall_ns", &[]);
        assert_eq!(h.count(), 1);
    }
}
