//! The metric catalogs and the result line.
//!
//! Every run prints the same metric names whatever the workload: with
//! tracing off, each end-to-end metric; with tracing on, each per-layer
//! metric. A layer a workload bypasses reads 0 there — the measured time
//! spent in it. `BENCHMARK.json` lists the same names (a test keeps the
//! two in step).

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics, measured with tracing off. Throughput counts posts
/// ingested (`paper_batch`), posts streamed (`epoch_stream`) or requests
/// (`triage_mix`) per second; `latency_ms` is the typical latency of the
/// workload's unit — a whole batch, one republish, one request — and
/// `latency_tail_ms` its tail. Each workload module defines both exactly.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("throughput_per_s", "1/s"),
    ("latency_ms", "ms"),
    ("latency_tail_ms", "ms"),
];

/// Every module `experiment::run_all` times, as its `analysis.<module>`
/// span names it.
pub const ANALYSIS_MODULES: [&str; 19] = [
    "overview",
    "methods",
    "sender_info",
    "shorteners",
    "tlds",
    "tls",
    "asn",
    "av",
    "categories",
    "languages",
    "brands",
    "lures",
    "countries",
    "twitter_years",
    "registrars",
    "timestamps",
    "irr",
    "extraction",
    "casestudy",
];

/// Enrichment stages of the standard registry, in application order.
pub const ENRICH_STAGES: [&str; 9] = [
    "sender", "hlr", "url", "whois", "ct", "pdns", "ipinfo", "av", "annotate",
];

/// Triage request classes as the per-class latency metrics name them.
pub const TRIAGE_CLASSES: [&str; 5] = ["url_hit", "sender_hit", "url_miss", "near", "msg"];

/// Per-layer metrics of a traced run, in output order: `(name, unit)`.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut m: Vec<(String, &'static str)> = vec![("worldsim.generate_s".into(), "s")];
    for (name, unit) in [
        ("exec.ingest_s", "s"),
        ("exec.enrich_attempts", "count"),
        ("exec.curated_records", "count"),
        ("exec.unique_records", "count"),
        ("exec.enrich_waste_ratio", "ratio"),
        ("exec.snapshot_wait_ms", "ms"),
        ("curation.post_us", "us"),
        ("curation.dedup_key_us", "us"),
    ] {
        m.push((name.into(), unit));
    }
    for stage in ENRICH_STAGES {
        m.push((format!("enrich.{stage}_us"), "us"));
    }
    for f in [
        "extract_brand",
        "identify_language",
        "classify_scam",
        "detect_lures",
    ] {
        m.push((format!("textnlp.{f}_us"), "us"));
    }
    for module in ANALYSIS_MODULES {
        m.push((format!("analysis.{module}_ms"), "ms"));
    }
    for (name, unit) in [
        ("analysis.run_all_ms", "ms"),
        ("analysis.attributed_share", "ratio"),
        ("intel.build_full_ms", "ms"),
        ("intel.build_incremental_ms", "ms"),
        ("intel.incremental_vs_full_ratio", "ratio"),
        ("intel.late_vs_early_ratio", "ratio"),
        ("intel.lookup_url_us", "us"),
        ("simindex.build_ms", "ms"),
        ("simindex.templates_ms", "ms"),
        ("simindex.template_count", "count"),
        ("simindex.candidates_p50", "count"),
        ("simindex.candidates_p99", "count"),
        ("simindex.nearest_us", "us"),
    ] {
        m.push((name.into(), unit));
    }
    for class in TRIAGE_CLASSES {
        m.push((format!("triage.{class}_p50_us"), "us"));
        m.push((format!("triage.{class}_p99_us"), "us"));
    }
    m.push(("detect.train_ms".into(), "ms"));
    for (name, unit) in END_TO_END.iter().skip(2) {
        m.push((format!("trace.overhead_{name}"), unit));
    }
    m
}

/// Per-layer values of one traced run; names outside [`per_layer`] are
/// a bug in the benchmark.
#[derive(Debug, Default, Clone)]
pub struct Layers(BTreeMap<String, f64>);

impl Layers {
    /// Record one per-layer value.
    pub fn set(&mut self, name: &str, value: f64) {
        assert!(
            per_layer().iter().any(|(n, _)| n == name),
            "{name} is not a per-layer metric"
        );
        self.0.insert(name.to_string(), value);
    }

    /// A recorded value (0 when the layer was not exercised).
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// The end-to-end figures of one untraced measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EndToEnd {
    /// Median set-up time.
    pub setup_s: f64,
    /// Peak resident set of the process.
    pub peak_rss_mb: f64,
    /// Workload units completed per second.
    pub throughput_per_s: f64,
    /// Typical latency of one unit.
    pub latency_ms: f64,
    /// Tail latency of one unit.
    pub latency_tail_ms: f64,
}

impl EndToEnd {
    fn values(&self) -> [f64; 5] {
        [
            self.setup_s,
            self.peak_rss_mb,
            self.throughput_per_s,
            self.latency_ms,
            self.latency_tail_ms,
        ]
    }

    /// Record `traced - self` for every timed end-to-end metric as the
    /// `trace.overhead_*` layers.
    pub fn overhead_into(&self, traced: &EndToEnd, layers: &mut Layers) {
        let (a, b) = (self.values(), traced.values());
        for (i, (name, _)) in END_TO_END.iter().enumerate().skip(2) {
            layers.set(&format!("trace.overhead_{name}"), b[i] - a[i]);
        }
    }
}

/// The outcome of one benchmark run.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Whether every correctness check passed.
    pub correct: bool,
    /// Operations attempted (records, or requests).
    pub attempted: u64,
    /// Operations failed (dropped or degraded records, wrong or missing
    /// replies).
    pub failed: u64,
    /// End-to-end figures of the untraced measurement.
    pub e2e: EndToEnd,
    /// Per-layer figures, present on traced runs.
    pub layers: Option<Layers>,
    /// Human-readable lines printed before the result line: workload
    /// figures under their own names, deterministic counts, digests and
    /// the reasons behind any failed check.
    pub notes: Vec<String>,
}

impl Outcome {
    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn result_line(&self) -> String {
        let metrics: Vec<(String, f64, &str)> = match &self.layers {
            None => END_TO_END
                .iter()
                .zip(self.e2e.values())
                .map(|((n, u), v)| (n.to_string(), v, *u))
                .collect(),
            Some(l) => per_layer()
                .into_iter()
                .map(|(n, u)| {
                    let v = l.get(&n);
                    (n, v, u)
                })
                .collect(),
        };
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (name, value, unit)) in metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if value.is_finite() { *value } else { 0.0 };
            let _ = write!(
                s,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        s.push_str("}}");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_names_every_metric_once() {
        let e2e = EndToEnd {
            setup_s: 1.5,
            peak_rss_mb: 100.25,
            throughput_per_s: 1e4,
            latency_ms: 0.004,
            latency_tail_ms: 0.01,
        };
        let mut o = Outcome {
            correct: true,
            attempted: 3,
            failed: 0,
            e2e,
            layers: None,
            notes: Vec::new(),
        };
        let line = o.result_line();
        for (name, unit) in END_TO_END {
            assert_eq!(line.matches(&format!("\"{name}\": ")).count(), 1, "{line}");
            assert!(line.contains(&format!("\"unit\": \"{unit}\"")), "{line}");
        }
        let mut layers = Layers::default();
        e2e.overhead_into(&e2e, &mut layers);
        o.layers = Some(layers);
        let traced = o.result_line();
        let names = per_layer();
        assert_eq!(traced.matches("\"value\"").count(), names.len());
        let mut sorted: Vec<&String> = names.iter().map(|(n, _)| n).collect();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "per-layer names are unique");
    }
}
