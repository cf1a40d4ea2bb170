//! Exportable run reports: deterministic-schema JSON and Prometheus-style
//! text exposition.
//!
//! Determinism contract (pinned by a snapshot test): `smishing-obs/v1`
//! reports have exactly the top-level keys `schema`, `counters`, `gauges`,
//! `histograms`; metric keys render as `name` or `name{k="v",...}` with
//! labels sorted; every value is an integer; map iteration is `BTreeMap`
//! order. Two runs that record the same counts produce byte-identical
//! reports (histogram quantiles of wall times naturally vary between runs,
//! but the *schema* — the key set and shapes — never does).

use crate::registry::MetricId;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Schema identifier embedded in every JSON report.
pub const SCHEMA: &str = "smishing-obs/v1";

/// Exported gauge state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GaugeStat {
    /// Last value set.
    pub value: i64,
    /// High-water mark.
    pub max: i64,
}

/// Exported histogram state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistStat {
    /// Recorded values.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: u64,
    /// Smallest recorded value (0 when empty).
    pub min: u64,
    /// Largest recorded value (0 when empty).
    pub max: u64,
    /// Median estimate.
    pub p50: u64,
    /// 90th-percentile estimate.
    pub p90: u64,
    /// 95th-percentile estimate.
    pub p95: u64,
    /// 99th-percentile estimate.
    pub p99: u64,
}

/// A point-in-time view of a registry, ready to export.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Report {
    /// Counter totals.
    pub counters: BTreeMap<MetricId, u64>,
    /// Gauge values + high-water marks.
    pub gauges: BTreeMap<MetricId, GaugeStat>,
    /// Histogram summaries.
    pub histograms: BTreeMap<MetricId, HistStat>,
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

impl Report {
    /// Render the deterministic `smishing-obs/v1` JSON document.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        let _ = writeln!(s, "  \"schema\": \"{SCHEMA}\",");
        s.push_str("  \"counters\": {");
        for (i, (id, v)) in self.counters.iter().enumerate() {
            s.push_str(if i == 0 { "\n" } else { ",\n" });
            let _ = write!(s, "    \"{}\": {v}", json_escape(&id.to_string()));
        }
        s.push_str(if self.counters.is_empty() {
            "},\n"
        } else {
            "\n  },\n"
        });
        s.push_str("  \"gauges\": {");
        for (i, (id, g)) in self.gauges.iter().enumerate() {
            s.push_str(if i == 0 { "\n" } else { ",\n" });
            let _ = write!(
                s,
                "    \"{}\": {{ \"max\": {}, \"value\": {} }}",
                json_escape(&id.to_string()),
                g.max,
                g.value
            );
        }
        s.push_str(if self.gauges.is_empty() {
            "},\n"
        } else {
            "\n  },\n"
        });
        s.push_str("  \"histograms\": {");
        for (i, (id, h)) in self.histograms.iter().enumerate() {
            s.push_str(if i == 0 { "\n" } else { ",\n" });
            let _ = write!(
                s,
                "    \"{}\": {{ \"count\": {}, \"max\": {}, \"min\": {}, \
                 \"p50\": {}, \"p90\": {}, \"p95\": {}, \"p99\": {}, \"sum\": {} }}",
                json_escape(&id.to_string()),
                h.count,
                h.max,
                h.min,
                h.p50,
                h.p90,
                h.p95,
                h.p99,
                h.sum
            );
        }
        s.push_str(if self.histograms.is_empty() {
            "}\n"
        } else {
            "\n  }\n"
        });
        s.push_str("}\n");
        s
    }

    /// Render a Prometheus-style text exposition (`.` in names becomes `_`;
    /// histograms export as summaries with `quantile` labels).
    pub fn to_prometheus(&self) -> String {
        let mut s = String::new();
        let mut last_family = String::new();
        for (id, v) in &self.counters {
            let name = sanitize(&id.name);
            if name != last_family {
                let _ = writeln!(s, "# TYPE {name} counter");
                last_family = name.clone();
            }
            let _ = writeln!(s, "{name}{} {v}", label_str(id, None));
        }
        last_family.clear();
        for (id, g) in &self.gauges {
            let name = sanitize(&id.name);
            if name != last_family {
                let _ = writeln!(s, "# TYPE {name} gauge");
                let _ = writeln!(s, "# TYPE {name}_max gauge");
                last_family = name.clone();
            }
            let _ = writeln!(s, "{name}{} {}", label_str(id, None), g.value);
            let _ = writeln!(s, "{name}_max{} {}", label_str(id, None), g.max);
        }
        last_family.clear();
        for (id, h) in &self.histograms {
            let name = sanitize(&id.name);
            if name != last_family {
                let _ = writeln!(s, "# TYPE {name} summary");
                last_family = name.clone();
            }
            for (q, v) in [
                ("0.5", h.p50),
                ("0.9", h.p90),
                ("0.95", h.p95),
                ("0.99", h.p99),
            ] {
                let _ = writeln!(s, "{name}{} {v}", label_str(id, Some(q)));
            }
            let _ = writeln!(s, "{name}_sum{} {}", label_str(id, None), h.sum);
            let _ = writeln!(s, "{name}_count{} {}", label_str(id, None), h.count);
        }
        s
    }
}

/// Parse a `smishing-obs/v1` JSON run report back into a [`Report`].
///
/// This is the inverse of [`Report::to_json`] for documents that
/// renderer produced (the only integers are non-negative, strings never
/// nest braces outside of label values, whitespace is free-form). It is
/// what `smish perfdiff` uses to load baseline and current run reports
/// without a JSON dependency; unknown top-level keys are rejected so a
/// schema drift fails loudly instead of comparing nothing.
pub fn parse_report(json: &str) -> Result<Report, String> {
    let mut p = Parser {
        s: json.as_bytes(),
        at: 0,
    };
    let mut report = Report::default();
    p.expect(b'{')?;
    let mut first = true;
    loop {
        p.skip_ws();
        if p.peek() == Some(b'}') {
            p.at += 1;
            break;
        }
        if !first {
            p.expect(b',')?;
        }
        first = false;
        let key = p.string()?;
        p.expect(b':')?;
        match key.as_str() {
            "schema" => {
                let v = p.string()?;
                if v != SCHEMA {
                    return Err(format!("unsupported schema {v:?} (want {SCHEMA:?})"));
                }
            }
            "counters" => {
                p.object(|p, id| {
                    let v = p.integer()?;
                    let v = u64::try_from(v).map_err(|_| format!("negative counter {id}"))?;
                    report.counters.insert(id, v);
                    Ok(())
                })?;
            }
            "gauges" => {
                p.object(|p, id| {
                    let mut g = GaugeStat { value: 0, max: 0 };
                    p.fields(|name, v| {
                        match name {
                            "max" => g.max = v,
                            "value" => g.value = v,
                            other => return Err(format!("unknown gauge field {other:?}")),
                        }
                        Ok(())
                    })?;
                    report.gauges.insert(id, g);
                    Ok(())
                })?;
            }
            "histograms" => {
                p.object(|p, id| {
                    let mut h = HistStat {
                        count: 0,
                        sum: 0,
                        min: 0,
                        max: 0,
                        p50: 0,
                        p90: 0,
                        p95: 0,
                        p99: 0,
                    };
                    p.fields(|name, v| {
                        let v = u64::try_from(v).map_err(|_| format!("negative {name}"))?;
                        match name {
                            "count" => h.count = v,
                            "sum" => h.sum = v,
                            "min" => h.min = v,
                            "max" => h.max = v,
                            "p50" => h.p50 = v,
                            "p90" => h.p90 = v,
                            "p95" => h.p95 = v,
                            "p99" => h.p99 = v,
                            other => return Err(format!("unknown histogram field {other:?}")),
                        }
                        Ok(())
                    })?;
                    report.histograms.insert(id, h);
                    Ok(())
                })?;
            }
            other => return Err(format!("unknown report key {other:?}")),
        }
    }
    p.skip_ws();
    if p.at != p.s.len() {
        return Err(format!("trailing data at byte {}", p.at));
    }
    Ok(report)
}

/// Split a rendered metric key (`name{k="v",…}`) back into a [`MetricId`].
fn parse_metric_id(key: &str) -> MetricId {
    match key.split_once('{') {
        None => MetricId::new(key, &[]),
        Some((name, rest)) => {
            let rest = rest.trim_end_matches('}');
            let labels: Vec<(&str, &str)> = rest
                .split("\",")
                .filter_map(|pair| {
                    let (k, v) = pair.split_once("=\"")?;
                    Some((k, v.trim_end_matches('"')))
                })
                .collect();
            MetricId::new(name, &labels)
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self
            .peek()
            .is_some_and(|c| matches!(c, b' ' | b'\n' | b'\t' | b'\r'))
        {
            self.at += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.s.get(self.at).copied()
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        self.skip_ws();
        if self.peek() == Some(c) {
            self.at += 1;
            Ok(())
        } else {
            Err(format!(
                "expected {:?} at byte {}, found {:?}",
                c as char,
                self.at,
                self.peek().map(|b| b as char)
            ))
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek().ok_or("unterminated string")? {
                b'"' => {
                    self.at += 1;
                    return Ok(out);
                }
                b'\\' => {
                    self.at += 1;
                    let esc = self.peek().ok_or("dangling escape")?;
                    self.at += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'u' => {
                            let hex = self.s.get(self.at..self.at + 4).ok_or("short \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                                16,
                            )
                            .map_err(|e| e.to_string())?;
                            out.push(char::from_u32(code).ok_or("bad \\u escape")?);
                            self.at += 4;
                        }
                        other => return Err(format!("unknown escape \\{}", other as char)),
                    }
                }
                _ => {
                    // Multi-byte UTF-8 passes through byte by byte; the
                    // input is a &str so the bytes are valid.
                    let start = self.at;
                    while self.peek().is_some_and(|c| c != b'"' && c != b'\\') {
                        self.at += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.s[start..self.at]).map_err(|e| e.to_string())?,
                    );
                }
            }
        }
    }

    fn integer(&mut self) -> Result<i64, String> {
        self.skip_ws();
        let start = self.at;
        if self.peek() == Some(b'-') {
            self.at += 1;
        }
        while self.peek().is_some_and(|c| c.is_ascii_digit()) {
            self.at += 1;
        }
        std::str::from_utf8(&self.s[start..self.at])
            .map_err(|e| e.to_string())?
            .parse()
            .map_err(|e| format!("bad integer at byte {start}: {e}"))
    }

    /// `{ "key": <entry>, ... }` where `entry` parsing is the callback's
    /// job (value already positioned after the colon).
    fn object(
        &mut self,
        mut entry: impl FnMut(&mut Self, MetricId) -> Result<(), String>,
    ) -> Result<(), String> {
        self.expect(b'{')?;
        let mut first = true;
        loop {
            self.skip_ws();
            if self.peek() == Some(b'}') {
                self.at += 1;
                return Ok(());
            }
            if !first {
                self.expect(b',')?;
            }
            first = false;
            let key = self.string()?;
            self.expect(b':')?;
            entry(self, parse_metric_id(&key))?;
        }
    }

    /// `{ "field": int, ... }` — the flat stat objects.
    fn fields(
        &mut self,
        mut field: impl FnMut(&str, i64) -> Result<(), String>,
    ) -> Result<(), String> {
        self.expect(b'{')?;
        let mut first = true;
        loop {
            self.skip_ws();
            if self.peek() == Some(b'}') {
                self.at += 1;
                return Ok(());
            }
            if !first {
                self.expect(b',')?;
            }
            first = false;
            let name = self.string()?;
            self.expect(b':')?;
            let v = self.integer()?;
            field(&name, v)?;
        }
    }
}

fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

fn label_str(id: &MetricId, quantile: Option<&str>) -> String {
    let mut parts: Vec<String> = id
        .labels
        .iter()
        .map(|(k, v)| format!("{}=\"{}\"", sanitize(k), v))
        .collect();
    if let Some(q) = quantile {
        parts.push(format!("quantile=\"{q}\""));
    }
    if parts.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", parts.join(","))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample() -> Report {
        let mut r = Report::default();
        r.counters
            .insert(MetricId::new("intel.serve.queries", &[]), 1234);
        r.counters
            .insert(MetricId::new("pipeline.shard.items", &[("shard", "3")]), 7);
        r.gauges.insert(
            MetricId::new("intel.serve.qps", &[]),
            GaugeStat {
                value: 255_000,
                max: 260_000,
            },
        );
        r.gauges.insert(
            MetricId::new("stream.lag", &[("stage", "fold")]),
            GaugeStat { value: -3, max: 12 },
        );
        r.histograms.insert(
            MetricId::new("intel.serve.lookup_ns", &[]),
            HistStat {
                count: 100,
                sum: 123_456,
                min: 90,
                max: 9_000,
                p50: 1_100,
                p90: 4_000,
                p95: 6_000,
                p99: 8_800,
            },
        );
        r
    }

    #[test]
    fn parse_roundtrips_rendered_reports() {
        let r = sample();
        let parsed = parse_report(&r.to_json()).expect("roundtrip");
        assert_eq!(parsed, r);
        // And the reparse renders byte-identically.
        assert_eq!(parsed.to_json(), r.to_json());
    }

    #[test]
    fn parse_rejects_foreign_documents() {
        assert!(parse_report("{}").is_ok(), "empty report is valid");
        let wrong_schema = "{\"schema\": \"somebody-else/v9\"}";
        assert!(parse_report(wrong_schema).unwrap_err().contains("schema"));
        let unknown_key = "{\"schema\": \"smishing-obs/v1\", \"spans\": {}}";
        assert!(parse_report(unknown_key).unwrap_err().contains("spans"));
        assert!(parse_report("not json").is_err());
    }

    #[test]
    fn empty_report_roundtrips() {
        let r = Report::default();
        let parsed = parse_report(&r.to_json()).expect("empty roundtrip");
        assert_eq!(parsed, r);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Arbitrary bytes, and truncated or bit-flipped renders of a
        /// real report, parse or error; nothing panics. No strict prefix
        /// of a rendered report parses.
        #[test]
        fn parse_report_never_panics(
            bytes in prop::collection::vec(0u8..=255, 0..200),
            cut in 0usize..1 << 16,
            at in 0usize..1 << 16,
            bit in 0u32..8,
        ) {
            let _ = parse_report(&String::from_utf8_lossy(&bytes));
            let json = sample().to_json().into_bytes();
            let body = json.trim_ascii_end().len();
            let truncated = String::from_utf8_lossy(&json[..cut % body]);
            prop_assert!(parse_report(&truncated).is_err());
            let mut flipped = json;
            let i = at % flipped.len();
            flipped[i] ^= 1 << bit;
            let _ = parse_report(&String::from_utf8_lossy(&flipped));
        }
    }
}
