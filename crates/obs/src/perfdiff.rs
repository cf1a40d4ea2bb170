//! The growth gate behind `smish perfdiff SMALL LARGE`.
//!
//! [`growth_diff`] reads two reports of the same command at two input
//! sizes, taken on one machine, so no absolute baseline is involved. Each
//! layer's growth exponent is
//! `ln(t_large / t_small) / ln(posts_large / posts_small)`, where `t` is
//! the series' `sum` and the input size is each report's
//! `pipeline.collect.posts` counter. A layer fails above
//! [`GROWTH_LIMIT`], halfway between linear and quadratic. Only
//! unlabelled `*.wall_ns` spans are layers, and only those whose larger
//! sum reaches [`GROWTH_FLOOR_NS`]: per-shard and per-service series vary
//! with scheduling, wait series with channel pressure, and sub-floor
//! spans with timer noise, none of them with the algorithm.

use crate::registry::MetricId;
use crate::report::Report;
use std::collections::BTreeSet;
use std::fmt::Write as _;

/// Counter both growth reports must carry: the input size.
pub const GROWTH_SIZE_COUNTER: &str = "pipeline.collect.posts";

/// Growth exponent above which a layer fails: halfway between linear (1)
/// and quadratic (2).
pub const GROWTH_LIMIT: f64 = 1.5;

/// A layer is rated only when its sum in the larger report reaches 5 ms;
/// below that, timer noise alone scores exponents near the limit.
pub const GROWTH_FLOOR_NS: u64 = 5_000_000;

/// The larger report must cover at least this many times the posts of
/// the smaller one. Smaller ratios make the exponent's denominator noise,
/// and a ratio below 1 means the arguments are swapped.
pub const GROWTH_MIN_RATIO: f64 = 2.0;

/// Why a growth line carries no exponent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Unrated {
    /// The series is in only one of the two reports.
    OneSided,
    /// The larger report's sum is under [`GROWTH_FLOOR_NS`].
    BelowFloor,
    /// The smaller report's sum is zero.
    ZeroSmall,
}

/// One layer's growth between the two reports.
#[derive(Debug, Clone)]
pub struct GrowthLine {
    /// Series name.
    pub key: String,
    /// Sum in the smaller report, in nanoseconds.
    pub small_ns: Option<u64>,
    /// Sum in the larger report, in nanoseconds.
    pub large_ns: Option<u64>,
    /// The growth exponent, or why the layer is not rated.
    pub exponent: Result<f64, Unrated>,
}

impl GrowthLine {
    /// Whether the layer grows faster than [`GROWTH_LIMIT`].
    pub fn failed(&self) -> bool {
        matches!(self.exponent, Ok(e) if e > GROWTH_LIMIT)
    }
}

/// The outcome of one growth comparison.
#[derive(Debug, Clone)]
pub struct GrowthReport {
    /// Posts in the smaller report.
    pub posts_small: u64,
    /// Posts in the larger report.
    pub posts_large: u64,
    /// Every layer series of either report, by name.
    pub lines: Vec<GrowthLine>,
}

impl GrowthReport {
    /// Count of layers above [`GROWTH_LIMIT`].
    pub fn failures(&self) -> usize {
        self.lines.iter().filter(|l| l.failed()).count()
    }

    /// Render the gate output, one line per layer.
    pub fn render(&self) -> String {
        let ms =
            |ns: Option<u64>| ns.map_or("-".to_string(), |v| format!("{:.2}ms", v as f64 / 1e6));
        let mut s = String::new();
        let _ = writeln!(
            s,
            "perfdiff growth posts={}->{} limit={GROWTH_LIMIT:.2} floor={}ms rated={} regressions={}",
            self.posts_small,
            self.posts_large,
            GROWTH_FLOOR_NS / 1_000_000,
            self.lines.iter().filter(|l| l.exponent.is_ok()).count(),
            self.failures()
        );
        for l in &self.lines {
            let (small, large) = (ms(l.small_ns), ms(l.large_ns));
            let _ = match l.exponent {
                Ok(e) => writeln!(
                    s,
                    "{} {} small={small} large={large} exponent={e:.2}",
                    if l.failed() { "REGRESSION" } else { "ok" },
                    l.key
                ),
                Err(why) => writeln!(
                    s,
                    "unrated {} small={small} large={large} ({})",
                    l.key,
                    match why {
                        Unrated::OneSided => "in one report only",
                        Unrated::BelowFloor => "under the floor",
                        Unrated::ZeroSmall => "zero in the smaller report",
                    }
                ),
            };
        }
        s
    }
}

/// Whether a series is a layer the growth gate rates: an unlabelled
/// wall-time span that is not a wait.
fn is_growth_layer(id: &MetricId) -> bool {
    id.labels.is_empty() && id.name.ends_with(".wall_ns") && !id.name.contains("wait")
}

/// Rate how each layer's wall time grows from the `small` report to the
/// `large` one (see the module docs). `Err` when a report lacks a
/// nonzero [`GROWTH_SIZE_COUNTER`] or the posts ratio is under
/// [`GROWTH_MIN_RATIO`].
pub fn growth_diff(small: &Report, large: &Report) -> Result<GrowthReport, String> {
    let posts = |r: &Report, which: &str| {
        r.counters
            .get(&MetricId::new(GROWTH_SIZE_COUNTER, &[]))
            .copied()
            .filter(|&n| n > 0)
            .ok_or_else(|| format!("the {which} report has no nonzero {GROWTH_SIZE_COUNTER}"))
    };
    let (posts_small, posts_large) = (posts(small, "smaller")?, posts(large, "larger")?);
    let ratio = posts_large as f64 / posts_small as f64;
    if ratio < GROWTH_MIN_RATIO {
        return Err(format!(
            "the larger report has {posts_large} posts, {ratio:.2}x the smaller's \
             {posts_small}; growth needs at least {GROWTH_MIN_RATIO}x (smaller report first)"
        ));
    }
    let layers: BTreeSet<&MetricId> = small
        .histograms
        .keys()
        .chain(large.histograms.keys())
        .filter(|id| is_growth_layer(id))
        .collect();
    let lines = layers
        .into_iter()
        .map(|id| {
            let small_ns = small.histograms.get(id).map(|h| h.sum);
            let large_ns = large.histograms.get(id).map(|h| h.sum);
            let exponent = match (small_ns, large_ns) {
                (Some(_), Some(l)) if l < GROWTH_FLOOR_NS => Err(Unrated::BelowFloor),
                (Some(0), Some(_)) => Err(Unrated::ZeroSmall),
                (Some(s), Some(l)) => Ok((l as f64 / s as f64).ln() / ratio.ln()),
                _ => Err(Unrated::OneSided),
            };
            GrowthLine {
                key: id.name.clone(),
                small_ns,
                large_ns,
                exponent,
            }
        })
        .collect();
    Ok(GrowthReport {
        posts_small,
        posts_large,
        lines,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::HistStat;

    const MS: u64 = 1_000_000;

    type Series<'a> = (&'a str, &'a [(&'a str, &'a str)], u64);

    /// A report over `posts` posts with one wall-time sum per series.
    fn sized(posts: u64, series: &[Series<'_>]) -> Report {
        let mut r = Report::default();
        r.counters
            .insert(MetricId::new(GROWTH_SIZE_COUNTER, &[]), posts);
        for &(name, labels, sum) in series {
            let span = HistStat {
                count: 1,
                sum,
                min: sum,
                max: sum,
                p50: sum,
                p90: sum,
                p95: sum,
                p99: sum,
            };
            r.histograms.insert(MetricId::new(name, labels), span);
        }
        r
    }

    fn line<'g>(g: &'g GrowthReport, key: &str) -> &'g GrowthLine {
        g.lines.iter().find(|l| l.key == key).expect(key)
    }

    #[test]
    fn quadratic_layer_fails_and_linear_passes() {
        // Four times the posts: linear 10 → 40 ms, quadratic 10 → 160 ms.
        let small = sized(
            10_000,
            &[
                ("analysis.linear.wall_ns", &[], 10 * MS),
                ("analysis.quadratic.wall_ns", &[], 10 * MS),
            ],
        );
        let large = sized(
            40_000,
            &[
                ("analysis.linear.wall_ns", &[], 40 * MS),
                ("analysis.quadratic.wall_ns", &[], 160 * MS),
            ],
        );
        let g = growth_diff(&small, &large).unwrap();
        assert_eq!(g.failures(), 1);
        let linear = line(&g, "analysis.linear.wall_ns").exponent.unwrap();
        let quadratic = line(&g, "analysis.quadratic.wall_ns").exponent.unwrap();
        assert!((linear - 1.0).abs() < 1e-9, "{linear}");
        assert!((quadratic - 2.0).abs() < 1e-9, "{quadratic}");
        let out = g.render();
        assert!(
            out.contains("REGRESSION analysis.quadratic.wall_ns"),
            "{out}"
        );
        assert!(out.contains("ok analysis.linear.wall_ns"), "{out}");
    }

    #[test]
    fn sub_floor_labelled_and_wait_series_are_not_rated() {
        // Every series grows 16x over 4x the posts: quadratic if rated.
        let series = |posts: u64, k: u64| -> Report {
            sized(
                posts,
                &[
                    ("analysis.tiny.wall_ns", &[], k * MS / 10),
                    ("exec.shard.enrich.wall_ns", &[("shard", "0")], k * MS),
                    ("exec.snapshot_wait.wall_ns", &[], k * MS),
                    ("enrich.hlr.latency_ns", &[], k * MS),
                ],
            )
        };
        let g = growth_diff(&series(10_000, 1), &series(40_000, 16)).unwrap();
        assert_eq!(g.failures(), 0, "{}", g.render());
        let keys: Vec<&str> = g.lines.iter().map(|l| l.key.as_str()).collect();
        assert_eq!(
            keys,
            ["analysis.tiny.wall_ns"],
            "only unlabelled non-wait spans"
        );
        assert_eq!(g.lines[0].exponent, Err(Unrated::BelowFloor));
        assert!(g.render().contains("unrated analysis.tiny.wall_ns"));
    }

    #[test]
    fn one_sided_and_zero_series_are_unrated() {
        let small = sized(
            10_000,
            &[
                ("analysis.gone.wall_ns", &[], 10 * MS),
                ("analysis.idle.wall_ns", &[], 0),
            ],
        );
        let large = sized(
            40_000,
            &[
                ("analysis.new.wall_ns", &[], 900 * MS),
                ("analysis.idle.wall_ns", &[], 900 * MS),
            ],
        );
        let g = growth_diff(&small, &large).unwrap();
        assert_eq!(g.failures(), 0, "{}", g.render());
        assert_eq!(
            line(&g, "analysis.gone.wall_ns").exponent,
            Err(Unrated::OneSided)
        );
        assert_eq!(
            line(&g, "analysis.new.wall_ns").exponent,
            Err(Unrated::OneSided)
        );
        assert_eq!(
            line(&g, "analysis.idle.wall_ns").exponent,
            Err(Unrated::ZeroSmall)
        );
    }

    #[test]
    fn missing_size_counter_or_small_ratio_is_an_error() {
        let small = sized(10_000, &[]);
        let mut bare = sized(40_000, &[]);
        bare.counters.clear();
        let err = growth_diff(&small, &bare).unwrap_err();
        assert!(err.contains(GROWTH_SIZE_COUNTER), "{err}");
        assert!(growth_diff(&bare, &small).is_err());
        assert!(
            growth_diff(&small, &sized(19_999, &[])).is_err(),
            "ratio under 2"
        );
        assert!(growth_diff(&sized(40_000, &[]), &small).is_err(), "swapped");
        assert!(
            growth_diff(&small, &sized(20_000, &[])).is_ok(),
            "ratio of exactly 2"
        );
    }
}
