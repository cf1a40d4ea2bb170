//! Figure 2: time of day per weekday when smishes are received (§5.1),
//! including the pairwise KS tests and the 2021-campaign filter.

use crate::table::TextTable;
use smishing_stats::{ks_two_sample, median, Counter, KsResult};
use smishing_types::{TimeOfDay, Weekday};
use std::collections::HashMap;

/// Send-time observations grouped by weekday.
#[derive(Debug, Clone)]
pub struct SendTimes {
    /// Seconds-since-midnight samples per weekday.
    pub by_weekday: HashMap<Weekday, Vec<f64>>,
    /// Reports with a usable (weekday, time) stamp.
    pub usable: usize,
    /// Reports excluded for having no usable timestamp (§3.3.2).
    pub excluded: usize,
    /// Whether the burst filter removed a same-instant campaign.
    pub burst_removed: Option<(String, usize)>,
}

/// Figure 2 data: the sample multiset accumulates one curated message at
/// a time and merges across workers; the burst filter and per-weekday
/// grouping are applied at [`SendTimesAcc::finish`]. All downstream
/// statistics (medians, KS tests, quantiles) are multiset functions, so
/// the reconstructed sample order is irrelevant.
#[derive(Debug, Clone, Default)]
pub struct SendTimesAcc {
    samples: Counter<(Weekday, u32)>,
    usable: usize,
    excluded: usize,
}

impl SendTimesAcc {
    /// New empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fold in one curated message.
    pub fn add_curated(&mut self, c: &crate::curation::CuratedMessage) {
        match c.stamp.and_then(|s| s.weekday_and_time()) {
            Some((w, t)) => {
                self.usable += 1;
                self.samples.add((w, t.seconds_since_midnight()));
            }
            None => self.excluded += 1,
        }
    }

    /// Absorb another shard's accumulator.
    pub fn merge(&mut self, other: SendTimesAcc) {
        self.samples.merge(&other.samples);
        self.usable += other.usable;
        self.excluded += other.excluded;
    }

    /// Produce the batch result. `remove_bursts` drops any exact (minute,
    /// weekday) spike holding an outsized share of one weekday's mass —
    /// the paper removes the 2021 SBI campaign this way (§5.1).
    pub fn finish(&self, remove_bursts: bool) -> SendTimes {
        // Rebuild the flat sample list in deterministic (weekday, seconds)
        // order; every consumer treats it as a multiset.
        let mut ordered: Vec<((Weekday, u32), u64)> =
            self.samples.iter().map(|(&k, c)| (k, c)).collect();
        ordered.sort_unstable_by_key(|&((w, s), _)| (w as u8, s));
        let mut samples: Vec<(Weekday, u32)> = Vec::new();
        for ((w, s), c) in ordered {
            for _ in 0..c {
                samples.push((w, s));
            }
        }
        finish_send_times(samples, self.usable, self.excluded, remove_bursts)
    }
}

/// Tail of [`SendTimesAcc::finish`]: burst removal and per-weekday
/// grouping over the collected sample multiset.
fn finish_send_times(
    mut samples: Vec<(Weekday, u32)>,
    usable: usize,
    excluded: usize,
    remove_bursts: bool,
) -> SendTimes {
    let mut by_weekday: HashMap<Weekday, Vec<f64>> = HashMap::new();
    let mut burst_removed = None;
    if remove_bursts {
        // Find the largest exact-minute spike.
        let mut minute_counts: HashMap<(Weekday, u32), usize> = HashMap::new();
        for (w, s) in &samples {
            *minute_counts.entry((*w, s / 60)).or_default() += 1;
        }
        if let Some((&(w, minute), &count)) = minute_counts.iter().max_by_key(|(_, &c)| c) {
            // A same-instant campaign shows up as a minute bucket holding
            // orders of magnitude more than the weekday's per-minute
            // density (the §5.1 burst: >850 at one minute).
            let weekday_total = samples.iter().filter(|(x, _)| *x == w).count();
            let per_minute = weekday_total as f64 / 1440.0;
            if weekday_total > 0 && count >= 8 && count as f64 > per_minute * 30.0 {
                samples.retain(|(x, s)| !(*x == w && s / 60 == minute));
                let t = TimeOfDay::from_seconds_since_midnight(minute * 60);
                burst_removed = Some((format!("{w} {t}"), count));
            }
        }
    }

    for (w, s) in samples {
        by_weekday.entry(w).or_default().push(s as f64);
    }
    SendTimes {
        by_weekday,
        usable,
        excluded,
        burst_removed,
    }
}

impl SendTimes {
    /// Median receive time per weekday (the §5.1 medians).
    pub fn medians(&self) -> Vec<(Weekday, Option<TimeOfDay>)> {
        Weekday::ALL
            .iter()
            .map(|&w| {
                let m = self
                    .by_weekday
                    .get(&w)
                    .and_then(|v| median(v))
                    .map(|secs| TimeOfDay::from_seconds_since_midnight(secs as u32));
                (w, m)
            })
            .collect()
    }

    /// Pairwise two-sample KS tests between weekdays.
    pub fn ks_matrix(&self) -> Vec<(Weekday, Weekday, KsResult)> {
        let mut out = Vec::new();
        for (i, &a) in Weekday::ALL.iter().enumerate() {
            for &b in &Weekday::ALL[i + 1..] {
                if let (Some(sa), Some(sb)) = (self.by_weekday.get(&a), self.by_weekday.get(&b)) {
                    if let Some(r) = ks_two_sample(sa, sb) {
                        out.push((a, b, r));
                    }
                }
            }
        }
        out
    }

    /// Share of samples received 09:00–20:00.
    pub fn working_hours_share(&self) -> f64 {
        let mut total = 0usize;
        let mut in_window = 0usize;
        for v in self.by_weekday.values() {
            for &s in v {
                total += 1;
                if (9.0 * 3600.0..20.0 * 3600.0).contains(&s) {
                    in_window += 1;
                }
            }
        }
        if total == 0 {
            0.0
        } else {
            in_window as f64 / total as f64
        }
    }

    /// Render the Fig. 2 summary: per-weekday boxplot statistics (Fig. 2
    /// IS a per-weekday boxplot; the section quotes the medians).
    pub fn to_table(&self) -> TextTable {
        let mut t = TextTable::new(
            "Figure 2: receive time of day per weekday (boxplot stats)",
            &["Weekday", "n", "Q1", "Median", "Q3"],
        );
        let fmt = |secs: f64| TimeOfDay::from_seconds_since_midnight(secs as u32).to_string();
        for &w in Weekday::ALL {
            let n = self.by_weekday.get(&w).map(Vec::len).unwrap_or(0);
            let (q1, med, q3) = self
                .by_weekday
                .get(&w)
                .and_then(|v| smishing_stats::quantile::five_number_summary(v))
                .map(|(_, q1, med, q3, _)| (fmt(q1), fmt(med), fmt(q3)))
                .unwrap_or_else(|| ("-".into(), "-".into(), "-".into()));
            t.row(&[w.name().to_string(), n.to_string(), q1, med, q3]);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::testfix;

    #[test]
    fn burst_filter_finds_the_sbi_campaign() {
        let with = testfix::output().accs.send_times.finish(true);
        let (label, count) = with
            .burst_removed
            .clone()
            .expect("the 2021 burst should be detected");
        assert!(label.starts_with("Tuesday 11:34"), "{label}");
        assert!(count >= 8, "{count}");
        let without = testfix::output().accs.send_times.finish(false);
        assert!(without.burst_removed.is_none());
        let tue_with = with
            .by_weekday
            .get(&Weekday::Tuesday)
            .map(Vec::len)
            .unwrap_or(0);
        let tue_without = without
            .by_weekday
            .get(&Weekday::Tuesday)
            .map(Vec::len)
            .unwrap_or(0);
        assert!(tue_without > tue_with, "{tue_without} vs {tue_with}");
    }

    #[test]
    fn medians_fall_in_the_midday_band() {
        // §5.1: medians between 12:26 and 14:38.
        let st = testfix::output().accs.send_times.finish(true);
        for (w, m) in st.medians() {
            let m = m.expect("every weekday sampled");
            assert!(
                (11..=16).contains(&m.hour),
                "{w}: median {m} outside the midday band"
            );
        }
    }

    #[test]
    fn working_hours_dominate() {
        let st = testfix::output().accs.send_times.finish(true);
        assert!(
            st.working_hours_share() > 0.65,
            "{}",
            st.working_hours_share()
        );
    }

    #[test]
    fn some_weekday_pairs_differ_significantly() {
        // §5.1: Monday/Tuesday/Wednesday/Saturday pairs show p < 0.05.
        let st = testfix::output().accs.send_times.finish(true);
        let matrix = st.ks_matrix();
        assert!(!matrix.is_empty());
        let significant = matrix
            .iter()
            .filter(|(_, _, r)| r.significant_at(0.05))
            .count();
        assert!(significant >= 1, "no weekday pair differs");
        assert!(
            significant < matrix.len(),
            "not every pair should differ (Wed≈Thu)"
        );
    }

    #[test]
    fn timestamps_without_dates_are_excluded() {
        let st = testfix::output().accs.send_times.finish(false);
        assert!(
            st.excluded > 0,
            "time-only stamps must be excluded (§3.3.2)"
        );
        assert!(st.usable > st.excluded / 4);
    }
}
