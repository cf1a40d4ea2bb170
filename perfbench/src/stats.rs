//! Order statistics for timings: medians, nearest-rank percentiles, and
//! the tail percentile the benchmark reports.

/// Nearest-rank percentile of an unsorted sample (`pct` in 0..=100).
/// Returns 0 for an empty sample.
pub fn percentile(values: &[f64], pct: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v[rank_index(v.len(), pct)]
}

/// Median by nearest rank (the lower middle value for even counts).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// 0-based index of the nearest-rank `pct` percentile in a sorted sample
/// of `n` values.
fn rank_index(n: usize, pct: f64) -> usize {
    let rank = (pct / 100.0 * n as f64).ceil() as usize;
    rank.clamp(1, n) - 1
}

/// The tail figure of a timing sample: the highest percentile (capped at
/// p99) that still has at least ten samples beyond it, with the
/// percentile and the sample count it rests on. Samples too small to
/// leave ten beyond the median fall back to the median.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The value at `pct`.
    pub value: f64,
    /// The percentile reported.
    pub pct: f64,
    /// Number of samples.
    pub n: usize,
}

/// Tail of a sample; see [`Tail`].
pub fn tail(values: &[f64]) -> Tail {
    let n = values.len();
    let pct = if n < 20 {
        50.0
    } else {
        (100.0 * (n - 10) as f64 / n as f64).floor().min(99.0)
    };
    Tail {
        value: percentile(values, pct),
        pct,
        n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=33).map(f64::from).collect();
        let t = tail(&v);
        assert_eq!(t.n, 33);
        assert!(v.iter().filter(|&&x| x > t.value).count() >= 10, "{t:?}");
        let big: Vec<f64> = (1..=100_000).map(f64::from).collect();
        assert_eq!(tail(&big).pct, 99.0);
        assert_eq!(tail(&[5.0]).value, 5.0);
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.0);
        assert_eq!(percentile(&v, 100.0), 4.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(median(&[]), 0.0);
    }
}
