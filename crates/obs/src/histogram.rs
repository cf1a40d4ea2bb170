//! Log-scale latency histogram with exact cross-shard merging.
//!
//! Values (typically nanoseconds) land in logarithmic buckets: four
//! sub-buckets per power of two, giving ≤ ~12% relative quantile error
//! after in-bucket interpolation, over the full `u64` range, in a fixed
//! 257-slot table. All state is atomic, so one histogram can be shared by
//! many worker threads, and [`merge_from`](Histogram::merge_from) adds two
//! histograms bucket-for-bucket — merging per-shard histograms yields
//! *exactly* the histogram a single-shard recording would have produced.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant;

/// Sub-bucket resolution: 2 bits → 4 sub-buckets per octave.
const SUB_BITS: u32 = 2;
/// Sub-buckets per power of two.
const SUBS: usize = 1 << SUB_BITS;
/// Bucket 0 holds the value 0; the rest cover 64 octaves × `SUBS`.
const BUCKETS: usize = 1 + 64 * SUBS;

/// Bucket index of a value.
fn bucket_index(v: u64) -> usize {
    if v == 0 {
        return 0;
    }
    let octave = 63 - v.leading_zeros();
    // Top SUB_BITS bits below the leading one, exact for every octave.
    let sub = (((u128::from(v) - (1u128 << octave)) << SUB_BITS) >> octave) as usize;
    1 + octave as usize * SUBS + sub
}

/// `[lower, upper)` value bounds of a bucket.
fn bucket_bounds(idx: usize) -> (f64, f64) {
    if idx == 0 {
        return (0.0, 0.0);
    }
    let octave = (idx - 1) / SUBS;
    let sub = (idx - 1) % SUBS;
    let base = 2f64.powi(octave as i32);
    (
        base * (1.0 + sub as f64 / SUBS as f64),
        base * (1.0 + (sub + 1) as f64 / SUBS as f64),
    )
}

/// The shared histogram state behind a [`Histogram`] handle.
pub(crate) struct HistogramCore {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for HistogramCore {
    fn default() -> Self {
        HistogramCore {
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }
}

impl HistogramCore {
    pub(crate) fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Relaxed);
        self.count.fetch_add(1, Relaxed);
        self.sum.fetch_add(v, Relaxed);
        self.min.fetch_min(v, Relaxed);
        self.max.fetch_max(v, Relaxed);
    }

    pub(crate) fn merge_from(&self, other: &HistogramCore) {
        for (mine, theirs) in self.buckets.iter().zip(other.buckets.iter()) {
            let n = theirs.load(Relaxed);
            if n > 0 {
                mine.fetch_add(n, Relaxed);
            }
        }
        self.count.fetch_add(other.count.load(Relaxed), Relaxed);
        self.sum.fetch_add(other.sum.load(Relaxed), Relaxed);
        self.min.fetch_min(other.min.load(Relaxed), Relaxed);
        self.max.fetch_max(other.max.load(Relaxed), Relaxed);
    }

    pub(crate) fn count(&self) -> u64 {
        self.count.load(Relaxed)
    }

    pub(crate) fn sum(&self) -> u64 {
        self.sum.load(Relaxed)
    }

    pub(crate) fn min(&self) -> u64 {
        if self.count() == 0 {
            0
        } else {
            self.min.load(Relaxed)
        }
    }

    pub(crate) fn max(&self) -> u64 {
        self.max.load(Relaxed)
    }

    /// Estimate the `q`-quantile (0.0..=1.0) by in-bucket linear
    /// interpolation, clamped to the observed `[min, max]`.
    pub(crate) fn quantile(&self, q: f64) -> f64 {
        let count = self.count();
        if count == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
        let mut cum = 0u64;
        for (idx, bucket) in self.buckets.iter().enumerate() {
            let c = bucket.load(Relaxed);
            if c == 0 {
                continue;
            }
            if cum + c >= rank {
                let (lo, hi) = bucket_bounds(idx);
                let within = (rank - cum) as f64 / c as f64;
                let est = lo + (hi - lo) * within;
                return est.clamp(self.min.load(Relaxed) as f64, self.max.load(Relaxed) as f64);
            }
            cum += c;
        }
        self.max.load(Relaxed) as f64
    }

    pub(crate) fn bucket_counts(&self) -> Vec<u64> {
        self.buckets.iter().map(|b| b.load(Relaxed)).collect()
    }
}

/// A cloneable histogram handle. The default / disabled handle is a no-op:
/// every method short-circuits without touching a clock or an atomic.
#[derive(Clone, Default)]
pub struct Histogram(pub(crate) Option<Arc<HistogramCore>>);

impl Histogram {
    /// Whether this handle records anywhere (false for no-op handles).
    pub fn is_active(&self) -> bool {
        self.0.is_some()
    }

    /// Record one value.
    pub fn record(&self, v: u64) {
        if let Some(core) = &self.0 {
            core.record(v);
        }
    }

    /// Run `f`, recording its wall-clock nanoseconds. Disabled handles run
    /// `f` directly without reading the clock.
    pub fn time<T>(&self, f: impl FnOnce() -> T) -> T {
        match &self.0 {
            None => f(),
            Some(core) => {
                let start = Instant::now();
                let out = f();
                core.record(u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX));
                out
            }
        }
    }

    /// Fold another histogram's recordings into this one. Exact: merging
    /// per-shard histograms equals single-shard recording of all values.
    pub fn merge_from(&self, other: &Histogram) {
        if let (Some(mine), Some(theirs)) = (&self.0, &other.0) {
            mine.merge_from(theirs);
        }
    }

    /// Recorded value count (0 for disabled handles).
    pub fn count(&self) -> u64 {
        self.0.as_ref().map_or(0, |c| c.count())
    }

    /// Sum of recorded values.
    pub fn sum(&self) -> u64 {
        self.0.as_ref().map_or(0, |c| c.sum())
    }

    /// Smallest recorded value (0 when empty).
    pub fn min(&self) -> u64 {
        self.0.as_ref().map_or(0, |c| c.min())
    }

    /// Largest recorded value (0 when empty).
    pub fn max(&self) -> u64 {
        self.0.as_ref().map_or(0, |c| c.max())
    }

    /// Estimated `q`-quantile (0.0..=1.0) by in-bucket linear
    /// interpolation, clamped to the observed `[min, max]`.
    pub fn quantile(&self, q: f64) -> f64 {
        self.0.as_ref().map_or(0.0, |c| c.quantile(q))
    }

    /// Raw per-bucket counts — exposed so tests can assert that merged
    /// histograms are *bucket-exact*, not merely quantile-close.
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.0.as_ref().map_or_else(Vec::new, |c| c.bucket_counts())
    }
}

/// A single-owner log-scale histogram: the same bucket layout and
/// quantile math as [`Histogram`], without the atomics. The time-series
/// ring keeps one per second-bucket, where a shared atomic histogram
/// would be pure overhead — recording is a plain add, and the whole
/// struct is `Copy`-free but trivially clearable for ring reuse.
#[derive(Debug, Clone)]
pub struct LocalHistogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for LocalHistogram {
    fn default() -> Self {
        LocalHistogram {
            buckets: vec![0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl LocalHistogram {
    /// An empty histogram.
    pub fn new() -> LocalHistogram {
        LocalHistogram::default()
    }

    /// Record one value.
    pub fn record(&mut self, v: u64) {
        self.buckets[bucket_index(v)] += 1;
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Reset to empty (ring-slot reuse without reallocating).
    pub fn clear(&mut self) {
        self.buckets.iter_mut().for_each(|b| *b = 0);
        self.count = 0;
        self.sum = 0;
        self.min = u64::MAX;
        self.max = 0;
    }

    /// Recorded value count.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded values.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest recorded value (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Smallest recorded value (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Estimated `q`-quantile by in-bucket interpolation, clamped to the
    /// observed `[min, max]` — identical math to the atomic histogram.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (idx, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if cum + c >= rank {
                let (lo, hi) = bucket_bounds(idx);
                let within = (rank - cum) as f64 / c as f64;
                let est = lo + (hi - lo) * within;
                return est.clamp(self.min as f64, self.max as f64);
            }
            cum += c;
        }
        self.max as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_monotone_and_in_range() {
        let mut last = 0;
        for v in [0u64, 1, 2, 3, 4, 5, 7, 8, 1000, 1 << 20, u64::MAX] {
            let idx = bucket_index(v);
            assert!(idx < BUCKETS, "{v}");
            assert!(idx >= last, "{v}");
            last = idx;
        }
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn bounds_contain_their_values() {
        for v in [1u64, 3, 17, 255, 4096, 5000, 123_456_789] {
            let (lo, hi) = bucket_bounds(bucket_index(v));
            assert!(lo <= v as f64 && (v as f64) < hi, "{v}: [{lo},{hi})");
        }
    }

    #[test]
    fn local_histogram_matches_atomic_quantiles() {
        let shared = Histogram(Some(Arc::new(HistogramCore::default())));
        let mut local = LocalHistogram::new();
        for v in [0u64, 1, 5, 90, 1_000, 65_000, 1 << 30, 17, 17, 17] {
            shared.record(v);
            local.record(v);
        }
        assert_eq!(local.count(), shared.count());
        assert_eq!(local.sum(), shared.sum());
        assert_eq!(local.min(), shared.min());
        assert_eq!(local.max(), shared.max());
        for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(local.quantile(q), shared.quantile(q), "q={q}");
        }
        local.clear();
        assert_eq!(local.count(), 0);
        assert_eq!(local.quantile(0.5), 0.0);
        assert_eq!(local.min(), 0);
    }
}
