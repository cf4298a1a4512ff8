//! Online statistics and histograms.
//!
//! The simulator streams millions of samples (intermeeting times, buffer
//! occupancy, latencies); [`OnlineStats`] accumulates mean/variance in one
//! pass with Welford's algorithm, and [`Histogram`] bins samples for the
//! distribution figures (paper Fig. 3).

use serde::{Deserialize, Serialize};

/// Single-pass mean / variance / min / max accumulator (Welford).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct OnlineStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Empty accumulator.
    pub fn new() -> Self {
        OnlineStats {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one sample.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Merges another accumulator (parallel reduction; Chan et al.).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Sample count.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Arithmetic mean, or `None` before the first sample.
    pub fn mean(&self) -> Option<f64> {
        (self.n > 0).then_some(self.mean)
    }

    /// Unbiased sample variance, or `None` with fewer than two samples.
    pub fn variance(&self) -> Option<f64> {
        (self.n > 1).then(|| self.m2 / (self.n - 1) as f64)
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> Option<f64> {
        self.variance().map(f64::sqrt)
    }

    /// Smallest sample.
    pub fn min(&self) -> Option<f64> {
        (self.n > 0).then_some(self.min)
    }

    /// Largest sample.
    pub fn max(&self) -> Option<f64> {
        (self.n > 0).then_some(self.max)
    }

    /// Sum of all samples.
    pub fn sum(&self) -> f64 {
        self.mean * self.n as f64
    }
}

/// Fixed-width histogram over `[lo, hi)` with an overflow bucket.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Histogram {
    lo: f64,
    width: f64,
    counts: Vec<u64>,
    overflow: u64,
    underflow: u64,
    total: u64,
}

impl Histogram {
    /// `bins` buckets of equal width covering `[lo, hi)`.
    ///
    /// # Panics
    /// Panics if `hi <= lo` or `bins == 0`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(hi > lo, "histogram range must be non-empty");
        assert!(bins > 0, "histogram needs at least one bin");
        Histogram {
            lo,
            width: (hi - lo) / bins as f64,
            counts: vec![0; bins],
            overflow: 0,
            underflow: 0,
            total: 0,
        }
    }

    /// Adds one sample.
    pub fn push(&mut self, x: f64) {
        self.total += 1;
        if x < self.lo {
            self.underflow += 1;
            return;
        }
        let idx = ((x - self.lo) / self.width) as usize;
        if idx >= self.counts.len() {
            self.overflow += 1;
        } else {
            self.counts[idx] += 1;
        }
    }

    /// Number of bins (excluding under/overflow).
    pub fn bins(&self) -> usize {
        self.counts.len()
    }

    /// Count in bin `i`.
    pub fn count(&self, i: usize) -> u64 {
        self.counts[i]
    }

    /// Midpoint of bin `i`.
    pub fn bin_center(&self, i: usize) -> f64 {
        self.lo + (i as f64 + 0.5) * self.width
    }

    /// Lower edge of bin `i`.
    pub fn bin_lo(&self, i: usize) -> f64 {
        self.lo + i as f64 * self.width
    }

    /// Bin width.
    pub fn bin_width(&self) -> f64 {
        self.width
    }

    /// Total samples pushed (including under/overflow).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Samples above the range.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Samples below the range.
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Empirical probability density in bin `i` (normalised so the
    /// in-range density integrates to the in-range mass fraction).
    pub fn density(&self, i: usize) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.counts[i] as f64 / (self.total as f64 * self.width)
        }
    }

    /// Merges another histogram with identical binning.
    ///
    /// # Panics
    /// Panics if the bin layouts differ.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(self.lo, other.lo, "histogram lo mismatch");
        assert_eq!(self.width, other.width, "histogram width mismatch");
        assert_eq!(self.counts.len(), other.counts.len(), "bin count mismatch");
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.overflow += other.overflow;
        self.underflow += other.underflow;
        self.total += other.total;
    }
}

/// Exact empirical percentile from a mutable sample buffer
/// (`q` in `[0, 1]`, nearest-rank). Returns `None` on an empty slice or
/// a `q` outside `[0, 1]` (including NaN) — an out-of-range quantile is
/// a caller bug, but answering it with a silently clamped sample would
/// hide it, and panicking from a metrics path took down whole sweep
/// cells.
///
/// Boundary semantics: `q = 0` is the minimum, `q = 1` the maximum, and
/// a single-sample buffer answers every valid `q` with that sample.
pub fn percentile(samples: &mut [f64], q: f64) -> Option<f64> {
    if samples.is_empty() || !(0.0..=1.0).contains(&q) {
        return None;
    }
    samples.sort_by(|a, b| a.partial_cmp(b).expect("NaN in percentile input"));
    let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
    Some(samples[rank - 1])
}

/// One-sample Kolmogorov–Smirnov statistic: `sup_x |F_n(x) - F(x)|`
/// between the empirical CDF `F_n` of `samples` (sorted in place) and
/// `cdf`. In `[0, 1]`; lower is a closer fit.
///
/// # Panics
/// Panics if `samples` is empty or contains NaN.
pub fn ks_statistic(samples: &mut [f64], cdf: impl Fn(f64) -> f64) -> f64 {
    assert!(!samples.is_empty(), "KS statistic needs samples");
    samples.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
    let n = samples.len() as f64;
    let mut d: f64 = 0.0;
    for (i, &x) in samples.iter().enumerate() {
        let f = cdf(x);
        // The empirical CDF jumps from i/n to (i+1)/n at x.
        d = d.max(f - i as f64 / n).max((i + 1) as f64 / n - f);
    }
    d
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn welford_matches_closed_form() {
        let data = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut s = OnlineStats::new();
        for &x in &data {
            s.push(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean().unwrap() - 5.0).abs() < 1e-12);
        // Sample variance of this classic dataset is 32/7.
        assert!((s.variance().unwrap() - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(s.min(), Some(2.0));
        assert_eq!(s.max(), Some(9.0));
        assert!((s.sum() - 40.0).abs() < 1e-9);
    }

    #[test]
    fn empty_stats_return_none() {
        let s = OnlineStats::new();
        assert_eq!(s.mean(), None);
        assert_eq!(s.variance(), None);
        assert_eq!(s.std_dev(), None);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
    }

    #[test]
    fn single_sample_has_no_variance() {
        let mut s = OnlineStats::new();
        s.push(3.0);
        assert_eq!(s.mean(), Some(3.0));
        assert_eq!(s.variance(), None);
    }

    #[test]
    fn merge_equals_sequential() {
        let data: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut whole = OnlineStats::new();
        for &x in &data {
            whole.push(x);
        }
        let mut left = OnlineStats::new();
        let mut right = OnlineStats::new();
        for &x in &data[..37] {
            left.push(x);
        }
        for &x in &data[37..] {
            right.push(x);
        }
        left.merge(&right);
        assert_eq!(left.count(), whole.count());
        assert!((left.mean().unwrap() - whole.mean().unwrap()).abs() < 1e-9);
        assert!((left.variance().unwrap() - whole.variance().unwrap()).abs() < 1e-9);
        // Merging an empty accumulator is a no-op either way.
        let mut empty = OnlineStats::new();
        empty.merge(&whole);
        assert_eq!(empty.count(), whole.count());
        whole.merge(&OnlineStats::new());
        assert_eq!(whole.count(), 100);
    }

    #[test]
    fn histogram_bins_and_flows() {
        let mut h = Histogram::new(0.0, 10.0, 5);
        for x in [-1.0, 0.0, 1.9, 2.0, 9.99, 10.0, 55.0] {
            h.push(x);
        }
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.overflow(), 2);
        assert_eq!(h.count(0), 2); // 0.0, 1.9
        assert_eq!(h.count(1), 1); // 2.0
        assert_eq!(h.count(4), 1); // 9.99
        assert_eq!(h.total(), 7);
        assert_eq!(h.bins(), 5);
        assert_eq!(h.bin_center(0), 1.0);
        assert_eq!(h.bin_lo(3), 6.0);
        assert_eq!(h.bin_width(), 2.0);
    }

    #[test]
    fn histogram_density_sums_to_in_range_mass() {
        let mut h = Histogram::new(0.0, 1.0, 10);
        for i in 0..100 {
            h.push(i as f64 / 100.0);
        }
        let integral: f64 = (0..h.bins()).map(|i| h.density(i) * h.bin_width()).sum();
        assert!((integral - 1.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_merge() {
        let mut a = Histogram::new(0.0, 10.0, 5);
        let mut b = Histogram::new(0.0, 10.0, 5);
        a.push(1.0);
        b.push(1.5);
        b.push(11.0);
        a.merge(&b);
        assert_eq!(a.count(0), 2);
        assert_eq!(a.overflow(), 1);
        assert_eq!(a.total(), 3);
    }

    #[test]
    #[should_panic(expected = "mismatch")]
    fn histogram_merge_rejects_different_layout() {
        let mut a = Histogram::new(0.0, 10.0, 5);
        let b = Histogram::new(0.0, 10.0, 10);
        a.merge(&b);
    }

    #[test]
    fn percentiles() {
        let mut v = vec![5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(percentile(&mut v, 0.5), Some(3.0));
        assert_eq!(percentile(&mut v, 0.0), Some(1.0));
        assert_eq!(percentile(&mut v, 1.0), Some(5.0));
        assert_eq!(percentile(&mut [], 0.5), None);
    }

    #[test]
    fn percentile_boundaries() {
        // Single sample: every valid q answers with it.
        for q in [0.0, 1e-9, 0.25, 0.5, 0.999, 1.0] {
            assert_eq!(percentile(&mut [7.0], q), Some(7.0));
        }
        // Two samples: anything in (0, 0.5] is the first, above the second.
        let mut two = [10.0, 20.0];
        assert_eq!(percentile(&mut two, 0.0), Some(10.0));
        assert_eq!(percentile(&mut two, 0.5), Some(10.0));
        assert_eq!(percentile(&mut two, 0.5 + 1e-12), Some(20.0));
        assert_eq!(percentile(&mut two, 1.0), Some(20.0));
        // Out-of-range or NaN q: None, never a clamped sample or a panic.
        let mut v = [1.0, 2.0, 3.0];
        assert_eq!(percentile(&mut v, -0.1), None);
        assert_eq!(percentile(&mut v, 1.1), None);
        assert_eq!(percentile(&mut v, f64::NAN), None);
        assert_eq!(percentile(&mut v, f64::INFINITY), None);
        assert_eq!(percentile(&mut v, f64::NEG_INFINITY), None);
        // Empty slice with a bad q is still None (no order of checks
        // can panic).
        assert_eq!(percentile(&mut [], f64::NAN), None);
    }

    proptest! {
        #[test]
        fn prop_merge_associative(
            xs in prop::collection::vec(-1e3f64..1e3, 1..50),
            ys in prop::collection::vec(-1e3f64..1e3, 1..50),
        ) {
            let mut all = OnlineStats::new();
            for &x in xs.iter().chain(&ys) { all.push(x); }
            let mut a = OnlineStats::new();
            for &x in &xs { a.push(x); }
            let mut b = OnlineStats::new();
            for &y in &ys { b.push(y); }
            a.merge(&b);
            prop_assert!((a.mean().unwrap() - all.mean().unwrap()).abs() < 1e-6);
            prop_assert_eq!(a.count(), all.count());
        }

        #[test]
        fn prop_percentile_matches_sorted_reference(
            xs in prop::collection::vec(-1e6f64..1e6, 1..64),
            q in 0.0f64..=1.0,
        ) {
            // Nearest-rank reference: sort, take element ceil(q*n)
            // (1-based), with q = 0 pinned to the minimum.
            let mut sorted = xs.clone();
            sorted.sort_by(f64::total_cmp);
            let n = sorted.len();
            let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
            let expect = sorted[rank - 1];
            let mut buf = xs.clone();
            prop_assert_eq!(percentile(&mut buf, q), Some(expect));
            // The result is always an actual sample within [min, max].
            let got = percentile(&mut buf, q).unwrap();
            prop_assert!(got >= sorted[0] && got <= sorted[n - 1]);
        }

        #[test]
        fn prop_percentile_rejects_out_of_range_q(
            xs in prop::collection::vec(-1e6f64..1e6, 0..16),
            q in prop_oneof![
                -10.0f64..10.0,
                Just(f64::NAN),
                Just(f64::INFINITY),
                Just(f64::NEG_INFINITY),
            ],
        ) {
            let mut buf = xs.clone();
            let got = percentile(&mut buf, q);
            if xs.is_empty() || !(0.0..=1.0).contains(&q) {
                prop_assert_eq!(got, None);
            } else {
                prop_assert!(got.is_some());
            }
        }

        #[test]
        fn prop_histogram_conserves_samples(
            xs in prop::collection::vec(-10.0f64..20.0, 0..200),
        ) {
            let mut h = Histogram::new(0.0, 10.0, 7);
            for &x in &xs { h.push(x); }
            let binned: u64 = (0..h.bins()).map(|i| h.count(i)).sum();
            prop_assert_eq!(binned + h.overflow() + h.underflow(), xs.len() as u64);
        }
    }
}
