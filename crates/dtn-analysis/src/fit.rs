//! Exponential distribution fitting and goodness-of-fit.

use dtn_core::stats::{ks_statistic, Histogram};
use serde::{Deserialize, Serialize};

/// A fitted exponential `f(x) = λ e^{-λx}`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ExponentialFit {
    /// Rate parameter (MLE: `1/mean`).
    pub lambda: f64,
    /// Sample mean `E(I)`.
    pub mean: f64,
    /// Sample count.
    pub n: usize,
    /// Coefficient of variation (std/mean). Exactly 1 for a true
    /// exponential; the paper's "approximately exponential" claim means
    /// CV ≈ 1.
    pub cv: f64,
}

impl ExponentialFit {
    /// Density at `x`.
    pub fn pdf(&self, x: f64) -> f64 {
        if x < 0.0 {
            0.0
        } else {
            self.lambda * (-self.lambda * x).exp()
        }
    }

    /// Cumulative distribution at `x`.
    pub fn cdf(&self, x: f64) -> f64 {
        if x < 0.0 {
            0.0
        } else {
            1.0 - (-self.lambda * x).exp()
        }
    }

    /// Complementary CDF at `x`.
    pub fn ccdf(&self, x: f64) -> f64 {
        1.0 - self.cdf(x)
    }
}

/// Maximum-likelihood exponential fit (`λ = 1/mean`). Returns `None` on
/// an empty sample or a non-positive mean.
pub fn fit_exponential(samples: &[f64]) -> Option<ExponentialFit> {
    if samples.is_empty() {
        return None;
    }
    let n = samples.len();
    let mean = samples.iter().sum::<f64>() / n as f64;
    if mean <= 0.0 || !mean.is_finite() {
        return None;
    }
    let var = samples
        .iter()
        .map(|&x| (x - mean) * (x - mean))
        .sum::<f64>()
        / n as f64;
    Some(ExponentialFit {
        lambda: 1.0 / mean,
        mean,
        n,
        cv: var.sqrt() / mean,
    })
}

/// Kolmogorov–Smirnov distance between the empirical distribution of
/// `samples` and an exponential with rate `lambda`:
/// `sup_x |F_n(x) - F(x)|`. Lower is a better fit; for reference,
/// uniform-vs-exponential data gives ≳ 0.3 while genuinely exponential
/// samples of size 1000 land ≈ 0.02.
///
/// # Panics
/// Panics if `samples` is empty or contains NaN, or `lambda <= 0`.
pub fn ks_distance_exponential(samples: &mut [f64], lambda: f64) -> f64 {
    assert!(lambda > 0.0, "lambda must be positive");
    ks_statistic(samples, |x| 1.0 - (-lambda * x).exp())
}

/// A row of the Fig. 3 distribution table: bin centre, empirical
/// density, fitted density.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DensityRow {
    /// Bin centre (seconds).
    pub x: f64,
    /// Empirical probability density.
    pub empirical: f64,
    /// Fitted `λ e^{-λx}` density.
    pub fitted: f64,
}

/// Bins `samples` into `bins` buckets over `[0, x_max)` and tabulates
/// empirical vs fitted density — exactly what Fig. 3 plots.
pub fn density_table(
    samples: &[f64],
    fit: &ExponentialFit,
    x_max: f64,
    bins: usize,
) -> Vec<DensityRow> {
    let mut h = Histogram::new(0.0, x_max, bins);
    for &s in samples {
        h.push(s);
    }
    (0..bins)
        .map(|i| {
            let x = h.bin_center(i);
            DensityRow {
                x,
                empirical: h.density(i),
                fitted: fit.pdf(x),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtn_core::rng::{exponential, stream_rng, streams};

    fn exp_samples(rate: f64, n: usize, seed: u64) -> Vec<f64> {
        let mut rng = stream_rng(seed, streams::BENCH);
        (0..n).map(|_| exponential(&mut rng, rate)).collect()
    }

    #[test]
    fn fit_recovers_rate() {
        let samples = exp_samples(0.01, 20_000, 1);
        let fit = fit_exponential(&samples).unwrap();
        assert!(
            (fit.lambda - 0.01).abs() < 0.001,
            "lambda {} vs 0.01",
            fit.lambda
        );
        assert!((fit.cv - 1.0).abs() < 0.05, "cv {}", fit.cv);
        assert_eq!(fit.n, 20_000);
    }

    #[test]
    fn fit_rejects_degenerate() {
        assert!(fit_exponential(&[]).is_none());
        assert!(fit_exponential(&[0.0, 0.0]).is_none());
        assert!(fit_exponential(&[-1.0, -2.0]).is_none());
    }

    #[test]
    fn pdf_cdf_ccdf() {
        let f = ExponentialFit {
            lambda: 2.0,
            mean: 0.5,
            n: 1,
            cv: 1.0,
        };
        assert_eq!(f.pdf(-1.0), 0.0);
        assert!((f.pdf(0.0) - 2.0).abs() < 1e-12);
        assert!((f.cdf(0.5) - (1.0 - (-1.0f64).exp())).abs() < 1e-12);
        assert!((f.cdf(0.5) + f.ccdf(0.5) - 1.0).abs() < 1e-12);
        assert_eq!(f.cdf(-1.0), 0.0);
    }

    #[test]
    fn ks_small_for_true_exponential() {
        let mut samples = exp_samples(0.05, 5_000, 2);
        let d = ks_distance_exponential(&mut samples, 0.05);
        assert!(d < 0.03, "KS distance {d} too large for exponential data");
    }

    #[test]
    fn ks_large_for_wrong_distribution() {
        // Uniform data against an exponential fit.
        let mut rng = stream_rng(3, streams::BENCH);
        let mut samples: Vec<f64> = (0..5_000)
            .map(|_| dtn_core::rng::uniform_range(&mut rng, 0.0, 100.0))
            .collect();
        let fit = fit_exponential(&samples).unwrap();
        let d = ks_distance_exponential(&mut samples, fit.lambda);
        assert!(
            d > 0.1,
            "KS distance {d} suspiciously small for uniform data"
        );
    }

    #[test]
    fn ks_detects_wrong_rate() {
        let mut samples = exp_samples(0.05, 5_000, 4);
        let right = ks_distance_exponential(&mut samples, 0.05);
        let wrong = ks_distance_exponential(&mut samples, 0.2);
        assert!(wrong > right * 5.0, "wrong {wrong} vs right {right}");
    }

    #[test]
    fn density_table_matches_fit_shape() {
        let samples = exp_samples(0.02, 50_000, 5);
        let fit = fit_exponential(&samples).unwrap();
        let rows = density_table(&samples, &fit, 200.0, 20);
        assert_eq!(rows.len(), 20);
        // Empirical and fitted densities should track closely.
        for r in &rows {
            assert!(
                (r.empirical - r.fitted).abs() < 0.2 * fit.lambda + 1e-4,
                "bin at {}: emp {} vs fit {}",
                r.x,
                r.empirical,
                r.fitted
            );
        }
        // Density decreases along an exponential.
        assert!(rows[0].empirical > rows[19].empirical);
    }
}
