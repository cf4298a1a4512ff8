//! Medians and quartiles of repeated measurements.

use serde::Serialize;

/// Median, quartiles and raw values of one metric's measurements.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Summary {
    /// Median of `values`.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Number of values.
    pub n: usize,
    /// The values, in measurement order.
    pub values: Vec<f64>,
}

/// Summarises `values`. Quartiles follow Python's
/// `statistics.quantiles(values, n=4)` (the "exclusive" method), so a
/// spread computed here matches one computed from the printed values.
///
/// # Panics
/// Panics if `values` is empty.
pub fn summarize(values: &[f64]) -> Summary {
    assert!(!values.is_empty(), "nothing to summarise");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let (q1, q3) = if sorted.len() < 2 {
        (sorted[0], sorted[0])
    } else {
        (quartile(&sorted, 1), quartile(&sorted, 3))
    };
    Summary {
        median: quantile(&sorted, 0.5),
        q1,
        q3,
        n: values.len(),
        values: values.to_vec(),
    }
}

/// Median of `values` (0 for an empty slice).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile(&sorted, 0.5)
}

/// Linearly interpolated quantile `q` of a sorted, non-empty slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Quartile `i` (1 or 3) of a sorted slice of at least two values, by
/// the exclusive method of Python's `statistics.quantiles`.
fn quartile(sorted: &[f64], i: usize) -> f64 {
    let n = sorted.len();
    let m = n + 1;
    let j = (i * m / 4).clamp(1, n - 1);
    let delta = (i * m) as f64 - (j * 4) as f64;
    (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&v);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = summarize(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        assert_eq!(s.values, vec![3.0, 1.0, 2.0]);
    }
}
