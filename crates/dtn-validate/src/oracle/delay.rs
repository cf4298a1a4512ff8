//! Closed-form delivery-delay distribution of binary Spray and Wait
//! (Diana & Lochin, "Modelling the Delay Distribution of Binary Spray
//! and Wait Routing Protocol").
//!
//! The copy-spreading process is the classic absorbing CTMC over the
//! number of copy holders `i = 1..=L` in a network of `N` nodes whose
//! pairwise intermeeting times are i.i.d. exponential with rate `λ`:
//!
//! * **spreading** `i → i+1` at rate `β_i = λ · i · (N − 1 − i)` while
//!   `i < L` (each of the `i` holders can hand a token to any of the
//!   `N − 1 − i` nodes that are neither the destination nor a holder);
//! * **delivery** (absorption) from state `i` at rate `δ_i = λ · i`
//!   (any holder meets the destination).
//!
//! The total exit rate of state `i` is therefore
//! `a_i = β_i + δ_i = λ · i · (N − i)` for `i < L` and `a_L = λ · L`.
//! Because the chain is a pure birth chain with distinct exit rates,
//! the transient state occupancies are exponential sums
//! `p_i(t) = Σ_{j ≤ i} c_{ij} e^{−a_j t}` with the triangular
//! recurrence `c_{ij} = β_{i−1} c_{i−1,j} / (a_i − a_j)` (and
//! `c_{ii} = −Σ_{j<i} c_{ij}` so that `p_i(0) = [i = 1]`), which gives
//! the delay CDF in closed form:
//!
//! ```text
//! F(t) = P(delivery ≤ t) = 1 − Σ_j w_j e^{−a_j t},   w_j = Σ_{i ≥ j} c_{ij}.
//! ```
//!
//! The coefficients `c_{ij}` (and hence `w_j`) are independent of `λ` —
//! only the rates `a_j` scale with it — so one model can be re-scored
//! against different λ estimates cheaply.
//!
//! The model deliberately ignores everything the simulator adds on top
//! of the contact process: finite contact duration and bandwidth,
//! buffer overflows, TTL expiry and fault injection (see DESIGN.md,
//! "Model vs simulator divergence"). On a fault-free open-plane
//! scenario with ample buffers it is tight; the
//! [`ks_deviation`](DelayModel::ks_deviation) statistic quantifies the
//! gap against the simulated first-delivery delays.

use dtn_core::stats::ks_statistic;
use serde::{Deserialize, Serialize};

/// Closed-form delivery-delay CDF for binary Spray and Wait. Immutable
/// after construction; the exponential-sum weights are precomputed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DelayModel {
    /// Total number of nodes `N` (including the destination).
    n_nodes: usize,
    /// Spray budget `L` (initial copies).
    copies: u32,
    /// Pairwise intermeeting rate `λ`, per second.
    lambda: f64,
    /// Exit rates `a_j`, ascending state order (NOT sorted by value).
    rates: Vec<f64>,
    /// Weights `w_j` of `F(t) = 1 − Σ_j w_j e^{−a_j t}`; sums to 1.
    weights: Vec<f64>,
}

impl DelayModel {
    /// Builds the model for `n_nodes` total nodes, a spray budget of
    /// `copies` and pairwise intermeeting rate `lambda` (per second).
    ///
    /// # Panics
    /// Panics if `n_nodes < 3`, `copies` is 0 or ≥ `n_nodes − 1`,
    /// `lambda` is not positive and finite, or the chain's exit rates
    /// collide (`i + j = N` for two spreading states — arrange
    /// `2·copies < n_nodes`, amply true for the paper's N = 100,
    /// L = 32).
    pub fn new(n_nodes: usize, copies: u32, lambda: f64) -> Self {
        assert!(n_nodes >= 3, "need at least three nodes");
        assert!(
            lambda > 0.0 && lambda.is_finite(),
            "lambda must be positive and finite"
        );
        let l = copies as usize;
        assert!(l >= 1, "need at least one copy");
        assert!(
            l < n_nodes - 1,
            "spray budget must leave at least one node without a copy \
             (L < N - 1; got L = {l}, N = {n_nodes})"
        );
        let n = n_nodes as f64;

        // λ-free exit rates b_i = a_i / λ; state i is rates[i - 1].
        let b = |i: usize| -> f64 {
            if i < l {
                i as f64 * (n - i as f64)
            } else {
                l as f64
            }
        };
        for i in 1..=l {
            for j in 1..i {
                assert!(
                    (b(i) - b(j)).abs() > 1e-9 * b(i).max(b(j)),
                    "exit rates collide for states {j} and {i} \
                     (keep 2L < N); got L = {l}, N = {n_nodes}"
                );
            }
        }

        // Triangular recurrence for the λ-free coefficients c[i][j]
        // (state i, mode j; both 1-based in the math, 0-based here).
        // β_{i-1}/λ = (i-1)(N-1-(i-1)) = (i-1)(N-i) and
        // (a_i - a_j)/λ = b_i - b_j, so λ cancels throughout.
        let mut c: Vec<Vec<f64>> = Vec::with_capacity(l);
        c.push(vec![1.0]); // p_1(0) = 1
        for i in 2..=l {
            let beta_prev = (i as f64 - 1.0) * (n - i as f64);
            let mut row = Vec::with_capacity(i);
            let mut diag = 0.0;
            for j in 1..i {
                let prev = c[i - 2].get(j - 1).copied().unwrap_or(0.0);
                let cij = beta_prev * prev / (b(i) - b(j));
                diag -= cij;
                row.push(cij);
            }
            row.push(diag); // c_ii: p_i(0) = 0
            c.push(row);
        }

        // w_j = Σ_{i ≥ j} c_ij; Σ_j w_j = Σ_i p_i(0) = 1 by construction.
        let mut weights = vec![0.0; l];
        for row in &c {
            for (j, cij) in row.iter().enumerate() {
                weights[j] += cij;
            }
        }
        let rates = (1..=l).map(|i| lambda * b(i)).collect();
        DelayModel {
            n_nodes,
            copies,
            lambda,
            rates,
            weights,
        }
    }

    /// Total number of nodes `N`.
    pub fn n_nodes(&self) -> usize {
        self.n_nodes
    }

    /// Spray budget `L`.
    pub fn copies(&self) -> u32 {
        self.copies
    }

    /// Pairwise intermeeting rate `λ`, per second.
    pub fn lambda(&self) -> f64 {
        self.lambda
    }

    /// `F(t) = P(delivery delay ≤ t)`, clamped to `[0, 1]` against
    /// floating-point noise in the alternating exponential sum (the
    /// weights reach ~2e8 in magnitude at the paper's N = 100, L = 32,
    /// leaving ~1e-8 of cancellation residue — far below any KS
    /// deviation worth acting on). Zero for `t ≤ 0`.
    pub fn predicted_delay_cdf(&self, t: f64) -> f64 {
        if t <= 0.0 {
            return 0.0;
        }
        let survival: f64 = self
            .weights
            .iter()
            .zip(&self.rates)
            .map(|(w, a)| w * (-a * t).exp())
            .sum();
        (1.0 - survival).clamp(0.0, 1.0)
    }

    /// Mean delivery delay `E[T] = ∫ (1 − F) dt = Σ_j w_j / a_j`,
    /// seconds.
    pub fn mean_delay(&self) -> f64 {
        self.weights
            .iter()
            .zip(&self.rates)
            .map(|(w, a)| w / a)
            .sum()
    }

    /// One-sample Kolmogorov–Smirnov statistic: the maximum absolute
    /// deviation between the empirical CDF of `samples` (simulated
    /// first-delivery delays, seconds; sorted in place) and the model
    /// CDF. In `[0, 1]`; small means the simulator matches the closed
    /// form.
    ///
    /// # Panics
    /// Panics if `samples` is empty or contains NaN.
    pub fn ks_deviation(&self, samples: &mut [f64]) -> f64 {
        assert!(!samples.is_empty(), "need at least one delay sample");
        ks_statistic(samples, |t| self.predicted_delay_cdf(t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_model() -> DelayModel {
        // Table II scale: N = 100, L = 32; E(I) = 1000 s.
        DelayModel::new(100, 32, 1e-3)
    }

    #[test]
    fn single_copy_reduces_to_direct_delivery() {
        // L = 1 is direct delivery: F(t) = 1 - exp(-λ t).
        let m = DelayModel::new(100, 1, 2e-3);
        for t in [0.0f64, 10.0, 500.0, 5_000.0] {
            let expected = 1.0 - (-2e-3 * t).exp();
            assert!(
                (m.predicted_delay_cdf(t) - expected).abs() < 1e-12,
                "t = {t}"
            );
        }
        assert!((m.mean_delay() - 500.0).abs() < 1e-9);
    }

    #[test]
    fn cdf_is_a_distribution() {
        let m = paper_model();
        assert_eq!(m.predicted_delay_cdf(0.0), 0.0);
        assert_eq!(m.predicted_delay_cdf(-5.0), 0.0);
        let mut prev = 0.0;
        for k in 1..=200 {
            let f = m.predicted_delay_cdf(k as f64 * 50.0);
            assert!((0.0..=1.0).contains(&f));
            assert!(f + 1e-12 >= prev, "CDF must be monotone");
            prev = f;
        }
        assert!(m.predicted_delay_cdf(1e6) > 0.999_999);
        // Weights are a partition of unity by construction, but the
        // alternating sum cancels terms of magnitude up to ~2e8 at the
        // paper's scale, so judge the residue relative to that.
        let scale = m.weights.iter().fold(1.0f64, |acc, w| acc.max(w.abs()));
        assert!((m.weights.iter().sum::<f64>() - 1.0).abs() < 1e-12 * scale);
    }

    #[test]
    fn cdf_matches_numerical_integration() {
        // Independent check of the closed form: RK4-integrate the
        // birth-chain ODE p' = Q p and compare 1 - Σ p_i(t).
        let (n_nodes, copies, lambda) = (100usize, 32u32, 1e-3);
        let m = DelayModel::new(n_nodes, copies, lambda);
        let l = copies as usize;
        let n = n_nodes as f64;
        let beta = |i: usize| -> f64 {
            if i < l {
                lambda * i as f64 * (n - 1.0 - i as f64)
            } else {
                0.0
            }
        };
        let delta = |i: usize| -> f64 { lambda * i as f64 };
        let deriv = |p: &[f64]| -> Vec<f64> {
            (1..=l)
                .map(|i| {
                    let inflow = if i > 1 { beta(i - 1) * p[i - 2] } else { 0.0 };
                    inflow - (beta(i) + delta(i)) * p[i - 1]
                })
                .collect()
        };
        let mut p = vec![0.0; l];
        p[0] = 1.0;
        let dt = 0.05;
        let mut t = 0.0;
        let checkpoints = [100.0, 500.0, 1000.0, 2000.0, 4000.0];
        let mut ci = 0;
        while ci < checkpoints.len() {
            let k1 = deriv(&p);
            let p2: Vec<f64> = p.iter().zip(&k1).map(|(x, k)| x + 0.5 * dt * k).collect();
            let k2 = deriv(&p2);
            let p3: Vec<f64> = p.iter().zip(&k2).map(|(x, k)| x + 0.5 * dt * k).collect();
            let k3 = deriv(&p3);
            let p4: Vec<f64> = p.iter().zip(&k3).map(|(x, k)| x + dt * k).collect();
            let k4 = deriv(&p4);
            for i in 0..l {
                p[i] += dt / 6.0 * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i]);
            }
            t += dt;
            if (t - checkpoints[ci]).abs() < dt / 2.0 {
                let f_numeric = 1.0 - p.iter().sum::<f64>();
                let f_closed = m.predicted_delay_cdf(checkpoints[ci]);
                assert!(
                    (f_numeric - f_closed).abs() < 1e-6,
                    "t = {}: closed {f_closed} vs numeric {f_numeric}",
                    checkpoints[ci]
                );
                ci += 1;
            }
        }
    }

    #[test]
    fn more_copies_deliver_faster() {
        let slow = DelayModel::new(100, 2, 1e-3);
        let fast = DelayModel::new(100, 32, 1e-3);
        assert!(fast.mean_delay() < slow.mean_delay());
        for t in [200.0, 1000.0, 3000.0] {
            assert!(fast.predicted_delay_cdf(t) >= slow.predicted_delay_cdf(t));
        }
    }

    #[test]
    fn ks_deviation_scores_model_samples_low_and_corrupt_high() {
        // Inverse-transform sample the model itself with a tiny LCG:
        // the KS statistic against the generating model must be small,
        // and against a 3x-λ corrupted model large.
        let m = paper_model();
        let mut state: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut uniform = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64).clamp(1e-12, 1.0 - 1e-12)
        };
        let invert = |u: f64| -> f64 {
            // Bisect F(t) = u; F is monotone.
            let (mut lo, mut hi) = (0.0, 1e7);
            for _ in 0..200 {
                let mid = 0.5 * (lo + hi);
                if m.predicted_delay_cdf(mid) < u {
                    lo = mid;
                } else {
                    hi = mid;
                }
            }
            0.5 * (lo + hi)
        };
        let mut samples: Vec<f64> = (0..400).map(|_| invert(uniform())).collect();
        let d_true = m.ks_deviation(&mut samples);
        assert!(d_true < 0.08, "self-sampled KS too large: {d_true}");
        let corrupted = DelayModel::new(100, 32, 3e-3);
        let d_bad = corrupted.ks_deviation(&mut samples);
        assert!(d_bad > 0.2, "corrupted-λ KS too small: {d_bad}");
    }

    #[test]
    fn lambda_scales_time_only() {
        // Doubling λ halves every quantile: F_λ(t) = F_2λ(t/2).
        let a = DelayModel::new(50, 8, 1e-3);
        let b = DelayModel::new(50, 8, 2e-3);
        for t in [100.0, 500.0, 2000.0] {
            assert!((a.predicted_delay_cdf(t) - b.predicted_delay_cdf(t / 2.0)).abs() < 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "spray budget")]
    fn rejects_budget_covering_all_nodes() {
        DelayModel::new(10, 9, 1e-3);
    }

    #[test]
    #[should_panic(expected = "at least one delay sample")]
    fn ks_rejects_empty_samples() {
        paper_model().ks_deviation(&mut []);
    }
}
