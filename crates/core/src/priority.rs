//! The SDSRP priority model — paper Section III-B, Eqs. 3-13.
//!
//! Notation (paper Table I):
//!
//! * `N` — total nodes; `λ` — intermeeting rate (`λ = 1/E(I)`);
//!   `λ_min = (N-1)λ`, so `E(I_min) = 1/((N-1)λ)` (Eq. 3).
//! * For message `i`: `C_i` copies held locally, `R_i` remaining TTL,
//!   `m_i` nodes that have seen it (excl. source), `n_i` nodes holding a
//!   copy.
//!
//! The chain of reasoning:
//!
//! 1. `P(T_i) = m_i / (N-1)` — probability already delivered (Eq. 5).
//! 2. `P(R_i) = 1 - exp(-λ n_i A_i)` — probability an undelivered
//!    message reaches the destination within `R_i` (Eq. 6), with
//!
//!    ```text
//!    A_i = (log2(C_i)+1) R_i - log2(C_i)(log2(C_i)+1) / (2 (N-1) λ)
//!    ```
//!
//!    (the binary-spray process keeps infecting for `log2(C_i)` rounds
//!    spaced `E(I_min)` apart).
//! 3. `U_i = ∂P/∂n_i = (1 - P(T_i)) λ A_i exp(-λ n_i A_i)` — the marginal
//!    delivery-ratio gain of one more copy (Eq. 10). Replication adds
//!    `+1` to `n_i`, dropping adds `-1`, so this derivative is exactly
//!    the message's scheduling *and* drop priority.
//! 4. Equivalently `U_i = (1-P(T_i)) (P(R_i)-1) ln(1-P(R_i)) / n_i`
//!    (Eq. 11), which peaks at `P(R_i) = 1 - 1/e` (Fig. 4): messages
//!    whose expected encounter time just matches their remaining TTL are
//!    top priority.
//! 5. Truncating `ln(1-x) = -Σ x^k/k` gives the cheap Taylor form
//!    (Eq. 13) whose accuracy grows with the number of terms.

use serde::{Deserialize, Serialize};

/// The `P(R_i)` value with maximal priority: `1 - 1/e` (paper Fig. 4).
pub const PEAK_PR: f64 = 1.0 - std::f64::consts::E.recip();

/// Scenario-level constants of the priority model.
///
/// # Example
///
/// Eq. 10 ranks by the *marginal* delivery-ratio gain of one more
/// copy: a message the network has barely seen outranks one that is
/// almost certainly delivered already (high `m_i`, many holders), so
/// the scheduler sends the former first and the drop step evicts the
/// latter first:
///
/// ```
/// use sdsrp_core::priority::PriorityModel;
///
/// // N = 100 nodes, E(I) = 1000 s  =>  λ = 1e-3  (Eq. 3).
/// let model = PriorityModel::new(100, 1e-3);
/// // log_priority(m_i seen, n_i holders, C_i copies, R_i remaining TTL)
/// let fresh = model.log_priority(0, 1, 1, 600.0);
/// let saturated = model.log_priority(90, 40, 1, 600.0);
/// assert!(fresh > saturated);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PriorityModel {
    /// Total number of nodes `N` (≥ 2).
    pub n_nodes: usize,
    /// Intermeeting rate λ = 1/E(I), per second (> 0).
    pub lambda: f64,
}

impl PriorityModel {
    /// Creates a model.
    ///
    /// # Panics
    /// Panics if `n_nodes < 2` or `lambda <= 0`.
    pub fn new(n_nodes: usize, lambda: f64) -> Self {
        assert!(n_nodes >= 2, "need at least two nodes");
        assert!(
            lambda > 0.0 && lambda.is_finite(),
            "lambda must be positive and finite"
        );
        PriorityModel { n_nodes, lambda }
    }

    /// `E(I_min) = E(I) / (N-1) = 1 / ((N-1) λ)` — Eq. 3.
    ///
    /// Total for degenerate models (defence in depth behind the
    /// `n_nodes >= 2` checks in [`new`](Self::new) and the scenario
    /// validation): with no other node to meet, the minimum
    /// intermeeting time is infinite, not `1/0`.
    pub fn e_i_min(&self) -> f64 {
        if self.n_nodes <= 1 {
            return f64::INFINITY;
        }
        1.0 / ((self.n_nodes as f64 - 1.0) * self.lambda)
    }

    /// The spray-corrected exposure term `A_i` (the bracket in Eq. 6).
    /// Clamped to zero from below: a negative exposure would mean the
    /// remaining TTL cannot even cover the spray rounds, i.e. no
    /// further delivery value. Zero for degenerate (`N <= 1`) models —
    /// no peer can ever be exposed — so every downstream priority form
    /// is total (0 or `-inf`) instead of ∞/NaN.
    pub fn exposure(&self, copies: u32, remaining_ttl: f64) -> f64 {
        let (lp1, correction) = self.exposure_parts(copies);
        (lp1 * remaining_ttl - correction).max(0.0)
    }

    /// The copy-count-dependent pieces of [`exposure`](Self::exposure):
    /// `(log2(C_i) + 1, log2(C_i)(log2(C_i)+1) / (2 (N-1) λ))`, so that
    /// `A_i = (parts.0 * R_i - parts.1).max(0.0)` bit-for-bit. `(0, 0)`
    /// for degenerate (`N <= 1`) models, whose exposure is always 0.
    pub fn exposure_parts(&self, copies: u32) -> (f64, f64) {
        if self.n_nodes <= 1 {
            return (0.0, 0.0);
        }
        let l = log2_copies(copies);
        let correction = l * (l + 1.0) / (2.0 * (self.n_nodes as f64 - 1.0) * self.lambda);
        (l + 1.0, correction)
    }

    /// `P(T_i)` — probability the message has already been delivered
    /// (Eq. 5), clamped to `[0, 1]`. For a degenerate one-node model
    /// the destination cannot exist, so delivery is treated as certain
    /// (yielding zero priority) rather than `0/0 = NaN`.
    pub fn p_delivered(&self, seen: u32) -> f64 {
        if self.n_nodes <= 1 {
            return 1.0;
        }
        (seen as f64 / (self.n_nodes as f64 - 1.0)).clamp(0.0, 1.0)
    }

    /// `P(R_i)` — probability an undelivered message is delivered within
    /// the remaining TTL (Eq. 6).
    pub fn p_remaining(&self, holders: u32, copies: u32, remaining_ttl: f64) -> f64 {
        let a = self.exposure(copies, remaining_ttl);
        1.0 - (-self.lambda * holders as f64 * a).exp()
    }

    /// `P_i` — total delivery probability of the message (Eq. 7).
    pub fn p_total(&self, seen: u32, holders: u32, copies: u32, remaining_ttl: f64) -> f64 {
        let pt = self.p_delivered(seen);
        pt + (1.0 - pt) * self.p_remaining(holders, copies, remaining_ttl)
    }

    /// The SDSRP priority `U_i` — closed form, Eq. 10.
    ///
    /// * `seen` — `m_i`, nodes that have seen the message (excl. source).
    /// * `holders` — `n_i`, nodes currently holding a copy.
    /// * `copies` — `C_i`, copy tokens held by the ranking node.
    /// * `remaining_ttl` — `R_i`, seconds.
    ///
    /// `exp` of [`log_priority`](Self::log_priority), so it underflows
    /// to 0 where the log form keeps full resolution.
    pub fn priority(&self, seen: u32, holders: u32, copies: u32, remaining_ttl: f64) -> f64 {
        self.log_priority(seen, holders, copies, remaining_ttl)
            .exp()
    }

    /// The part of Eq. 10 that does not depend on the remaining TTL, for
    /// a message with `seen` = `m_i`, `holders` = `n_i` and `copies` =
    /// `C_i`: see [`PriorityPrefix`]. `rate` is the meeting rate of the
    /// leading factor and the exponent (λ, or a destination-specific
    /// rate); `terms` is 0 for the closed form, else the Eq. 13 Taylor
    /// depth.
    pub(crate) fn prefix(
        &self,
        seen: u32,
        holders: u32,
        copies: u32,
        rate: f64,
        terms: usize,
    ) -> PriorityPrefix {
        let not_delivered = 1.0 - self.p_delivered(seen);
        let h = holders.max(1) as f64;
        let (head, ln_h) = if terms == 0 {
            (not_delivered.ln() + rate.ln(), 0.0)
        } else {
            (not_delivered.ln(), h.ln())
        };
        let (lp1, correction) = self.exposure_parts(copies);
        PriorityPrefix {
            head,
            rate_h: rate * h,
            ln_h,
            lp1,
            correction,
            terms,
        }
    }

    /// `ln U_i` — the closed-form priority (Eq. 10) evaluated in
    /// log-space.
    ///
    /// At paper scale (`λ ≈ 1e-3`, TTL = 18 000 s, several holders) the
    /// factor `exp(-λ n_i A_i)` underflows `f64` to exactly 0, which
    /// would collapse the ranking into ties. Since `ln` is monotone, the
    /// scheduler and the drop rule can compare `ln U_i` instead and keep
    /// full resolution. Messages with zero utility (already seen by
    /// everyone, or no exposure left) map to `-inf`, which orders
    /// correctly and never produces NaN.
    pub fn log_priority(&self, seen: u32, holders: u32, copies: u32, remaining_ttl: f64) -> f64 {
        self.prefix(seen, holders, copies, self.lambda, 0)
            .log_priority_at(remaining_ttl)
    }

    /// `ln` of the Eq. 13 Taylor truncation, evaluated stably: with
    /// `x = λ n_i A_i`, `1 - P(R_i) = e^{-x}` exactly, so
    /// `ln U = ln(1-P(T)) - x + ln(Σ_{j=1..k} P(R)^j / j) - ln n_i`.
    pub fn log_priority_taylor(
        &self,
        seen: u32,
        holders: u32,
        copies: u32,
        remaining_ttl: f64,
        terms: usize,
    ) -> f64 {
        assert!(terms >= 1, "need at least one Taylor term");
        self.prefix(seen, holders, copies, self.lambda, terms)
            .log_priority_at(remaining_ttl)
    }

    /// The priority in probability form, Eq. 11:
    /// `U_i = (1-P(T)) (P(R)-1) ln(1-P(R)) / n_i`.
    ///
    /// Identical to [`priority`](Self::priority) when `pt`/`pr` come from
    /// Eqs. 5-6; exposed separately because Fig. 4 plots it directly and
    /// the Taylor form approximates it.
    pub fn priority_from_probabilities(pt: f64, pr: f64, holders: u32) -> f64 {
        assert!((0.0..=1.0).contains(&pt), "pt out of range");
        assert!((0.0..=1.0).contains(&pr), "pr out of range");
        let h = holders.max(1) as f64;
        if pr >= 1.0 {
            // lim_{x->1} (x-1) ln(1-x) = 0.
            return 0.0;
        }
        (1.0 - pt) * (pr - 1.0) * (1.0 - pr).ln() / h
    }

    /// The `k`-term Taylor approximation of Eq. 11 (paper Eq. 13):
    /// `U_i ≈ (1-P(T)) (1-P(R)) Σ_{j=1..k} P(R)^j / j / n_i`.
    ///
    /// Monotonically approaches the exact value from below as `k` grows.
    pub fn priority_taylor(pt: f64, pr: f64, holders: u32, terms: usize) -> f64 {
        assert!((0.0..=1.0).contains(&pt), "pt out of range");
        assert!((0.0..=1.0).contains(&pr), "pr out of range");
        assert!(terms >= 1, "need at least one Taylor term");
        let h = holders.max(1) as f64;
        let mut sum = 0.0;
        let mut pow = 1.0;
        for j in 1..=terms {
            pow *= pr;
            sum += pow / j as f64;
        }
        (1.0 - pt) * (1.0 - pr) * sum / h
    }

    /// Left side minus right side of the peak condition (Eq. 12):
    /// the priority is maximal when `1/(λ n_i)` equals the summed spray
    /// windows `Σ_{k=0}^{log2 C_i} [R_i - k E(I_min)]`. Returns the
    /// residual so tests can locate the root.
    pub fn peak_condition_residual(&self, holders: u32, copies: u32, remaining_ttl: f64) -> f64 {
        let l = log2_copies(copies) as u32;
        let e_min = self.e_i_min();
        let sum: f64 = (0..=l).map(|k| remaining_ttl - k as f64 * e_min).sum();
        1.0 / (self.lambda * holders.max(1) as f64) - sum
    }
}

/// Eq. 10 up to the remaining TTL: everything `ln U_i` needs except
/// `R_i`, which enters only through the exposure `A_i`. Built by
/// [`PriorityModel::prefix`]; [`log_priority_at`](Self::log_priority_at)
/// finishes it. Every log-space priority goes through this pair, so a
/// prefix kept between evaluations (the policy's memo) finishes to the
/// same float a fresh evaluation returns.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct PriorityPrefix {
    /// `ln(1 − P(T_i))`, plus the rate's log in the closed form; `-inf`
    /// once the message counts as delivered (`P(T_i) = 1`).
    head: f64,
    /// The rate times `h = max(n_i, 1)`: the exponent per unit exposure.
    rate_h: f64,
    /// `ln h` in the Taylor form; the closed form does not read it.
    ln_h: f64,
    /// `log2(C_i) + 1` and the spray correction of `A_i`
    /// ([`PriorityModel::exposure_parts`]).
    lp1: f64,
    correction: f64,
    /// 0 for the closed form, else the Eq. 13 Taylor depth.
    terms: usize,
}

impl PriorityPrefix {
    /// `ln U_i` at remaining TTL `remaining_ttl`: the closed form (Eq. 10)
    /// or its Eq. 13 truncation, `-inf` when the message counts as
    /// delivered or no exposure is left.
    pub(crate) fn log_priority_at(&self, remaining_ttl: f64) -> f64 {
        let a = (self.lp1 * remaining_ttl - self.correction).max(0.0);
        if self.head == f64::NEG_INFINITY || a <= 0.0 {
            return f64::NEG_INFINITY;
        }
        if self.terms == 0 {
            return self.head + a.ln() - self.rate_h * a;
        }
        let x = self.rate_h * a;
        let pr = 1.0 - (-x).exp(); // saturates harmlessly at 1 for large x
        let mut sum = 0.0;
        let mut pow = 1.0;
        for j in 1..=self.terms {
            pow *= pr;
            sum += pow / j as f64;
        }
        if sum <= 0.0 {
            return f64::NEG_INFINITY;
        }
        self.head - x + sum.ln() - self.ln_h
    }
}

/// `log2(C_i)` as used throughout the paper; zero for `C_i <= 1`.
#[inline]
pub fn log2_copies(copies: u32) -> f64 {
    if copies <= 1 {
        0.0
    } else {
        (copies as f64).log2()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Paper-scale model: 100 nodes, E(I) ≈ 1000 s.
    fn model() -> PriorityModel {
        PriorityModel::new(100, 1.0 / 1000.0)
    }

    #[test]
    fn e_i_min_matches_eq3() {
        let m = model();
        // E(I_min) = E(I)/(N-1) = 1000/99.
        assert!((m.e_i_min() - 1000.0 / 99.0).abs() < 1e-9);
    }

    #[test]
    fn exposure_reduces_to_r_for_single_copy() {
        let m = model();
        // C_i = 1 -> log2 = 0 -> A = R.
        assert_eq!(m.exposure(1, 5000.0), 5000.0);
    }

    #[test]
    fn exposure_clamps_at_zero() {
        let m = model();
        // Tiny TTL with many copies: correction dominates.
        assert_eq!(m.exposure(64, 0.001), 0.0);
    }

    #[test]
    fn p_delivered_clamps() {
        let m = model();
        assert_eq!(m.p_delivered(0), 0.0);
        assert!((m.p_delivered(33) - 33.0 / 99.0).abs() < 1e-12);
        assert_eq!(m.p_delivered(200), 1.0);
    }

    #[test]
    fn p_remaining_behaviour() {
        let m = model();
        // No holders -> cannot be delivered.
        assert_eq!(m.p_remaining(0, 1, 1000.0), 0.0);
        // More holders -> higher probability.
        let p1 = m.p_remaining(1, 1, 1000.0);
        let p5 = m.p_remaining(5, 1, 1000.0);
        assert!(p5 > p1);
        // Longer TTL -> higher probability.
        let pshort = m.p_remaining(3, 4, 100.0);
        let plong = m.p_remaining(3, 4, 10_000.0);
        assert!(plong > pshort);
        assert!((0.0..=1.0).contains(&p1));
    }

    #[test]
    fn closed_form_matches_probability_form() {
        // Eq. 10 and Eq. 11 must agree when pt/pr derive from Eqs. 5-6.
        let m = model();
        for &(seen, holders, copies, ttl) in &[
            (5u32, 4u32, 8u32, 3000.0),
            (0, 1, 1, 18000.0),
            (50, 20, 32, 600.0),
            (98, 60, 2, 100.0),
        ] {
            let direct = m.priority(seen, holders, copies, ttl);
            let pt = m.p_delivered(seen);
            let pr = m.p_remaining(holders, copies, ttl);
            let via_prob = PriorityModel::priority_from_probabilities(pt, pr, holders);
            assert!(
                (direct - via_prob).abs() < 1e-12 * direct.abs().max(1.0),
                "mismatch for ({seen},{holders},{copies},{ttl}): {direct} vs {via_prob}"
            );
        }
    }

    #[test]
    fn priority_decreases_with_seen() {
        // Eq. 11: "higher delivered probability leads to lower priority".
        let m = model();
        let mut last = f64::INFINITY;
        for seen in [0u32, 10, 30, 60, 90] {
            let u = m.priority(seen, 5, 8, 3000.0);
            assert!(u < last, "priority not decreasing at seen={seen}");
            last = u;
        }
        // Fully seen -> zero priority.
        assert_eq!(m.priority(99, 5, 8, 3000.0), 0.0);
    }

    #[test]
    fn priority_decreases_with_holders_in_saturated_regime() {
        // "a greater amount of copies of message i in the network leads
        // to lower priority" — true once λ n A is past the peak. At this
        // scale the linear form underflows, which is exactly why the
        // policy ranks on log_priority.
        let m = model();
        let mut last = f64::INFINITY;
        for holders in [10u32, 20, 40, 80] {
            let u = m.log_priority(0, holders, 8, 5000.0);
            assert!(u < last, "log-priority not decreasing at n={holders}");
            assert!(u.is_finite());
            last = u;
        }
    }

    #[test]
    fn log_priority_matches_ln_of_linear_form() {
        let m = model();
        // Eq. 10 as the paper writes it, linear and unfactored.
        let linear = |seen: u32, holders: u32, copies: u32, ttl: f64| {
            let l = log2_copies(copies);
            let a = ((l + 1.0) * ttl - l * (l + 1.0) / (2.0 * 99.0 * m.lambda)).max(0.0);
            let pt = f64::from(seen) / 99.0;
            (1.0 - pt) * m.lambda * a * (-m.lambda * f64::from(holders) * a).exp()
        };
        for &(seen, holders, copies, ttl) in &[
            (5u32, 2u32, 8u32, 800.0),
            (0, 1, 1, 1500.0),
            (20, 3, 4, 400.0),
        ] {
            let lin = linear(seen, holders, copies, ttl);
            let log = m.log_priority(seen, holders, copies, ttl);
            assert!(
                (log - lin.ln()).abs() < 1e-9,
                "log form mismatch: {log} vs ln({lin})"
            );
        }
        // Degenerate cases map to -inf.
        assert_eq!(m.log_priority(99, 1, 8, 800.0), f64::NEG_INFINITY);
        assert_eq!(m.log_priority(0, 1, 64, 0.0), f64::NEG_INFINITY);
    }

    #[test]
    fn log_taylor_converges_to_log_exact() {
        // Eq. 13's series Σ pr^j/j converges to -ln(1-pr) = λnA, whose
        // /n_i cancels Eq. 11's normalisation, recovering Eq. 10 exactly.
        // Pick a pre-saturation operating point (λnA ≈ 1) so the series
        // converges at practical k.
        let m = model();
        let (seen, holders, copies, ttl) = (10u32, 1u32, 1u32, 1000.0);
        let exact = m.log_priority(seen, holders, copies, ttl);
        let mut last = f64::NEG_INFINITY;
        for k in [1usize, 2, 8, 64] {
            let a = m.log_priority_taylor(seen, holders, copies, ttl, k);
            assert!(a >= last - 1e-12, "not monotone in k");
            assert!(a <= exact + 1e-12, "exceeds exact");
            assert!(a.is_finite());
            last = a;
        }
        assert!(
            (last - exact).abs() < 0.01 * exact.abs() + 1e-6,
            "taylor {last} vs exact {exact}"
        );
    }

    #[test]
    fn peak_is_at_one_minus_inv_e() {
        // Scan P(R) and confirm the probability-form priority peaks at
        // 1 - 1/e (paper Fig. 4).
        let mut best_pr = 0.0;
        let mut best_u = f64::NEG_INFINITY;
        for i in 0..=10_000 {
            let pr = i as f64 / 10_000.0;
            let u = PriorityModel::priority_from_probabilities(0.0, pr, 1);
            if u > best_u {
                best_u = u;
                best_pr = pr;
            }
        }
        assert!(
            (best_pr - PEAK_PR).abs() < 2e-4,
            "peak at {best_pr}, expected {PEAK_PR}"
        );
    }

    #[test]
    fn monotone_up_before_peak_down_after() {
        let us: Vec<f64> = (0..100)
            .map(|i| PriorityModel::priority_from_probabilities(0.0, i as f64 / 100.0, 1))
            .collect();
        let peak_idx = (PEAK_PR * 100.0) as usize;
        for w in us[..peak_idx].windows(2) {
            assert!(w[1] >= w[0], "not increasing before peak");
        }
        for w in us[peak_idx + 1..].windows(2) {
            assert!(w[1] <= w[0], "not decreasing after peak");
        }
    }

    #[test]
    fn taylor_converges_to_exact_from_below() {
        let pt = 0.2;
        let pr = 0.55;
        let exact = PriorityModel::priority_from_probabilities(pt, pr, 3);
        let mut last = 0.0;
        for k in [1usize, 2, 4, 8, 16, 64] {
            let approx = PriorityModel::priority_taylor(pt, pr, 3, k);
            assert!(approx >= last - 1e-15, "not monotone in k");
            assert!(approx <= exact + 1e-12, "overshoots exact value");
            last = approx;
        }
        assert!(
            (last - exact).abs() < 1e-6,
            "64 terms should be accurate: {last} vs {exact}"
        );
    }

    #[test]
    fn taylor_one_term_shape() {
        // k=1: U = (1-pt)(1-pr) pr / n — peaks at pr = 0.5 (Fig. 4's
        // most-skewed curve).
        let mut best = (0.0, f64::NEG_INFINITY);
        for i in 0..=1000 {
            let pr = i as f64 / 1000.0;
            let u = PriorityModel::priority_taylor(0.0, pr, 1, 1);
            if u > best.1 {
                best = (pr, u);
            }
        }
        assert!((best.0 - 0.5).abs() < 2e-3, "k=1 peak at {}", best.0);
    }

    #[test]
    fn pr_one_edge_case() {
        assert_eq!(PriorityModel::priority_from_probabilities(0.0, 1.0, 1), 0.0);
        assert_eq!(PriorityModel::priority_from_probabilities(0.3, 0.0, 1), 0.0);
    }

    #[test]
    fn peak_condition_residual_crosses_zero() {
        // Eq. 12: as remaining TTL grows, the residual goes from positive
        // (TTL too short) to negative (TTL ample) — a root exists.
        let m = model();
        let lo = m.peak_condition_residual(3, 8, 1.0);
        let hi = m.peak_condition_residual(3, 8, 1e6);
        assert!(lo > 0.0 && hi < 0.0);
    }

    #[test]
    fn priority_at_peak_condition_is_near_max() {
        // Find the TTL satisfying Eq. 12 by bisection, then verify the
        // priority there is within a whisker of the scan maximum.
        let m = model();
        let (holders, copies) = (3u32, 8u32);
        let (mut lo, mut hi) = (1.0, 1e6);
        for _ in 0..200 {
            let mid = 0.5 * (lo + hi);
            if m.peak_condition_residual(holders, copies, mid) > 0.0 {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        let ttl_star = 0.5 * (lo + hi);
        let u_star = m.priority(0, holders, copies, ttl_star);
        let u_max = (1..=2000)
            .map(|i| m.priority(0, holders, copies, i as f64 * 50.0))
            .fold(f64::NEG_INFINITY, f64::max);
        assert!(
            u_star >= u_max * 0.999,
            "priority at Eq.12 root {u_star} vs scan max {u_max}"
        );
    }

    #[test]
    fn log2_copies_edge_cases() {
        assert_eq!(log2_copies(0), 0.0);
        assert_eq!(log2_copies(1), 0.0);
        assert_eq!(log2_copies(2), 1.0);
        assert_eq!(log2_copies(32), 5.0);
    }

    #[test]
    #[should_panic(expected = "at least two nodes")]
    fn rejects_single_node() {
        let _ = PriorityModel::new(1, 0.1);
    }

    #[test]
    fn degenerate_models_are_total() {
        // `new()` rejects N < 2, but the struct fields are public, so a
        // degenerate model can still be built (and Eq. 3/5/6 all divide
        // by N−1). Every priority form must stay total: finite-or-inf,
        // never NaN — a NaN would panic the buffer policy's
        // `.expect("NaN priority")` sort far from the root cause.
        for n_nodes in [0usize, 1] {
            let m = PriorityModel {
                n_nodes,
                lambda: 1.0 / 1000.0,
            };
            assert_eq!(m.e_i_min(), f64::INFINITY);
            assert_eq!(m.exposure(8, 3000.0), 0.0);
            assert_eq!(m.p_delivered(0), 1.0);
            for &(seen, holders, copies, ttl) in &[
                (0u32, 0u32, 1u32, 0.0f64),
                (0, 1, 8, 3000.0),
                (5, 3, 64, 1e9),
            ] {
                let u = m.priority(seen, holders, copies, ttl);
                assert_eq!(u, 0.0, "degenerate priority must be exactly 0");
                assert!(!m.p_remaining(holders, copies, ttl).is_nan());
                assert!(!m.p_total(seen, holders, copies, ttl).is_nan());
                assert_eq!(
                    m.log_priority(seen, holders, copies, ttl),
                    f64::NEG_INFINITY
                );
                assert_eq!(
                    m.log_priority_taylor(seen, holders, copies, ttl, 3),
                    f64::NEG_INFINITY
                );
            }
        }
    }

    #[test]
    fn two_node_model_is_well_defined() {
        // The smallest legal network: N−1 = 1, so nothing degenerates,
        // but every divisor sits at its minimum.
        let m = PriorityModel::new(2, 1.0 / 500.0);
        assert_eq!(m.e_i_min(), 500.0);
        assert_eq!(m.p_delivered(0), 0.0);
        assert_eq!(m.p_delivered(1), 1.0);
        let u = m.priority(0, 1, 2, 1000.0);
        assert!(u.is_finite() && u > 0.0);
        assert!(!m.log_priority(0, 1, 2, 1000.0).is_nan());
        // Zero remaining TTL: no exposure left, zero priority.
        assert_eq!(m.priority(0, 1, 1, 0.0), 0.0);
        assert_eq!(m.log_priority(0, 1, 1, 0.0), f64::NEG_INFINITY);
    }

    #[test]
    #[should_panic(expected = "lambda")]
    fn rejects_bad_lambda() {
        let _ = PriorityModel::new(10, 0.0);
    }

    proptest! {
        /// Priorities are always finite and non-negative over the whole
        /// realistic parameter range.
        #[test]
        fn prop_priority_finite_nonneg(
            seen in 0u32..150,
            holders in 0u32..150,
            copies in 1u32..128,
            ttl in 0.0f64..50_000.0,
        ) {
            let m = model();
            let u = m.priority(seen, holders, copies, ttl);
            prop_assert!(u.is_finite());
            prop_assert!(u >= 0.0);
        }

        /// The probability chain stays in [0, 1].
        #[test]
        fn prop_probabilities_in_range(
            seen in 0u32..150,
            holders in 0u32..150,
            copies in 1u32..128,
            ttl in 0.0f64..50_000.0,
        ) {
            let m = model();
            let pt = m.p_delivered(seen);
            let pr = m.p_remaining(holders, copies, ttl);
            let p = m.p_total(seen, holders, copies, ttl);
            prop_assert!((0.0..=1.0).contains(&pt));
            prop_assert!((0.0..=1.0).contains(&pr));
            prop_assert!((0.0..=1.0 + 1e-12).contains(&p));
        }

        /// Degenerate and minimal node counts (N ∈ {0, 1, 2}) with any
        /// inputs — zero TTL included — never produce NaN anywhere in
        /// the probability chain or either priority form.
        #[test]
        fn prop_degenerate_node_counts_never_nan(
            n_nodes in 0usize..3,
            seen in 0u32..8,
            holders in 0u32..8,
            copies in 1u32..128,
            ttl in prop_oneof![Just(0.0f64), 0.0f64..100_000.0],
        ) {
            let m = PriorityModel { n_nodes, lambda: 1.0 / 1000.0 };
            let u = m.priority(seen, holders, copies, ttl);
            prop_assert!(!u.is_nan());
            prop_assert!(u >= 0.0);
            prop_assert!(!m.log_priority(seen, holders, copies, ttl).is_nan());
            prop_assert!(!m.p_delivered(seen).is_nan());
            prop_assert!(!m.p_remaining(holders, copies, ttl).is_nan());
            prop_assert!(!m.p_total(seen, holders, copies, ttl).is_nan());
            prop_assert!(!m.exposure(copies, ttl).is_nan());
            prop_assert!(m.e_i_min() > 0.0);
        }

        /// Taylor truncation never exceeds the exact Eq. 11 value and
        /// improves with more terms.
        #[test]
        fn prop_taylor_bounded_and_monotone(
            pt in 0.0f64..1.0,
            pr in 0.0f64..0.999,
            holders in 1u32..64,
        ) {
            let exact = PriorityModel::priority_from_probabilities(pt, pr, holders);
            let k1 = PriorityModel::priority_taylor(pt, pr, holders, 1);
            let k4 = PriorityModel::priority_taylor(pt, pr, holders, 4);
            let k16 = PriorityModel::priority_taylor(pt, pr, holders, 16);
            prop_assert!(k1 <= k4 + 1e-15);
            prop_assert!(k4 <= k16 + 1e-15);
            prop_assert!(k16 <= exact + 1e-12);
        }
    }
}
