//! Distributed estimation of `m_i`, `n_i` and λ — paper Section III-C.
//!
//! The priority (Eq. 10) needs three quantities no DTN node can observe
//! directly:
//!
//! * **`m_i`** — how many nodes have seen message `i`. Estimated from the
//!   binary-spray timestamps carried with each copy (Eq. 15, Fig. 6):
//!   every spray event at time `t_k` seeded a subtree that has itself
//!   been doubling roughly every `E(I_min)` seconds since.
//! * **`d_i`** — how many copies have been *dropped* network-wide.
//!   Observed through the gossiped dropped lists
//!   ([`crate::dropped_list`]); then `n_i = m_i + 1 - d_i` (Eq. 14).
//! * **λ** — the intermeeting rate. Each node measures its own
//!   intermeeting times (Definition 1) online; `λ = 1/E(I)`.

use dtn_core::ids::{IdMap, NodeId};
use dtn_core::stats::OnlineStats;
use dtn_core::time::SimTime;

/// Estimates `m_i` (nodes that have seen message `i`, excluding the
/// source) from the binary-spray timestamps along this copy's path —
/// paper Eq. 15:
///
/// ```text
/// m_i(T_i) = Σ_k 2^⌊(now − t_k) / E(I_min)⌋ + 1
/// ```
///
/// Each recorded spray at `t_k` handed half the tokens to a peer whose
/// own subtree is assumed to have kept binary-spraying every `E(I_min)`
/// seconds (dotted branches in Fig. 6). The `+1` counts the node at the
/// end of the recorded chain itself.
///
/// The estimate is capped at `N - 1` — a message cannot have been seen by
/// more nodes than exist (excluding the source).
///
/// Total over its whole domain: the doubling exponent is clamped to 62
/// (`1u64 << 63` would already overflow; anything past the cap
/// saturates anyway, so long-elapsed timestamps with a tiny `E(I_min)`
/// cannot panic in debug or wrap in release), and a degenerate
/// `E(I_min)` (zero, negative, or NaN — possible when the priority
/// model itself is degenerate) is treated as an instantly-saturated
/// spray tree rather than a crash.
pub fn estimate_m(spray_times: &[SimTime], now: SimTime, e_i_min: f64, n_nodes: usize) -> u32 {
    let cap = (n_nodes.saturating_sub(1)) as u64;
    // NaN also lands here: a NaN `E(I_min)` fails the `>` comparison.
    if !spray_times.is_empty()
        && !matches!(e_i_min.partial_cmp(&0.0), Some(std::cmp::Ordering::Greater))
    {
        return cap as u32;
    }
    let mut total: u64 = 1; // the chain endpoint itself
    for &t_k in spray_times {
        let dt = (now - t_k).as_secs().max(0.0);
        let exp = (dt / e_i_min).floor().clamp(0.0, 62.0) as u32;
        total = total.saturating_add(1u64 << exp);
        if total >= cap {
            return cap as u32;
        }
    }
    total.min(cap) as u32
}

/// `n_i = m_i + 1 - d_i` (Eq. 14), floored at 1: the estimating node
/// itself still holds a copy (it is ranking the message in its own
/// buffer), so fewer than one holder is impossible.
pub fn estimate_n(seen: u32, dropped: u32) -> u32 {
    (seen + 1).saturating_sub(dropped).max(1)
}

/// Online estimator of the intermeeting rate λ.
///
/// Tracks, per peer, when the previous contact ended; each new contact
/// start yields one intermeeting sample (Definition 1). `λ = 1/mean`.
/// Until `min_samples` samples have accumulated the estimator reports
/// the configured prior (cold-start behaviour the paper leaves implicit).
///
/// ## Churn hygiene
///
/// `last_contact_end` entries would otherwise live forever: a peer that
/// crashes, reboots, or sits out a long radio blackout produces one
/// enormous "intermeeting" gap on its next contact, permanently skewing
/// the running mean. Two defences exist:
///
/// * [`with_max_gap`](Self::with_max_gap) ages stale endpoints out —
///   a gap beyond the cutoff is discarded (the endpoint is treated as
///   lost history, not a sample);
/// * [`reset`](Self::reset) / [`forget_peer`](Self::forget_peer) let
///   the owner drop state explicitly when it *observes* churn (its own
///   crash wipe, a peer known to have rebooted).
///
/// The default cutoff is `+∞`, so estimators built through the existing
/// constructors behave bit-identically to before.
#[derive(Debug, Clone)]
pub struct LambdaEstimator {
    last_contact_end: IdMap<NodeId, SimTime>,
    samples: OnlineStats,
    per_peer: IdMap<NodeId, OnlineStats>,
    prior_lambda: f64,
    min_samples: u64,
    max_gap: f64,
}

impl LambdaEstimator {
    /// Creates an estimator with a prior rate used until `min_samples`
    /// real samples exist.
    ///
    /// # Panics
    /// Panics if `prior_lambda` is not strictly positive.
    pub fn new(prior_lambda: f64, min_samples: u64) -> Self {
        assert!(
            prior_lambda > 0.0 && prior_lambda.is_finite(),
            "prior lambda must be positive"
        );
        LambdaEstimator {
            last_contact_end: IdMap::default(),
            samples: OnlineStats::new(),
            per_peer: IdMap::default(),
            prior_lambda,
            min_samples,
            max_gap: f64::INFINITY,
        }
    }

    /// Sets the staleness cutoff: an intermeeting gap longer than
    /// `max_gap` seconds is treated as a lost contact-history endpoint
    /// (the peer was presumably down) and discarded instead of sampled.
    ///
    /// # Panics
    /// Panics if `max_gap` is not strictly positive.
    pub fn with_max_gap(mut self, max_gap: f64) -> Self {
        assert!(max_gap > 0.0, "max gap must be positive");
        self.max_gap = max_gap;
        self
    }

    /// Records a contact coming up with `peer` at `now`. Returns `true`
    /// iff an intermeeting gap was actually sampled — i.e. iff this call
    /// can move [`lambda`](Self::lambda). Callers memoising λ-derived
    /// quantities only need to invalidate when this returns `true`.
    ///
    /// Gaps beyond the [`with_max_gap`](Self::with_max_gap) cutoff are
    /// discarded: the stale endpoint is dropped (not sampled) and the
    /// call returns `false`.
    pub fn on_contact_up(&mut self, now: SimTime, peer: NodeId) -> bool {
        if let Some(end) = self.last_contact_end.get(&peer) {
            let gap = (now - *end).as_secs();
            if gap > self.max_gap {
                // The peer was silent far longer than any plausible
                // intermeeting time: age the endpoint out rather than
                // poison the mean with one enormous bogus sample.
                self.last_contact_end.remove(&peer);
                return false;
            }
            if gap > 0.0 {
                self.samples.push(gap);
                self.per_peer.entry(peer).or_default().push(gap);
                return true;
            }
        }
        false
    }

    /// Drops all contact history *about* `peer` (its pending endpoint
    /// and its per-peer gap statistics); the pooled mean keeps samples
    /// already absorbed. Use when this node learns `peer` has rebooted.
    pub fn forget_peer(&mut self, peer: NodeId) {
        self.last_contact_end.remove(&peer);
        self.per_peer.remove(&peer);
    }

    /// Wipes every sample and endpoint, returning the estimator to its
    /// cold-start state (prior, `min_samples` and the staleness cutoff
    /// are kept). Used when the owning node itself crashes.
    pub fn reset(&mut self) {
        self.last_contact_end.clear();
        self.samples = OnlineStats::new();
        self.per_peer.clear();
    }

    /// Records the contact with `peer` ending at `now`.
    pub fn on_contact_down(&mut self, now: SimTime, peer: NodeId) {
        self.last_contact_end.insert(peer, now);
    }

    /// Current λ estimate (per second).
    pub fn lambda(&self) -> f64 {
        if self.samples.count() < self.min_samples {
            return self.prior_lambda;
        }
        match self.samples.mean() {
            Some(mean) if mean > 0.0 => 1.0 / mean,
            _ => self.prior_lambda,
        }
    }

    /// λ estimate specific to meeting `peer` (extension: SDSRP-H,
    /// heterogeneity-aware SDSRP). Falls back to the pooled
    /// [`lambda`](Self::lambda) until `min_samples` gaps have been
    /// observed *with that peer* — under homogeneous mobility the two
    /// coincide, under clustered/community mobility they diverge by
    /// design.
    pub fn lambda_for(&self, peer: NodeId) -> f64 {
        match self.per_peer.get(&peer) {
            Some(stats) if stats.count() >= self.min_samples => match stats.mean() {
                Some(mean) if mean > 0.0 => 1.0 / mean,
                _ => self.lambda(),
            },
            _ => self.lambda(),
        }
    }

    /// Number of intermeeting samples observed so far.
    pub fn sample_count(&self) -> u64 {
        self.samples.count()
    }

    /// Mean observed intermeeting time, if any samples exist.
    pub fn mean_intermeeting(&self) -> Option<f64> {
        self.samples.mean()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn m_estimate_counts_subtrees() {
        // E(I_min) = 10 s; sprays at t=0 and t=20; now = 40.
        // Subtrees: 2^⌊40/10⌋ = 16 and 2^⌊20/10⌋ = 4; +1 -> 21.
        let m = estimate_m(&[t(0.0), t(20.0)], t(40.0), 10.0, 1000);
        assert_eq!(m, 21);
    }

    #[test]
    fn m_estimate_no_sprays() {
        // A source that never sprayed: only itself has the message beyond
        // the source, i.e. the estimate is the chain endpoint alone.
        assert_eq!(estimate_m(&[], t(100.0), 10.0, 100), 1);
    }

    #[test]
    fn m_estimate_caps_at_population() {
        // Ancient spray: the doubling estimate explodes but must cap.
        let m = estimate_m(&[t(0.0)], t(1e6), 1.0, 100);
        assert_eq!(m, 99);
    }

    #[test]
    fn m_estimate_fresh_spray_counts_one_peer() {
        // Spray just happened: floor(0/E) = 0 -> subtree size 1, +1 = 2.
        let m = estimate_m(&[t(50.0)], t(50.0), 10.0, 100);
        assert_eq!(m, 2);
    }

    #[test]
    fn m_estimate_handles_future_timestamps_gracefully() {
        // Clock skew: spray time after `now` clamps to dt = 0.
        let m = estimate_m(&[t(60.0)], t(50.0), 10.0, 100);
        assert_eq!(m, 2);
    }

    #[test]
    fn m_estimate_huge_elapsed_time_does_not_overflow() {
        // Regression: ⌊(now − t_k)/E(I_min)⌋ can exceed 63 by orders of
        // magnitude (long TTLs, tiny E(I_min)); `1u64 << exp` would
        // panic in debug and wrap in release. The clamp must kick in
        // and the estimate saturate at N−1.
        assert_eq!(estimate_m(&[t(0.0)], t(1e15), 1e-6, 100), 99);
        // Exactly at and just past the shift-overflow boundary.
        assert_eq!(estimate_m(&[t(0.0)], t(63.0), 1.0, 100), 99);
        assert_eq!(estimate_m(&[t(0.0)], t(64.0), 1.0, 100), 99);
        // Many ancient sprays together still saturate, never wrap.
        let sprays: Vec<SimTime> = (0..32).map(|k| t(k as f64)).collect();
        assert_eq!(estimate_m(&sprays, t(1e12), 1e-3, 50), 49);
    }

    #[test]
    fn m_estimate_degenerate_e_i_min_is_total() {
        // Zero, negative, NaN and infinite E(I_min) must not panic.
        assert_eq!(estimate_m(&[t(0.0)], t(10.0), 0.0, 100), 99);
        assert_eq!(estimate_m(&[t(0.0)], t(10.0), -1.0, 100), 99);
        assert_eq!(estimate_m(&[t(0.0)], t(10.0), f64::NAN, 100), 99);
        // Infinite E(I_min) (degenerate 1-node model): no doubling at
        // all — each recorded spray contributes exactly one peer.
        assert_eq!(estimate_m(&[t(0.0)], t(10.0), f64::INFINITY, 100), 2);
        // No sprays recorded: the endpoint alone, whatever E(I_min).
        assert_eq!(estimate_m(&[], t(10.0), 0.0, 100), 1);
        // Degenerate populations cap at N−1 (0 for a 1-node network).
        assert_eq!(estimate_m(&[t(0.0)], t(1e9), 1e-9, 1), 0);
        assert_eq!(estimate_m(&[t(0.0)], t(1e9), 1e-9, 2), 1);
    }

    #[test]
    fn n_estimate_eq14() {
        assert_eq!(estimate_n(5, 2), 4); // 5 + 1 - 2
        assert_eq!(estimate_n(0, 0), 1);
        // More drops recorded than sightings estimated: floor at 1.
        assert_eq!(estimate_n(2, 10), 1);
    }

    #[test]
    fn lambda_cold_start_uses_prior() {
        let est = LambdaEstimator::new(0.01, 5);
        assert_eq!(est.lambda(), 0.01);
        assert_eq!(est.sample_count(), 0);
    }

    #[test]
    fn lambda_learns_from_gaps() {
        let mut est = LambdaEstimator::new(1.0, 1);
        let peer = NodeId(7);
        // Contacts at [0,10], [110,120], [220,230]: gaps of 100 each.
        est.on_contact_up(t(0.0), peer);
        est.on_contact_down(t(10.0), peer);
        est.on_contact_up(t(110.0), peer);
        est.on_contact_down(t(120.0), peer);
        est.on_contact_up(t(220.0), peer);
        assert_eq!(est.sample_count(), 2);
        assert!((est.lambda() - 1.0 / 100.0).abs() < 1e-12);
        assert_eq!(est.mean_intermeeting(), Some(100.0));
    }

    #[test]
    fn lambda_tracks_peers_independently() {
        let mut est = LambdaEstimator::new(1.0, 1);
        est.on_contact_down(t(0.0), NodeId(1));
        est.on_contact_down(t(0.0), NodeId(2));
        est.on_contact_up(t(50.0), NodeId(1)); // gap 50
        est.on_contact_up(t(150.0), NodeId(2)); // gap 150
        assert_eq!(est.sample_count(), 2);
        assert!((est.mean_intermeeting().unwrap() - 100.0).abs() < 1e-12);
    }

    #[test]
    fn lambda_first_contact_is_not_a_sample() {
        let mut est = LambdaEstimator::new(0.5, 1);
        est.on_contact_up(t(100.0), NodeId(3));
        assert_eq!(est.sample_count(), 0);
        assert_eq!(est.lambda(), 0.5);
    }

    #[test]
    fn lambda_zero_gap_ignored() {
        let mut est = LambdaEstimator::new(0.5, 1);
        est.on_contact_down(t(10.0), NodeId(3));
        est.on_contact_up(t(10.0), NodeId(3));
        assert_eq!(est.sample_count(), 0);
    }

    #[test]
    fn lambda_recovers_after_peer_crash_with_max_gap() {
        // Regression: a peer that goes silent for a whole reboot used to
        // contribute one enormous intermeeting sample that permanently
        // skewed the running mean. With a staleness cutoff the bogus gap
        // is discarded and λ converges back to the true cadence.
        let mut est = LambdaEstimator::new(1.0 / 2000.0, 1).with_max_gap(1000.0);
        let peer = NodeId(7);
        // Healthy cadence: gaps of 100 s.
        est.on_contact_down(t(0.0), peer);
        est.on_contact_up(t(100.0), peer);
        est.on_contact_down(t(110.0), peer);
        est.on_contact_up(t(210.0), peer);
        est.on_contact_down(t(220.0), peer);
        assert!((est.lambda() - 1.0 / 100.0).abs() < 1e-12);

        // The peer crashes and is silent for 50 000 s. Its reappearance
        // must NOT be sampled (gap 50 000 > cutoff 1000).
        let sampled = est.on_contact_up(t(50_220.0), peer);
        assert!(!sampled, "stale gap must not be a sample");
        assert_eq!(est.sample_count(), 2);
        assert!((est.lambda() - 1.0 / 100.0).abs() < 1e-12);

        // Post-reboot cadence resumes at 100 s: λ stays at the truth.
        est.on_contact_down(t(50_230.0), peer);
        est.on_contact_up(t(50_330.0), peer);
        assert_eq!(est.sample_count(), 3);
        assert!((est.lambda() - 1.0 / 100.0).abs() < 1e-12);

        // Counterfactual without the cutoff: the same history would put
        // a 50 000 s sample in the mean and crater λ.
        let mut skewed = LambdaEstimator::new(1.0 / 2000.0, 1);
        skewed.on_contact_down(t(0.0), peer);
        skewed.on_contact_up(t(100.0), peer);
        skewed.on_contact_down(t(110.0), peer);
        skewed.on_contact_up(t(210.0), peer);
        skewed.on_contact_down(t(220.0), peer);
        skewed.on_contact_up(t(50_220.0), peer);
        assert!(skewed.lambda() < 1.0 / 10_000.0, "bug no longer reproduces");
    }

    #[test]
    fn reset_returns_to_cold_start() {
        let mut est = LambdaEstimator::new(0.01, 2);
        est.on_contact_down(t(0.0), NodeId(1));
        est.on_contact_up(t(50.0), NodeId(1));
        est.on_contact_down(t(60.0), NodeId(1));
        est.on_contact_up(t(110.0), NodeId(1));
        assert_eq!(est.sample_count(), 2);
        assert!((est.lambda() - 1.0 / 50.0).abs() < 1e-12);
        est.reset();
        assert_eq!(est.sample_count(), 0);
        assert_eq!(est.lambda(), 0.01, "prior survives the reset");
        // The pre-crash endpoint is gone: the next contact-up is a first
        // contact, not a bogus crash-spanning gap.
        assert!(!est.on_contact_up(t(5000.0), NodeId(1)));
    }

    #[test]
    fn forget_peer_drops_only_that_peer() {
        let mut est = LambdaEstimator::new(1.0, 2);
        for k in 0..3 {
            est.on_contact_up(t(k as f64 * 100.0), NodeId(1));
            est.on_contact_down(t(k as f64 * 100.0 + 10.0), NodeId(1));
            est.on_contact_up(t(k as f64 * 100.0 + 1.0), NodeId(2));
            est.on_contact_down(t(k as f64 * 100.0 + 11.0), NodeId(2));
        }
        let pooled_before = est.lambda();
        est.forget_peer(NodeId(2));
        // Pooled stats keep absorbed samples; peer 2's history is gone.
        assert_eq!(est.lambda(), pooled_before);
        assert_eq!(est.lambda_for(NodeId(2)), est.lambda());
        assert_ne!(est.lambda_for(NodeId(1)), 0.0);
        // Peer 2's next contact is a first contact again.
        assert!(!est.on_contact_up(t(10_000.0), NodeId(2)));
    }

    proptest! {
        /// The m estimate is monotone in elapsed time and always within
        /// [1, N-1].
        #[test]
        fn prop_m_monotone_and_bounded(
            sprays in prop::collection::vec(0.0f64..1000.0, 0..6),
            now in 1000.0f64..5000.0,
            e_min in 1.0f64..500.0,
        ) {
            let times: Vec<SimTime> = sprays.iter().map(|&s| t(s)).collect();
            let m1 = estimate_m(&times, t(now), e_min, 200);
            let m2 = estimate_m(&times, t(now + 100.0), e_min, 200);
            prop_assert!(m1 >= 1);
            prop_assert!(m1 <= 199);
            prop_assert!(m2 >= m1);
        }

        /// n = m + 1 - d stays >= 1 for all inputs.
        #[test]
        fn prop_n_at_least_one(seen in 0u32..1000, dropped in 0u32..1000) {
            prop_assert!(estimate_n(seen, dropped) >= 1);
        }

        /// Extreme corners never panic or escape the cap: huge elapsed
        /// times, microscopic E(I_min), and degenerate populations
        /// (N ∈ {1, 2}) included.
        #[test]
        fn prop_m_total_at_extremes(
            sprays in prop::collection::vec(0.0f64..100.0, 0..8),
            now in 0.0f64..1e18,
            e_min in 1e-9f64..1e9,
            n_nodes in 1usize..300,
        ) {
            let times: Vec<SimTime> = sprays.iter().map(|&s| t(s)).collect();
            let m = estimate_m(&times, t(now), e_min, n_nodes);
            let cap = n_nodes.saturating_sub(1) as u32;
            prop_assert!(m <= cap);
            if !times.is_empty() || cap >= 1 {
                prop_assert!(m >= 1u32.min(cap));
            }
        }
    }
}
