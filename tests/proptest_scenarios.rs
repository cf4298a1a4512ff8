//! Property-based integration tests: random small scenarios must uphold
//! the simulator's global invariants — no panics, conserved counters,
//! bit-exact determinism.

use proptest::prelude::*;
use sdsrp::sim::config::ScenarioConfig;
use sdsrp::sim::scenario_gen::random_scenario;
use sdsrp::sim::world::World;

/// Scenarios come from the shared seeded generator (the same one the
/// `dtn-fuzz` nightly uses): proptest explores the generator's `u64`
/// seed space, and any failure replays from that seed alone via
/// `dtn-fuzz --cells 1 --seed N`.
fn scenario_strategy() -> impl Strategy<Value = ScenarioConfig> {
    (0u64..1_000_000).prop_map(random_scenario)
}

proptest! {
    // Each case is a full (small) simulation: keep the count modest.
    #![proptest_config(ProptestConfig {
        cases: 12,
        max_shrink_iters: 0,
        ..ProptestConfig::default()
    })]

    #[test]
    fn random_scenarios_uphold_invariants(cfg in scenario_strategy()) {
        let r = World::build(&cfg).run();
        prop_assert!(r.delivered() <= r.created());
        prop_assert!(r.delivered_events() >= r.delivered());
        prop_assert!(r.transmissions() >= r.delivered_events());
        prop_assert!((0.0..=1.0).contains(&r.delivery_ratio()));
        prop_assert!(r.overhead_ratio() >= 0.0);
        if r.delivered() > 0 {
            prop_assert!(r.avg_hopcount() >= 1.0);
        }
    }

    #[test]
    fn random_scenarios_are_deterministic(cfg in scenario_strategy()) {
        let a = World::build(&cfg).run();
        let b = World::build(&cfg).run();
        prop_assert_eq!(a.created(), b.created());
        prop_assert_eq!(a.delivered(), b.delivered());
        prop_assert_eq!(a.transmissions(), b.transmissions());
        prop_assert_eq!(a.buffer_drops(), b.buffer_drops());
    }

    #[test]
    fn random_scenarios_pass_invariant_checking(cfg in scenario_strategy()) {
        // The dtn-validate checkers re-derive world state independently;
        // a violation on any random scenario is a simulator bug.
        let mut world = World::build(&cfg);
        world.enable_validation(sdsrp::validate::ValidateConfig::default());
        let validation = world.finish().validation.expect("validation enabled");
        prop_assert!(
            validation.ok(),
            "invariant violations:\n{}", validation.summary()
        );
        prop_assert!(validation.sweeps > 0);
    }
}

// ---------------------------------------------------------------------
// Eq. 10 priority-shape properties
//
// The paper's U_i = (1-P(T)) λ A e^{-λ n A} is NOT monotone in the
// remaining TTL R: it rises while the exposure A(R) is short of the
// optimum 1/(λ n) (peak at P(R) = 1 - 1/e) and falls beyond it. A(R) =
// (l+1) R - corr with l = log2(C) and corr = l(l+1)/(2(N-1)λ), so the
// analytic peak sits at R* = (1/(λ n) + corr)/(l+1).
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 64,
        ..ProptestConfig::default()
    })]

    #[test]
    fn priority_is_unimodal_in_remaining_ttl(
        n_nodes in 3usize..200,
        lambda_inv in 100.0f64..10_000.0, // E(I) seconds
        holders in 1u32..64,
        copies in 1u32..128,
    ) {
        use sdsrp::sdsrp::priority::log2_copies;
        use sdsrp::sdsrp::PriorityModel;

        let m = PriorityModel::new(n_nodes, 1.0 / lambda_inv);
        let l = log2_copies(copies);
        let corr = l * (l + 1.0) / (2.0 * (n_nodes as f64 - 1.0) * m.lambda);
        // A(R*) = 1/(λ n) maximises a e^{-λ n a}; invert A to get R*.
        let r_star = (1.0 / (m.lambda * holders as f64) + corr) / (l + 1.0);
        let r_zero = corr / (l + 1.0); // A(R) = 0 below this

        // Strictly increasing on (r_zero, r_star].
        let lo = r_zero + 1e-6 * r_star.max(1.0);
        let mut last = f64::NEG_INFINITY;
        for k in 0..=20 {
            let r = lo + (r_star - lo) * k as f64 / 20.0;
            let u = m.log_priority(0, holders, copies, r);
            prop_assert!(!u.is_nan());
            prop_assert!(u >= last - 1e-9, "not increasing below peak at R={r}");
            last = u;
        }
        // Strictly decreasing on [r_star, 10 r_star].
        let mut last = f64::INFINITY;
        for k in 0..=20 {
            let r = r_star * (1.0 + 9.0 * k as f64 / 20.0);
            let u = m.log_priority(0, holders, copies, r);
            prop_assert!(!u.is_nan());
            prop_assert!(u <= last + 1e-9, "not decreasing above peak at R={r}");
            last = u;
        }
        // The analytic peak beats both flanks outright.
        let u_peak = m.log_priority(0, holders, copies, r_star);
        prop_assert!(u_peak >= m.log_priority(0, holders, copies, r_star * 0.5) - 1e-9);
        prop_assert!(u_peak >= m.log_priority(0, holders, copies, r_star * 2.0) - 1e-9);
    }

    #[test]
    fn priority_is_nonincreasing_in_seen(
        n_nodes in 3usize..200,
        lambda_inv in 100.0f64..10_000.0,
        holders in 1u32..64,
        copies in 1u32..128,
        ttl in 1.0f64..50_000.0,
    ) {
        let m = sdsrp::sdsrp::PriorityModel::new(n_nodes, 1.0 / lambda_inv);
        let mut last = f64::INFINITY;
        for seen in 0..n_nodes as u32 {
            let u = m.log_priority(seen, holders, copies, ttl);
            prop_assert!(!u.is_nan());
            prop_assert!(u <= last + 1e-9, "priority rose at m_i={seen}");
            last = u;
        }
        // Seen by everyone -> no residual utility at all.
        prop_assert_eq!(
            m.log_priority(n_nodes as u32 - 1, holders, copies, ttl),
            f64::NEG_INFINITY
        );
    }

    #[test]
    fn priority_is_finite_and_nonnegative_everywhere(
        n_nodes in 3usize..200,
        lambda_inv in 100.0f64..10_000.0,
        seen in 0u32..256,
        holders in 0u32..256,
        copies in 1u32..256,
        ttl in 0.0f64..100_000.0,
    ) {
        let m = sdsrp::sdsrp::PriorityModel::new(n_nodes, 1.0 / lambda_inv);
        let u = m.priority(seen, holders, copies, ttl);
        prop_assert!(u.is_finite());
        prop_assert!(u >= 0.0);
        // The log form may be -inf (zero utility) but never NaN.
        prop_assert!(!m.log_priority(seen, holders, copies, ttl).is_nan());
    }
}
