//! Seeded random scenario generation — one source of truth for the
//! property-based integration tests (`tests/proptest_scenarios.rs`) and
//! the `dtn-fuzz` nightly fuzzer.
//!
//! [`random_scenario`] maps a `u64` seed to a small but fully-valid
//! [`ScenarioConfig`] drawn from the same parameter space the proptests
//! exercise: every generated scenario passes
//! `ScenarioConfig::validate`, so a panic (or invariant violation)
//! under fuzzing is a simulator bug, never a malformed input. The map
//! is deterministic — a failing case is replayed from its seed alone.

use crate::config::{ImmunityMode, PolicyKind, RoutingKind, ScenarioConfig};
use dtn_core::geometry::Rect;
use dtn_core::time::SimDuration;
use dtn_core::units::Bytes;
use dtn_mobility::random_waypoint::RandomWaypointConfig;
use dtn_mobility::MobilityConfig;
use dtn_net::LinkConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Buffer policies the generator draws from (the paper's contenders
/// plus the ablation extras; custom-lambda variants are exercised by
/// the ablation binary instead).
pub const POLICY_POOL: [PolicyKind; 9] = [
    PolicyKind::Fifo,
    PolicyKind::Lifo,
    PolicyKind::TtlRatio,
    PolicyKind::CopiesRatio,
    PolicyKind::Mofo,
    PolicyKind::Shli,
    PolicyKind::Random,
    PolicyKind::Sdsrp,
    PolicyKind::Knapsack,
];

/// Routing substrates the generator draws from.
pub const ROUTING_POOL: [RoutingKind; 6] = [
    RoutingKind::SprayAndWaitBinary,
    RoutingKind::SprayAndWaitSource,
    RoutingKind::Epidemic,
    RoutingKind::Direct,
    RoutingKind::SprayAndFocus {
        handoff_threshold: 30.0,
    },
    RoutingKind::Prophet,
];

/// Immunity mechanisms the generator draws from.
pub const IMMUNITY_POOL: [ImmunityMode; 3] = [
    ImmunityMode::None,
    ImmunityMode::OracleFlood,
    ImmunityMode::AntipacketGossip,
];

/// Deterministically maps `seed` to a random small scenario.
///
/// The returned config always satisfies `ScenarioConfig::validate`
/// (checked by a unit test over a seed sweep): node counts start at 4,
/// buffers always fit the largest message, durations and intervals are
/// strictly positive.
pub fn random_scenario(seed: u64) -> ScenarioConfig {
    // XOR with a fixed tag so `random_scenario(0)` does not start from
    // the all-zero RNG state.
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5d5f_9a11_0c3a_7e01);
    scenario_from_rng(&mut rng, seed)
}

fn scenario_from_rng(rng: &mut StdRng, seed: u64) -> ScenarioConfig {
    let n_nodes = rng.gen_range(4usize..16);
    let duration = rng.gen_range(300.0f64..900.0);
    let policy = POLICY_POOL[rng.gen_range(0..POLICY_POOL.len())];
    let routing = ROUTING_POOL[rng.gen_range(0..ROUTING_POOL.len())];
    let immunity = IMMUNITY_POOL[rng.gen_range(0..IMMUNITY_POOL.len())];
    let copies = rng.gen_range(1u32..24);
    let run_seed = rng.gen_range(1u64..1000);
    let buffer_mb = rng.gen_range(1.0f64..4.0);
    let gen_lo = rng.gen_range(4.0f64..40.0);
    ScenarioConfig {
        name: format!("fuzz-{seed}"),
        n_nodes,
        duration_secs: duration,
        tick_secs: 1.0,
        mobility: MobilityConfig::RandomWaypoint(RandomWaypointConfig {
            area: Rect::from_size(800.0, 600.0),
            min_speed: 1.0,
            max_speed: 3.0,
            min_pause: 0.0,
            max_pause: 10.0,
        }),
        link: LinkConfig::paper(),
        buffer_capacity: Bytes::from_mb(buffer_mb),
        message_size: Bytes::from_mb(0.5),
        gen_interval: (gen_lo, gen_lo + 5.0),
        ttl: SimDuration::from_mins(30.0),
        initial_copies: copies,
        policy,
        routing,
        seed: run_seed,
        oracle: false,
        immunity,
        message_size_max: Some(Bytes::from_mb(0.8)),
        traffic: Default::default(),
        warmup_secs: 0.0,
        faults: Default::default(),
    }
}

/// Deterministically maps `seed` to a random (possibly empty) fault
/// plan for churn fuzzing. Uses its own RNG (distinct XOR tag), so
/// attaching a plan to [`random_scenario`]`(seed)` does not disturb the
/// pinned draw sequence that makes fuzz cases replayable from their
/// seed alone. Every feature is enabled independently with probability
/// 1/2, so the fuzzer also keeps covering partial and empty plans;
/// the result always satisfies `FaultPlan::validate`.
pub fn random_fault_plan(seed: u64) -> crate::config::FaultPlan {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7c1e_44d2_93ab_06f5);
    let mut plan = crate::config::FaultPlan::default();
    if rng.gen_bool(0.5) {
        plan.crash_rate_per_hour = rng.gen_range(0.5f64..8.0);
        plan.reboot_secs = rng.gen_range(10.0f64..120.0);
    }
    if rng.gen_bool(0.5) {
        plan.blackout_rate_per_hour = rng.gen_range(0.5f64..8.0);
        plan.blackout_secs = rng.gen_range(5.0f64..60.0);
    }
    if rng.gen_bool(0.5) {
        plan.transfer_abort_prob = rng.gen_range(0.01f64..0.3);
    }
    if rng.gen_bool(0.5) {
        plan.clock_skew_max_secs = rng.gen_range(1.0f64..30.0);
    }
    plan
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_is_deterministic() {
        for seed in [0u64, 1, 42, 9999] {
            assert_eq!(random_scenario(seed), random_scenario(seed));
        }
        assert_ne!(random_scenario(1), random_scenario(2));
    }

    #[test]
    fn generated_scenarios_are_always_valid() {
        for seed in 0..200 {
            let cfg = random_scenario(seed);
            cfg.validate().unwrap(); // fails on any malformed field
            assert!(cfg.n_nodes >= 4);
            assert!(cfg.message_size <= cfg.buffer_capacity);
            assert!(cfg.gen_interval.0 < cfg.gen_interval.1);
            assert_eq!(cfg.name, format!("fuzz-{seed}"));
        }
    }

    #[test]
    fn fault_plan_generator_is_deterministic_valid_and_independent() {
        for seed in [0u64, 1, 42, 9999] {
            assert_eq!(random_fault_plan(seed), random_fault_plan(seed));
        }
        for seed in 0..200 {
            random_fault_plan(seed).validate().unwrap();
        }
        // Attaching a fault plan must not change the scenario draws.
        for seed in [3u64, 77] {
            let mut with = random_scenario(seed);
            with.faults = random_fault_plan(seed);
            with.faults = Default::default();
            assert_eq!(with, random_scenario(seed));
        }
    }

    #[test]
    fn fault_plan_generator_covers_empty_partial_and_full_plans() {
        let mut empty = 0;
        let mut full = 0;
        let mut partial = 0;
        for seed in 0..200 {
            let p = random_fault_plan(seed);
            let features = [
                p.crash_rate_per_hour > 0.0,
                p.blackout_rate_per_hour > 0.0,
                p.transfer_abort_prob > 0.0,
                p.clock_skew_max_secs > 0.0,
            ]
            .iter()
            .filter(|&&f| f)
            .count();
            match features {
                0 => empty += 1,
                4 => full += 1,
                _ => partial += 1,
            }
        }
        assert!(empty > 0, "empty plans must stay in the fuzz corpus");
        assert!(full > 0);
        assert!(partial > 0);
    }

    #[test]
    fn generator_covers_the_policy_and_routing_pools() {
        use std::collections::HashSet;
        let mut policies = HashSet::new();
        let mut routings = HashSet::new();
        for seed in 0..300 {
            let cfg = random_scenario(seed);
            policies.insert(cfg.policy.label().to_string());
            routings.insert(format!("{:?}", cfg.routing));
        }
        assert_eq!(policies.len(), POLICY_POOL.len(), "policies: {policies:?}");
        assert_eq!(routings.len(), ROUTING_POOL.len(), "routings: {routings:?}");
    }
}
