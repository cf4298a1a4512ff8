//! Thread-count differential battery: the parallel world core must be
//! invisible in results. Every scenario class the simulator models —
//! the headline smoke configuration, the paper's buffer-pressure
//! regime, fault/churn injection and a 2 000-node grid — is run at 1,
//! 2, 4 and 8 intra-run threads and the integer run fingerprints
//! (report counters + full `SimEvent` totals) must agree bit-for-bit.
//!
//! The property section drives the same guarantee across the random
//! scenario space: phase-decomposed parallel stepping must produce
//! byte-identical event totals and equal `ValidationReport`s vs the
//! serial path, and the rearm walk over the live links must be a
//! function of the link *set*, never of contact history.

use proptest::prelude::*;
use sdsrp::core::ids::{NodeId, NodePair};
use sdsrp::sim::config::{presets, FaultPlan, PolicyKind, ScenarioConfig};
use sdsrp::sim::replay::{differential_world_threads, fingerprint_at_threads, rearm_walk_after};
use sdsrp::sim::scenario_gen::{random_fault_plan, random_scenario};
use sdsrp::sim::world::{RunOutput, World};
use sdsrp::validate::ValidateConfig;
use std::collections::BTreeSet;

const THREAD_BATTERY: &[usize] = &[1, 2, 4, 8];

/// The pinned golden scenario, shortened so the battery's four runs
/// stay inside tier-1 budget (the full-length threaded check lives in
/// `golden_headline.rs`).
fn headline_short() -> ScenarioConfig {
    let mut cfg = presets::smoke();
    cfg.policy = PolicyKind::Sdsrp;
    cfg.seed = 42;
    cfg.duration_secs = 1_200.0;
    cfg
}

/// The paper's small-buffer congestion regime: eviction ranking and
/// incoming rejection dominate, exercising the admission paths under
/// parallel contact detection.
fn buffer_pressure() -> ScenarioConfig {
    let mut cfg = presets::smoke();
    cfg.name = "buffer-pressure".into();
    cfg.policy = PolicyKind::Sdsrp;
    cfg.seed = 42;
    cfg.n_nodes = 60;
    cfg.duration_secs = 900.0;
    cfg.gen_interval = (8.0, 12.0);
    cfg.buffer_capacity = sdsrp::core::units::Bytes::new(1_500_000);
    cfg
}

/// Heavy churn: crashes, blackouts, injected aborts and clock skew all
/// active. The hardest case for the parallel movement phase, which must
/// keep per-node RNG streams on schedule through sentinel parking.
fn fault_churn() -> ScenarioConfig {
    let mut cfg = presets::smoke();
    cfg.name = "fault-churn".into();
    cfg.policy = PolicyKind::Sdsrp;
    cfg.seed = 13;
    cfg.duration_secs = 1_200.0;
    cfg.faults = FaultPlan {
        crash_rate_per_hour: 3.0,
        reboot_secs: 120.0,
        blackout_rate_per_hour: 3.0,
        blackout_secs: 60.0,
        transfer_abort_prob: 0.05,
        clock_skew_max_secs: 2.0,
    };
    cfg
}

/// A large world at smoke-playground node density (40 nodes per
/// 2000 x 1500 m): the parallel phases (movement sampling and the
/// contact-grid query) dominate the tick and every thread band holds
/// hundreds of nodes.
fn large_grid() -> ScenarioConfig {
    use sdsrp::mobility::random_waypoint::RandomWaypointConfig;
    let mut cfg = presets::smoke();
    cfg.name = "large-grid".into();
    cfg.policy = PolicyKind::Sdsrp;
    cfg.seed = 42;
    cfg.n_nodes = 2_000;
    let scale = (cfg.n_nodes as f64 / 40.0).sqrt();
    cfg.mobility = sdsrp::mobility::MobilityConfig::RandomWaypoint(RandomWaypointConfig {
        area: sdsrp::core::geometry::Rect::from_size(2_000.0 * scale, 1_500.0 * scale),
        min_speed: 2.0,
        max_speed: 2.0,
        min_pause: 0.0,
        max_pause: 0.0,
    });
    cfg.duration_secs = 120.0;
    cfg.gen_interval = (30.0, 40.0);
    cfg
}

#[test]
fn headline_fingerprint_is_thread_count_invariant() {
    let diffs = differential_world_threads(&headline_short(), THREAD_BATTERY);
    assert!(diffs.is_empty(), "headline diverged:\n{}", diffs.join("\n"));
}

#[test]
fn buffer_pressure_fingerprint_is_thread_count_invariant() {
    let diffs = differential_world_threads(&buffer_pressure(), THREAD_BATTERY);
    assert!(
        diffs.is_empty(),
        "buffer-pressure diverged:\n{}",
        diffs.join("\n")
    );
}

#[test]
fn fault_churn_fingerprint_is_thread_count_invariant() {
    let diffs = differential_world_threads(&fault_churn(), THREAD_BATTERY);
    assert!(
        diffs.is_empty(),
        "fault/churn diverged:\n{}",
        diffs.join("\n")
    );
}

#[test]
fn large_grid_fingerprint_is_thread_count_invariant() {
    let diffs = differential_world_threads(&large_grid(), THREAD_BATTERY);
    assert!(
        diffs.is_empty(),
        "large grid diverged:\n{}",
        diffs.join("\n")
    );
}

/// The battery scenarios must actually exercise what they claim: the
/// fault run injects churn, the pressure run drops messages.
#[test]
fn battery_scenarios_are_not_vacuous() {
    let pressure = fingerprint_at_threads(&buffer_pressure(), 2);
    assert!(
        pressure.buffer_drops + pressure.incoming_rejects > 0,
        "buffer-pressure scenario never hit buffer pressure"
    );
    let churn = fingerprint_at_threads(&fault_churn(), 2);
    assert!(
        churn.events.node_crashes > 0,
        "fault scenario never crashed a node"
    );
    assert!(
        churn.events.blackouts > 0,
        "fault scenario never blacked out a radio"
    );
}

proptest! {
    // Each case is 2 (or 3) full small simulations: keep the count low.
    #![proptest_config(ProptestConfig {
        cases: 8,
        max_shrink_iters: 0,
        ..ProptestConfig::default()
    })]

    /// Random small scenarios (the shared `dtn-fuzz` generator space):
    /// phase-decomposed parallel stepping is byte-identical to the
    /// serial path — same report counters, same `SimEvent` totals.
    #[test]
    fn random_scenarios_are_thread_count_invariant(seed in 0u64..1_000_000) {
        let cfg = random_scenario(seed);
        let serial = fingerprint_at_threads(&cfg, 1);
        let parallel = fingerprint_at_threads(&cfg, 4);
        prop_assert_eq!(serial.to_canonical_json(), parallel.to_canonical_json());
    }

    /// Same guarantee under full invariant checking with fault churn:
    /// the `ValidationReport`s (violations, fault ledger, estimator
    /// error statistics — float-accumulated in sweep order) are equal.
    #[test]
    fn random_fault_scenarios_validate_identically(seed in 0u64..1_000_000) {
        let mut cfg = random_scenario(seed);
        cfg.faults = random_fault_plan(seed);
        let run = |threads: usize| {
            let mut world = World::build(&cfg);
            world.set_threads(threads);
            world.enable_validation(ValidateConfig::default());
            let RunOutput { report, recorder, validation, .. } = world.finish();
    let validation = validation.expect("validation enabled");
            let fp = sdsrp::sim::replay::fingerprint(&report, recorder.totals());
            (fp, validation)
        };
        let (fp_serial, val_serial) = run(1);
        let (fp_parallel, val_parallel) = run(4);
        prop_assert!(
            val_serial.ok(),
            "serial run violated invariants:\n{}", val_serial.summary()
        );
        prop_assert_eq!(fp_serial, fp_parallel);
        prop_assert_eq!(val_serial, val_parallel);
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 64,
        ..ProptestConfig::default()
    })]

    /// The rearm walk — which decides the order of same-instant
    /// transfer starts — must be a pure function of the live link
    /// *set*. Feed the same pairs through a world's contact handlers in
    /// two histories: plain contact ups in draw order, and ups in
    /// another order around short-lived contacts and down-then-up
    /// flaps (which reorder the per-node peer lists). Both walks must
    /// list exactly the live links touching the woken nodes, sorted.
    #[test]
    fn link_table_order_is_insertion_invariant(
        raw in prop::collection::vec((0u32..50, 0u32..50), 1..40),
        transient_raw in prop::collection::vec((0u32..50, 0u32..50), 0..10),
        woken_raw in prop::collection::vec(0u32..50, 1..20),
        rotate in 0usize..40,
    ) {
        let pair = |&(a, b): &(u32, u32)| (a != b).then(|| NodePair::new(NodeId(a), NodeId(b)));
        let mut live = BTreeSet::new();
        let pairs: Vec<NodePair> = raw.iter().filter_map(pair).filter(|&p| live.insert(p)).collect();
        if pairs.is_empty() {
            // Degenerate draw (all self-pairs); nothing to check.
            return Ok(());
        }
        let mut seen = live.clone();
        let transient: Vec<NodePair> =
            transient_raw.iter().filter_map(pair).filter(|&p| seen.insert(p)).collect();

        let mut permuted = pairs.clone();
        let rot = rotate % permuted.len();
        permuted.rotate_left(rot);
        permuted.reverse();

        let plain: Vec<(NodePair, bool)> = pairs.iter().map(|&p| (p, true)).collect();
        let mut churned: Vec<(NodePair, bool)> = transient.iter().map(|&p| (p, true)).collect();
        churned.extend(permuted.iter().map(|&p| (p, true)));
        churned.extend(transient.iter().map(|&p| (p, false)));
        for &p in permuted.iter().step_by(2) {
            churned.extend([(p, false), (p, true)]);
        }

        let mut cfg = presets::smoke();
        cfg.n_nodes = 50;
        let woken: Vec<NodeId> = woken_raw.iter().map(|&n| NodeId(n)).collect();
        let walk_a = rearm_walk_after(&cfg, &plain, &woken);
        let walk_b = rearm_walk_after(&cfg, &churned, &woken);
        let expected: Vec<NodePair> = live
            .into_iter()
            .filter(|p| woken.contains(&p.lo()) || woken.contains(&p.hi()))
            .collect();
        prop_assert_eq!(&walk_a, &expected);
        prop_assert_eq!(&walk_b, &expected);
    }
}
