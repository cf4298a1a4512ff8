use super::*;
use crate::config::{presets, PolicyKind, RoutingKind};
use dtn_buffer::policy::BufferPolicy;
use dtn_buffer::view::MessageView;
use dtn_core::units::Bytes;
use dtn_mobility::MobilityConfig;

/// Two stationary nodes in range: a message generated at one must be
/// delivered to the other by direct contact.
fn tiny_two_node(policy: PolicyKind) -> ScenarioConfig {
    ScenarioConfig {
        name: "two-node".into(),
        n_nodes: 2,
        duration_secs: 300.0,
        tick_secs: 1.0,
        mobility: MobilityConfig::Stationary {
            positions: vec![(0.0, 0.0), (50.0, 0.0)],
        },
        link: dtn_net::LinkConfig::paper(),
        buffer_capacity: Bytes::from_mb(2.5),
        message_size: Bytes::from_mb(0.5),
        gen_interval: (50.0, 50.0),
        ttl: SimDuration::from_mins(300.0),
        initial_copies: 4,
        policy,
        routing: RoutingKind::SprayAndWaitBinary,
        seed: 7,
        oracle: false,
        immunity: crate::config::ImmunityMode::None,
        message_size_max: None,
        traffic: Default::default(),
        warmup_secs: 0.0,
        faults: Default::default(),
    }
}

#[test]
fn two_nodes_in_range_deliver_everything() {
    let report = World::build(&tiny_two_node(PolicyKind::Fifo)).run();
    assert!(report.created() >= 5, "created {}", report.created());
    // Source and destination are drawn from {0, 1}: every message's
    // destination is the other node and is permanently in range. A
    // message generated in the last 16 s (one transfer time) may not
    // finish before the simulation ends.
    assert!(
        report.delivered() >= report.created() - 1,
        "delivered {} of {}",
        report.delivered(),
        report.created()
    );
    assert_eq!(report.avg_hopcount(), 1.0);
}

#[test]
fn out_of_range_nodes_never_deliver() {
    let mut cfg = tiny_two_node(PolicyKind::Fifo);
    cfg.mobility = MobilityConfig::Stationary {
        positions: vec![(0.0, 0.0), (5000.0, 0.0)],
    };
    let report = World::build(&cfg).run();
    assert!(report.created() > 0);
    assert_eq!(report.delivered(), 0);
    assert_eq!(report.transmissions(), 0);
}

#[test]
fn delivery_ratio_reasonable_on_smoke_scenario() {
    let mut cfg = presets::smoke();
    cfg.policy = PolicyKind::Sdsrp;
    let report = World::build(&cfg).run();
    assert!(report.created() > 50, "created {}", report.created());
    let ratio = report.delivery_ratio();
    assert!(
        (0.05..=1.0).contains(&ratio),
        "implausible delivery ratio {ratio}"
    );
    assert!(report.transmissions() > 0);
    assert!(report.avg_hopcount() >= 1.0);
}

#[test]
fn deterministic_given_seed() {
    let run = |seed: u64| {
        let mut cfg = presets::smoke();
        cfg.duration_secs = 1200.0;
        cfg.seed = seed;
        let r = World::build(&cfg).run();
        (
            r.created(),
            r.delivered(),
            r.transmissions(),
            r.buffer_drops(),
        )
    };
    assert_eq!(run(5), run(5));
    assert_ne!(run(5), run(6));
}

#[test]
fn all_policies_run_the_smoke_scenario() {
    for policy in [
        PolicyKind::Fifo,
        PolicyKind::Lifo,
        PolicyKind::TtlRatio,
        PolicyKind::CopiesRatio,
        PolicyKind::Mofo,
        PolicyKind::Shli,
        PolicyKind::Random,
        PolicyKind::Sdsrp,
    ] {
        let mut cfg = presets::smoke();
        cfg.duration_secs = 900.0;
        cfg.policy = policy;
        let report = World::build(&cfg).run();
        assert!(report.created() > 0, "{policy:?} created nothing");
    }
}

#[test]
fn oracle_mode_runs_and_matches_structure() {
    let mut cfg = presets::smoke();
    cfg.duration_secs = 900.0;
    cfg.policy = PolicyKind::SdsrpOracle { lambda: 1e-3 };
    cfg.oracle = true;
    let report = World::build(&cfg).run();
    assert!(report.created() > 0);
}

#[test]
fn epidemic_and_direct_bracket_spray_and_wait() {
    // Multi-copy schemes beat direct delivery, and epidemic floods
    // far more transmissions. (Epidemic vs Spray-and-Wait delivery
    // can go either way here because the 250 kbps link — 16 s per
    // message — makes contact *bandwidth* the bottleneck, which is
    // exactly the congestion regime the paper targets.)
    let mk = |routing: RoutingKind| {
        let mut cfg = presets::smoke();
        cfg.duration_secs = 2400.0;
        cfg.buffer_capacity = Bytes::from_mb(50.0);
        cfg.policy = PolicyKind::Fifo;
        cfg.routing = routing;
        World::build(&cfg).run()
    };
    let epidemic = mk(RoutingKind::Epidemic);
    let saw = mk(RoutingKind::SprayAndWaitBinary);
    let direct = mk(RoutingKind::Direct);
    assert!(
        epidemic.delivery_ratio() > direct.delivery_ratio(),
        "flooding should beat direct delivery: {} vs {}",
        epidemic.delivery_ratio(),
        direct.delivery_ratio()
    );
    assert!(
        saw.delivery_ratio() > direct.delivery_ratio(),
        "spray-and-wait should beat direct delivery"
    );
    assert!(
        epidemic.transmissions() > saw.transmissions(),
        "epidemic should transmit more than token-limited SAW"
    );
    assert_eq!(direct.overhead_ratio(), 0.0, "direct has zero overhead");
}

#[test]
fn constrained_buffers_force_drops() {
    let mut cfg = presets::smoke();
    cfg.buffer_capacity = Bytes::from_mb(1.0); // two messages max
    cfg.gen_interval = (5.0, 10.0);
    cfg.policy = PolicyKind::Fifo;
    let report = World::build(&cfg).run();
    assert!(
        report.buffer_drops() + report.incoming_rejects() > 0,
        "no buffer pressure despite tiny buffers"
    );
}

#[test]
fn contact_trace_recording() {
    let mut cfg = presets::smoke();
    cfg.duration_secs = 1200.0;
    let mut world = World::build(&cfg);
    world.enable_contact_recording();
    let trace = world.finish().contacts.expect("recording enabled");
    assert!(!trace.is_empty(), "no contacts recorded");
    assert_eq!(trace.open_count(), 0, "unclosed contacts at end");
}

#[test]
fn ttl_expiry_purges_copies() {
    let mut cfg = tiny_two_node(PolicyKind::Fifo);
    // Nodes out of range: copies can only die by TTL.
    cfg.mobility = MobilityConfig::Stationary {
        positions: vec![(0.0, 0.0), (5000.0, 0.0)],
    };
    cfg.ttl = SimDuration::from_secs(60.0);
    cfg.duration_secs = 600.0;
    let report = World::build(&cfg).run();
    assert!(report.expirations() > 0);
}

#[test]
fn spray_and_focus_runs() {
    let mut cfg = presets::smoke();
    cfg.duration_secs = 1200.0;
    cfg.routing = RoutingKind::SprayAndFocus {
        handoff_threshold: 60.0,
    };
    let report = World::build(&cfg).run();
    assert!(report.created() > 0);
}

#[test]
fn flapping_contact_aborts_transfers() {
    // Node 0 parked at the origin; node 1 oscillates between x = 60
    // (in range) and x = 150 (out of range) every 30 s, so contacts
    // last ~27 s against a 16 s transfer time: some transfers finish,
    // others are cut off mid-flight and must abort cleanly.
    let mut body = String::from("0 0 0 0\n");
    for k in 0..100 {
        let t = k as f64 * 30.0;
        let x = if k % 2 == 0 { 60.0 } else { 150.0 };
        body.push_str(&format!("1 {t} {x} 0\n"));
    }
    let mut cfg = presets::smoke();
    cfg.name = "flapping".into();
    cfg.n_nodes = 2;
    cfg.duration_secs = 2900.0;
    cfg.mobility = MobilityConfig::TraceText { body };
    cfg.gen_interval = (20.0, 30.0);
    cfg.initial_copies = 2;
    cfg.policy = PolicyKind::Fifo;
    cfg.seed = 5;
    let r = World::build(&cfg).run();
    assert!(r.created() > 50);
    assert!(r.delivered() > 0, "no delivery despite periodic contact");
    assert!(
        r.aborted_transfers() > 0,
        "no transfer was ever cut off by the flapping contact"
    );
    // Aborted transfers never count as transmissions.
    assert!(r.transmissions() >= r.delivered());
}

#[test]
fn single_slot_buffers_still_deliver() {
    // Buffer = exactly one message: every admission is an eviction
    // battle. The system must stay consistent and still deliver.
    let mut cfg = presets::smoke();
    cfg.duration_secs = 2000.0;
    cfg.buffer_capacity = Bytes::from_mb(0.5);
    cfg.message_size = Bytes::from_mb(0.5);
    cfg.policy = PolicyKind::Sdsrp;
    cfg.seed = 9;
    let r = World::build(&cfg).run();
    assert!(r.created() > 0);
    assert!(
        r.buffer_drops() + r.incoming_rejects() > 0,
        "single-slot buffers must churn"
    );
    assert!(r.delivery_ratio() > 0.0, "nothing delivered at all");
}

#[test]
fn warmup_excludes_early_messages_from_metrics() {
    let mut cfg = presets::smoke();
    cfg.duration_secs = 2000.0;
    cfg.seed = 3;
    let cold = World::build(&cfg).run();

    let mut warm_cfg = cfg.clone();
    warm_cfg.warmup_secs = 600.0;
    let warm = World::build(&warm_cfg).run();

    // Warm-up removes roughly 600/2000 of the generated messages
    // from the count, while the simulation itself is unchanged.
    assert!(warm.created() < cold.created());
    assert!(warm.created() > 0);
    assert!(warm.delivered() <= warm.created());
    // Transmissions of uncounted messages are excluded too, so the
    // overhead ratio stays well-defined (not inflated by ghosts).
    assert!(warm.transmissions() < cold.transmissions());
    // With warmup = 0 the default behaviour is bit-identical to the
    // paper configuration.
    let zero = World::build(&cfg).run();
    assert_eq!(zero.created(), cold.created());
    assert_eq!(zero.transmissions(), cold.transmissions());
}

#[test]
#[should_panic(expected = "warm-up must lie within the run")]
fn warmup_longer_than_run_rejected() {
    let mut cfg = presets::smoke();
    cfg.warmup_secs = cfg.duration_secs + 1.0;
    cfg.validate().unwrap();
}

#[test]
fn step_until_equals_one_shot_run() {
    let mut cfg = presets::smoke();
    // Not a whole number of ticks: stepping to the end moves the clock
    // past the last event, and the closing sweep must still run at the
    // clock of that event, as a one-shot run's does.
    cfg.duration_secs = 1000.5;
    cfg.seed = 8;
    let instrumented = || {
        let mut world = World::build(&cfg);
        world.attach_recorder(Recorder::enabled(1 << 16));
        world.enable_validation(ValidateConfig {
            sample_every: 0.0,
            ..ValidateConfig::default()
        });
        world.enable_contact_recording();
        world.enable_timeseries(30.0);
        world
    };
    let mut oneshot = instrumented().finish();

    let mut stepped = instrumented();
    let mut total_events = 0;
    for k in 1..=10 {
        total_events += stepped.step_until(SimTime::from_secs(k as f64 * 100.0));
        assert_eq!(stepped.now(), SimTime::from_secs(k as f64 * 100.0));
    }
    assert!(total_events > 0);
    let end = SimTime::from_secs(cfg.duration_secs);
    assert_eq!(stepped.step_until(end), 0, "an event in the last half tick");
    assert_eq!(stepped.now(), end);
    assert_eq!(stepped.report().created(), oneshot.report.created());
    assert_eq!(stepped.report().delivered(), oneshot.report.delivered());
    assert_eq!(
        stepped.report().transmissions(),
        oneshot.report.transmissions()
    );
    // Inspection accessors are consistent.
    let buffered: usize = (0..cfg.n_nodes)
        .map(|i| stepped.buffered_count(NodeId(i as u32)))
        .sum();
    assert!(buffered > 0, "no copies live at the end of a busy run");
    let _ = stepped.live_contacts();

    let mut split = stepped.finish();
    let validation = split.validation.as_ref().expect("validation enabled");
    assert!(validation.ok(), "{}", validation.summary());
    assert_eq!(split.validation, oneshot.validation);
    let trace_len = |out: &RunOutput| out.contacts.as_ref().map(ContactTrace::len);
    assert!(trace_len(&split) > Some(0));
    assert_eq!(trace_len(&split), trace_len(&oneshot));
    let csv = |out: &mut RunOutput| out.recorder.take_timeseries().map(|ts| ts.to_csv());
    assert_eq!(csv(&mut split), csv(&mut oneshot));
    // Every event, the closing sweep's estimator sample included.
    let (split_ring, oneshot_ring) = (split.recorder.ring(), oneshot.recorder.ring());
    assert_eq!(split_ring.overwritten(), 0);
    assert!(split_ring.iter().eq(oneshot_ring.iter()));
    // That sweep ran at the clock of the last event, not at the end.
    match oneshot_ring.iter().last() {
        Some(SimEvent::EstimatorSample { t, .. }) => assert!(*t < cfg.duration_secs),
        other => panic!("closing sweep sampled nothing: {other:?}"),
    }
}

#[test]
fn poisson_traffic_matches_uniform_rate() {
    use crate::config::TrafficModel;
    let run = |traffic: TrafficModel| {
        let mut cfg = presets::smoke();
        cfg.duration_secs = 3000.0;
        cfg.traffic = traffic;
        cfg.seed = 6;
        World::build(&cfg).run().created()
    };
    let uniform = run(TrafficModel::Uniform) as f64;
    let poisson = run(TrafficModel::Poisson) as f64;
    // Same mean rate: counts within ~25% of each other.
    assert!(
        (uniform - poisson).abs() / uniform < 0.25,
        "uniform {uniform} vs poisson {poisson}"
    );
}

#[test]
fn timeseries_records_buffer_pressure() {
    let mut cfg = presets::smoke();
    cfg.duration_secs = 1500.0;
    cfg.gen_interval = (8.0, 12.0);
    let mut world = World::build(&cfg);
    world.enable_timeseries(30.0);
    let RunOutput {
        report,
        mut recorder,
        ..
    } = world.finish();
    let ts = recorder.take_timeseries().expect("time series enabled");
    assert!(report.created() > 0);
    assert!(ts.len() >= 1500 / 30, "too few samples: {}", ts.len());
    // Occupancy must become non-trivial under this load.
    assert!(ts.peak_mean_occupancy() > 0.1);
    // Samples are time-ordered and within the run.
    for w in ts.points().windows(2) {
        assert!(w[1].t > w[0].t);
    }
    assert!(ts.points().last().unwrap().t <= 1500.0);
    let csv = ts.to_csv();
    assert!(csv.lines().count() == ts.len() + 1);
}

#[test]
fn immunity_modes_cut_circulating_copies() {
    use crate::config::ImmunityMode;
    let run = |immunity: ImmunityMode| {
        let mut cfg = presets::smoke();
        cfg.duration_secs = 2000.0;
        cfg.policy = PolicyKind::Fifo;
        cfg.immunity = immunity;
        cfg.seed = 4;
        World::build(&cfg).run()
    };
    let none = run(ImmunityMode::None);
    let flood = run(ImmunityMode::OracleFlood);
    let gossip = run(ImmunityMode::AntipacketGossip);

    assert_eq!(none.immunity_purges(), 0, "paper mode must never purge");
    assert!(flood.immunity_purges() > 0, "oracle flood never purged");
    assert!(gossip.immunity_purges() > 0, "antipackets never purged");
    // Purging delivered messages frees bandwidth/buffers: overhead
    // must not increase.
    assert!(
        flood.overhead_ratio() <= none.overhead_ratio() + 1e-9,
        "oracle immunity raised overhead: {} vs {}",
        flood.overhead_ratio(),
        none.overhead_ratio()
    );
    // And no duplicate deliveries are possible under oracle flood.
    assert_eq!(flood.delivered_events(), flood.delivered());
}

#[test]
fn heterogeneous_message_sizes_run_with_knapsack() {
    let mut cfg = presets::smoke();
    cfg.duration_secs = 1500.0;
    cfg.message_size = Bytes::from_mb(0.2);
    cfg.message_size_max = Some(Bytes::from_mb(1.0));
    cfg.policy = PolicyKind::Knapsack;
    cfg.seed = 2;
    let r = World::build(&cfg).run();
    assert!(r.created() > 0);
    assert!(r.delivery_ratio() > 0.0, "knapsack delivered nothing");
}

#[test]
fn knapsack_matches_greedy_on_uniform_sizes_roughly() {
    // With the paper's uniform 0.5 MB messages the set-wise and
    // greedy rules should land in the same ballpark.
    let run = |policy: PolicyKind| {
        let mut cfg = presets::smoke();
        cfg.duration_secs = 1500.0;
        cfg.policy = policy;
        cfg.seed = 3;
        World::build(&cfg).run().delivery_ratio()
    };
    let knap = run(PolicyKind::Knapsack);
    let ttl = run(PolicyKind::TtlRatio);
    assert!(
        (knap - ttl).abs() < 0.15,
        "knapsack {knap} far from its greedy counterpart {ttl}"
    );
}

#[test]
#[should_panic(expected = "largest message must fit")]
fn oversized_message_range_rejected() {
    let mut cfg = presets::smoke();
    cfg.message_size_max = Some(Bytes::from_mb(50.0));
    cfg.validate().unwrap();
}

#[test]
fn validated_smoke_run_is_clean_and_samples_estimators() {
    let mut cfg = presets::smoke();
    cfg.duration_secs = 1800.0;
    cfg.policy = PolicyKind::Sdsrp;
    let mut world = World::build(&cfg);
    world.enable_validation(dtn_validate::ValidateConfig::default());
    let out = world.finish();
    let (report, validation) = (out.report, out.validation.expect("enabled"));
    assert!(report.created() > 0);
    assert!(
        validation.ok(),
        "invariant violations on a clean run:\n{}",
        validation.summary()
    );
    assert!(validation.sweeps > 0);
    assert!(validation.checks_run > 0);
    assert!(
        validation.estimator_m.samples > 0,
        "estimator oracle never sampled"
    );
    assert_eq!(
        validation.estimator_m.samples,
        validation.estimator_n.samples
    );
}

#[test]
fn validated_epidemic_run_skips_token_conservation() {
    let mut cfg = presets::smoke();
    cfg.duration_secs = 1200.0;
    cfg.routing = RoutingKind::Epidemic;
    cfg.policy = PolicyKind::Fifo;
    let mut world = World::build(&cfg);
    world.enable_validation(dtn_validate::ValidateConfig::default());
    assert!(!world.validator_mut().expect("enabled").conserves_tokens());
    let out = world.finish();
    let (report, validation) = (out.report, out.validation.expect("enabled"));
    assert!(report.created() > 0);
    assert!(
        validation.ok(),
        "epidemic run flagged:\n{}",
        validation.summary()
    );
}

#[test]
fn seeded_corruption_is_detected_by_next_sweep() {
    let mut cfg = presets::smoke();
    cfg.duration_secs = 1200.0;
    let mut world = World::build(&cfg);
    world.enable_validation(dtn_validate::ValidateConfig::default());
    world.step_until(SimTime::from_secs(600.0));
    world
        .validator_mut()
        .expect("enabled")
        .corrupt_holder_bookkeeping();
    let validation = world.finish().validation.expect("enabled");
    assert!(
        validation
            .violations
            .iter()
            .any(|v| v.check == "holder_mismatch"),
        "seeded n_i corruption went undetected:\n{}",
        validation.summary()
    );
}

#[test]
fn validation_does_not_change_the_run() {
    let mut cfg = presets::smoke();
    cfg.duration_secs = 1500.0;
    cfg.policy = PolicyKind::Sdsrp;
    let plain = World::build(&cfg).run();
    let mut world = World::build(&cfg);
    world.enable_validation(dtn_validate::ValidateConfig::default());
    let out = world.finish();
    let (validated, validation) = (out.report, out.validation.expect("enabled"));
    assert!(validation.ok(), "{}", validation.summary());
    assert_eq!(plain.created(), validated.created());
    assert_eq!(plain.delivered(), validated.delivered());
    assert_eq!(plain.transmissions(), validated.transmissions());
    assert_eq!(plain.buffer_drops(), validated.buffer_drops());
}

#[test]
fn hopcount_is_one_for_direct_routing() {
    let mut cfg = presets::smoke();
    cfg.duration_secs = 2400.0;
    cfg.routing = RoutingKind::Direct;
    cfg.policy = PolicyKind::Fifo;
    let report = World::build(&cfg).run();
    if report.delivered() > 0 {
        assert_eq!(report.avg_hopcount(), 1.0);
    }
}

// ------------------------------------------------------------------
// Thread-count determinism (the world-level guarantee; the full
// cross-scenario battery lives in tests/parallel_world.rs).
// ------------------------------------------------------------------

/// Full report equality between a serial world and a multi-threaded
/// one, on the smoke scenario.
#[test]
fn threaded_run_matches_serial_report() {
    let mut cfg = presets::smoke();
    cfg.duration_secs = 1200.0;
    cfg.policy = PolicyKind::Sdsrp;
    let serial = World::build(&cfg).run();
    for threads in [2, 4] {
        let mut world = World::build(&cfg);
        world.set_threads(threads);
        assert_eq!(world.threads(), threads);
        let r = world.run();
        assert_eq!(serial.created(), r.created(), "threads={threads}");
        assert_eq!(serial.delivered(), r.delivered(), "threads={threads}");
        assert_eq!(
            serial.transmissions(),
            r.transmissions(),
            "threads={threads}"
        );
        assert_eq!(serial.buffer_drops(), r.buffer_drops(), "threads={threads}");
        assert_eq!(
            serial.avg_latency(),
            r.avg_latency(),
            "threads={threads}: latency must be bit-identical"
        );
    }
}

/// `set_threads` is a runtime knob: flipping it mid-run (between
/// stepped windows) must not change results either, because every
/// parallel reduction is order-identical to the serial loop.
#[test]
fn thread_count_flipped_mid_run_is_identical() {
    let mut cfg = presets::smoke();
    cfg.duration_secs = 1000.0;
    cfg.seed = 11;
    let oneshot = World::build(&cfg).run();

    let mut stepped = World::build(&cfg);
    for (k, threads) in [(1, 1usize), (2, 4), (3, 2), (4, 8), (5, 1)] {
        stepped.set_threads(threads);
        stepped.step_until(SimTime::from_secs(k as f64 * 200.0));
    }
    assert_eq!(stepped.report().created(), oneshot.created());
    assert_eq!(stepped.report().delivered(), oneshot.delivered());
    assert_eq!(stepped.report().transmissions(), oneshot.transmissions());
}

/// Radio-down sentinel parking keeps mobility RNG streams on
/// schedule: a crashed-then-rebooted node rejoins at the position it
/// would have had anyway.
#[test]
fn faulted_threaded_run_matches_serial() {
    let mut cfg = presets::smoke();
    cfg.duration_secs = 1500.0;
    cfg.seed = 13;
    cfg.faults = crate::config::FaultPlan {
        crash_rate_per_hour: 2.0,
        reboot_secs: 120.0,
        blackout_rate_per_hour: 2.0,
        blackout_secs: 60.0,
        transfer_abort_prob: 0.05,
        clock_skew_max_secs: 1.0,
    };
    let serial = World::build(&cfg).run();
    let mut world = World::build(&cfg);
    world.set_threads(4);
    let threaded = world.run();
    assert_eq!(serial.created(), threaded.created());
    assert_eq!(serial.delivered(), threaded.delivered());
    assert_eq!(serial.transmissions(), threaded.transmissions());
    assert_eq!(serial.buffer_drops(), threaded.buffer_drops());
    assert_eq!(serial.aborted_transfers(), threaded.aborted_transfers());
}

/// Each live link appears exactly once in each endpoint's peer list and
/// in no other list — under crashes and blackouts too, which force
/// contacts down between ticks — so a node's list names its links.
#[test]
fn adjacency_mirrors_link_table() {
    let mut cfg = presets::smoke();
    cfg.faults = crate::config::FaultPlan {
        crash_rate_per_hour: 3.0,
        reboot_secs: 60.0,
        blackout_rate_per_hour: 4.0,
        blackout_secs: 30.0,
        ..Default::default()
    };
    let mut world = World::build(&cfg);
    let mut seen_links = 0;
    for stop in (1..=12).map(|k| SimTime::from_secs(k as f64 * 97.5)) {
        world.step_until(stop);
        let mut listed: Vec<(NodeId, NodeId)> = NodeId::all(world.nodes.len())
            .flat_map(|node| {
                world.adjacency[node.index()]
                    .iter()
                    .map(move |&p| (node, p))
            })
            .collect();
        listed.sort_unstable();
        let mut mirrored: Vec<(NodeId, NodeId)> = world
            .links
            .keys()
            .flat_map(|p| [(p.lo(), p.hi()), (p.hi(), p.lo())])
            .collect();
        mirrored.sort_unstable();
        assert_eq!(listed, mirrored, "at {stop:?}");
        seen_links += world.links.len();
    }
    assert!(seen_links > 0, "the run must have live links");
}

/// The priority-cache gauges are refreshed only on the last tick before
/// each `step_until` horizon, so a caller reading between steps sees the
/// running totals as of that tick.
#[test]
fn cache_gauges_are_refreshed_before_each_horizon() {
    let mut cfg = presets::smoke();
    cfg.policy = PolicyKind::Sdsrp;
    let mut world = World::build(&cfg);
    world.attach_recorder(Recorder::enabled(0));
    let mut seen = 0.0;
    for horizon in [600.0, 1_200.5, 2_400.0] {
        world.step_until(SimTime::from_secs(horizon));
        let m = world.metrics.as_ref().expect("recorder enabled");
        let reg = world.recorder.metrics();
        let (hits, misses) = (
            reg.gauge_value(m.priority_cache_hits),
            reg.gauge_value(m.priority_cache_misses),
        );
        let now = world.priority_cache_stats();
        assert!(hits > seen && hits <= now.hits as f64, "{horizon}: {hits}");
        assert!(
            misses > 0.0 && misses <= now.misses as f64,
            "{horizon}: {misses}"
        );
        seen = hits;
    }
}

// ------------------------------------------------------------------
// The candidate scan's own rules: delivery to the destination and the
// peer-knowledge vetoes, applied before any router or policy is asked.
// ------------------------------------------------------------------

/// A FIFO policy that refuses every receipt; deliveries bypass it.
struct RefuseAll;

impl BufferPolicy for RefuseAll {
    fn name(&self) -> &'static str {
        "refuse-all"
    }

    fn send_priority(&mut self, _now: SimTime, msg: &MessageView<'_>) -> f64 {
        -msg.received.as_secs()
    }

    fn accepts(&mut self, _now: SimTime, _msg: MessageId) -> bool {
        false
    }
}

/// Three stationary nodes under binary Spray-and-Wait, built but not
/// run: the tests below fill the catalog and buffers by hand.
fn scan_world() -> World {
    let mut cfg = tiny_two_node(PolicyKind::Fifo);
    cfg.n_nodes = 3;
    cfg.mobility = MobilityConfig::Stationary {
        positions: vec![(0.0, 0.0), (50.0, 0.0), (100.0, 0.0)],
    };
    World::build(&cfg)
}

/// Catalogs a message from node 0 to `destination` and buffers a copy of
/// it holding `copies` tokens at `holder`.
fn hold(world: &mut World, holder: u32, destination: u32, copies: u32) -> MessageId {
    let msg = Message {
        id: MessageId(world.catalog.len() as u64),
        source: NodeId(0),
        destination: NodeId(destination),
        size: world.cfg.message_size,
        created: world.now,
        ttl: world.cfg.ttl,
        initial_copies: world.cfg.initial_copies,
    };
    world.catalog.push(msg);
    let copy = BufferedCopy {
        copies,
        ..BufferedCopy::at_source(&msg)
    };
    world.nodes[holder as usize].insert_copy(copy, msg.size);
    msg.id
}

fn pair(a: u32, b: u32) -> NodePair {
    NodePair::new(NodeId(a), NodeId(b))
}

type Pick = (NodeId, NodeId, MessageId, TransferKind);

/// The scan of `pair`: the winner as `(from, to, msg, kind)` and the new
/// refusals as `(receiver, sender, msg)`.
fn scan(world: &mut World, pair: NodePair) -> (Option<Pick>, Vec<(NodeId, NodeId, MessageId)>) {
    let (best, refused) = world.scan_candidates(pair);
    (best.map(|c| (c.from, c.to, c.msg, c.kind)), refused)
}

#[test]
fn wait_phase_copy_is_a_candidate_only_for_delivery() {
    let mut world = scan_world();
    let m = hold(&mut world, 0, 2, 1);
    assert_eq!(scan(&mut world, pair(0, 1)), (None, vec![]));
    let delivery = (NodeId(0), NodeId(2), m, TransferKind::Delivery);
    assert_eq!(scan(&mut world, pair(0, 2)), (Some(delivery), vec![]));
    // With tokens to spare the same copy sprays to the relay.
    world.nodes[0].buffer.get_mut(m).unwrap().copies = 4;
    let spray = TransferKind::Replicate {
        sender_keeps: 2,
        receiver_gets: 2,
    };
    assert_eq!(
        scan(&mut world, pair(0, 1)).0,
        Some((NodeId(0), NodeId(1), m, spray))
    );
}

#[test]
fn peer_knowledge_vetoes_delivery_and_relay_alike() {
    // Node 1 is the relay, node 2 the destination.
    for peer in [1, 2] {
        for veto in ["buffers", "delivered", "antipacket"] {
            let mut world = scan_world();
            let m = hold(&mut world, 0, 2, 4);
            assert!(scan(&mut world, pair(0, peer)).0.is_some(), "{veto}");
            let node = peer as usize;
            match veto {
                "buffers" => hold_copy_of(&mut world, peer, m),
                "delivered" => {
                    world.nodes[node].delivered.insert(m);
                }
                _ => {
                    world.nodes[node].acked.insert(m);
                }
            }
            assert_eq!(
                scan(&mut world, pair(0, peer)),
                (None, vec![]),
                "peer {peer} {veto} the message"
            );
        }
    }
}

/// Buffers a single-token copy of the catalogued `msg` at `holder`.
fn hold_copy_of(world: &mut World, holder: u32, msg: MessageId) {
    let m = world.catalog[msg.index()];
    let copy = BufferedCopy {
        copies: 1,
        ..BufferedCopy::at_source(&m)
    };
    world.nodes[holder as usize].insert_copy(copy, m.size);
}

#[test]
fn refused_relay_is_reported_once_in_ascending_message_id() {
    let mut world = scan_world();
    world.nodes[1].policy = Box::new(RefuseAll);
    let relays: Vec<MessageId> = (0..3).map(|_| hold(&mut world, 0, 2, 4)).collect();
    let delivery = hold(&mut world, 0, 1, 4);
    let expected: Vec<_> = relays.iter().map(|&m| (NodeId(1), NodeId(0), m)).collect();
    // The refusing receiver still takes its own delivery.
    let pick = (NodeId(0), NodeId(1), delivery, TransferKind::Delivery);
    assert_eq!(scan(&mut world, pair(0, 1)), (Some(pick), expected));

    let best = world.best_candidate(pair(0, 1));
    assert_eq!(best.map(|c| c.msg), Some(delivery));
    assert_eq!(world.report.refused_receipts(), 3);
    // Reported refusals are not reported again.
    assert_eq!(scan(&mut world, pair(0, 1)), (Some(pick), vec![]));
    world.best_candidate(pair(0, 1));
    assert_eq!(world.report.refused_receipts(), 3);
}
