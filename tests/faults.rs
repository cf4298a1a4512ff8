//! Integration tests for the fault-injection subsystem: determinism of
//! faulted runs, bit-identity of fault-free runs, fault telemetry, and
//! invariant preservation under churn (conservation modulo the fault
//! ledger).

use sdsrp::sim::config::{presets, FaultPlan, PolicyKind, ScenarioConfig};
use sdsrp::sim::replay::fingerprint;
use sdsrp::sim::world::{RunOutput, World};
use sdsrp::telemetry::{EventTotals, Recorder, SimEvent};
use sdsrp::validate::{ReportFingerprint, ValidateConfig};

fn base_scenario(seed: u64) -> ScenarioConfig {
    let mut cfg = presets::smoke();
    cfg.n_nodes = 20;
    cfg.duration_secs = 1200.0;
    cfg.policy = PolicyKind::Sdsrp;
    cfg.seed = seed;
    cfg
}

fn full_plan() -> FaultPlan {
    FaultPlan {
        crash_rate_per_hour: 3.0,
        reboot_secs: 60.0,
        blackout_rate_per_hour: 4.0,
        blackout_secs: 30.0,
        transfer_abort_prob: 0.05,
        clock_skew_max_secs: 10.0,
    }
}

fn run_fingerprint(cfg: &ScenarioConfig) -> (ReportFingerprint, EventTotals) {
    let mut world = World::build(cfg);
    world.attach_recorder(Recorder::enabled(4096));
    let RunOutput {
        report, recorder, ..
    } = world.finish();
    (
        fingerprint(&report, recorder.totals()),
        recorder.totals().clone(),
    )
}

#[test]
fn same_seed_and_plan_is_bit_identical() {
    let mut cfg = base_scenario(42);
    cfg.faults = full_plan();
    let (fp1, _) = run_fingerprint(&cfg);
    let (fp2, _) = run_fingerprint(&cfg);
    assert_eq!(fp1, fp2, "faulted runs must replay bit-identically");
}

#[test]
fn empty_plan_emits_no_fault_events_and_changes_nothing() {
    let cfg = base_scenario(42);
    assert!(cfg.faults.is_empty());
    let (fp_default, totals) = run_fingerprint(&cfg);
    assert_eq!(totals.node_crashes, 0);
    assert_eq!(totals.node_reboots, 0);
    assert_eq!(totals.blackouts, 0);
    assert_eq!(totals.blackout_ends, 0);
    assert_eq!(totals.fault_aborts, 0);
    assert_eq!(totals.crash_wiped_copies, 0);

    // A config whose JSON predates the faults field deserializes to the
    // same scenario and reproduces the same run.
    let json = serde_json::to_string(&cfg).unwrap();
    assert!(json.contains("\"faults\""));
    let stripped = {
        let mut v: serde_json::Value = serde_json::from_str(&json).unwrap();
        match &mut v {
            serde_json::Value::Object(fields) => fields.retain(|(k, _)| k != "faults"),
            _ => panic!("config serialises as an object"),
        }
        serde_json::to_string(&v).unwrap()
    };
    let old: ScenarioConfig = serde_json::from_str(&stripped).unwrap();
    assert_eq!(old, cfg);
    let (fp_old, _) = run_fingerprint(&old);
    assert_eq!(fp_old, fp_default);
}

#[test]
fn faults_actually_perturb_the_run_and_emit_events() {
    let clean = base_scenario(42);
    let mut churned = clean.clone();
    churned.faults = full_plan();
    let (fp_clean, _) = run_fingerprint(&clean);
    let (fp_churned, totals) = run_fingerprint(&churned);
    assert_ne!(fp_clean, fp_churned, "the fault plan had no effect");
    assert!(totals.node_crashes > 0, "no crashes fired");
    assert!(totals.node_reboots > 0, "no reboots fired");
    assert!(totals.blackouts > 0, "no blackouts fired");
    assert!(totals.fault_aborts > 0, "no aborts fired");
}

#[test]
fn each_fault_feature_alone_perturbs_the_run() {
    let clean = base_scenario(7);
    let (fp_clean, _) = run_fingerprint(&clean);
    let single_feature_plans = [
        FaultPlan {
            crash_rate_per_hour: 4.0,
            reboot_secs: 60.0,
            ..FaultPlan::default()
        },
        FaultPlan {
            blackout_rate_per_hour: 6.0,
            blackout_secs: 45.0,
            ..FaultPlan::default()
        },
        FaultPlan {
            transfer_abort_prob: 0.2,
            ..FaultPlan::default()
        },
        FaultPlan {
            clock_skew_max_secs: 45.0,
            ..FaultPlan::default()
        },
    ];
    for plan in single_feature_plans {
        let mut cfg = clean.clone();
        cfg.faults = plan.clone();
        let (fp, _) = run_fingerprint(&cfg);
        assert_ne!(fp, fp_clean, "plan {} had no effect", plan.label());
    }
}

#[test]
fn fault_events_appear_in_the_event_ring() {
    let mut cfg = base_scenario(42);
    cfg.faults = full_plan();
    let mut world = World::build(&cfg);
    world.attach_recorder(Recorder::enabled(100_000));
    let recorder = world.finish().recorder;
    let events: Vec<SimEvent> = recorder.ring().iter().cloned().collect();
    let has = |pred: &dyn Fn(&SimEvent) -> bool| events.iter().any(pred);
    assert!(has(&|e| matches!(e, SimEvent::NodeCrashed { .. })));
    assert!(has(&|e| matches!(e, SimEvent::NodeRebooted { .. })));
    assert!(has(&|e| matches!(e, SimEvent::BlackoutStarted { .. })));
    assert!(has(&|e| matches!(e, SimEvent::BlackoutEnded { .. })));
    assert!(has(&|e| matches!(e, SimEvent::TransferAborted { .. })));
    // Reboots never precede their crash, blackout ends never precede
    // their start (per node).
    let mut down = vec![0i64; cfg.n_nodes];
    for e in &events {
        match e {
            SimEvent::NodeCrashed { node, .. } | SimEvent::BlackoutStarted { node, .. } => {
                down[*node as usize] += 1;
            }
            SimEvent::NodeRebooted { node, .. } | SimEvent::BlackoutEnded { node, .. } => {
                down[*node as usize] -= 1;
                assert!(down[*node as usize] >= 0, "recovery before outage");
            }
            _ => {}
        }
    }
}

#[test]
fn invariants_hold_under_crash_blackout_grid() {
    // The headline guarantee: copy conservation and gossip soundness
    // become "conservation modulo recorded faults" — a validated run
    // under any mix of churn must report zero violations, with the
    // destroyed tokens accounted in the fault ledger.
    for policy in [PolicyKind::Sdsrp, PolicyKind::Fifo] {
        for (crash, blackout) in [(0.0, 6.0), (4.0, 0.0), (3.0, 3.0)] {
            let mut cfg = base_scenario(11);
            cfg.policy = policy;
            cfg.faults = FaultPlan {
                crash_rate_per_hour: crash,
                reboot_secs: 45.0,
                blackout_rate_per_hour: blackout,
                blackout_secs: 30.0,
                transfer_abort_prob: 0.1,
                clock_skew_max_secs: 5.0,
            };
            let mut world = World::build(&cfg);
            world.attach_recorder(Recorder::enabled(1024));
            world.enable_validation(ValidateConfig::default());
            let RunOutput {
                recorder,
                validation,
                ..
            } = world.finish();
            let validation = validation.expect("validation enabled");
            assert!(
                validation.ok(),
                "{:?} crash={crash} blackout={blackout}: {}",
                policy,
                validation.summary()
            );
            // The ledger agrees with the emitted fault telemetry.
            let totals = recorder.totals();
            assert_eq!(validation.faults.crashes, totals.node_crashes);
            assert_eq!(validation.faults.blackouts, totals.blackouts);
            assert_eq!(validation.faults.aborted_transfers, totals.fault_aborts);
            assert_eq!(validation.faults.wiped_copies, totals.crash_wiped_copies);
            if crash > 0.0 {
                assert!(validation.faults.crashes > 0, "no crashes fired");
            }
            if blackout > 0.0 {
                assert!(validation.faults.blackouts > 0, "no blackouts fired");
            }
        }
    }
}

#[test]
fn crashed_nodes_go_dark_and_rejoin() {
    use sdsrp::core::ids::NodeId;
    // One node, crash rate high enough to fire within the horizon.
    let mut cfg = base_scenario(3);
    cfg.faults.crash_rate_per_hour = 30.0;
    cfg.faults.reboot_secs = 50.0;
    let mut world = World::build(&cfg);
    let mut was_down = vec![false; cfg.n_nodes];
    let mut saw_recovery = false;
    let end = cfg.duration_secs;
    let mut t = 0.0;
    while t < end {
        t += 5.0;
        world.step_until(sdsrp::core::time::SimTime::from_secs(t));
        for (i, down_before) in was_down.iter_mut().enumerate() {
            let down = world.node_is_down(NodeId(i as u32));
            if down {
                *down_before = true;
            } else if *down_before {
                saw_recovery = true;
            }
        }
    }
    assert!(
        was_down.iter().any(|&d| d),
        "no node ever went down at 30 crashes/node-hour"
    );
    assert!(saw_recovery, "no node ever rebooted");
}
