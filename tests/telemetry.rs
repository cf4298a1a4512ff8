//! Integration tests for the telemetry subsystem wired through the
//! simulator: the structured event stream must reconcile exactly with
//! the `Report` the same run produces, and attaching a recorder must
//! never change the simulation outcome.

use sdsrp::sim::config::{presets, FaultPlan, ImmunityMode, ScenarioConfig};
use sdsrp::sim::world::{RunOutput, World};
use sdsrp::telemetry::{MemorySink, Recorder, SimEvent};
use sdsrp::validate::ValidateConfig;

fn short_smoke() -> ScenarioConfig {
    let mut cfg = presets::smoke();
    cfg.duration_secs = 900.0;
    cfg
}

/// The short smoke run plus two twins that exercise the paths it never
/// takes: idealised immunity with a 600 s warm-up, and distributed
/// antipackets under every fault kind, validated.
fn reconcile_cases() -> Vec<(ScenarioConfig, bool)> {
    let mut warmup = short_smoke();
    warmup.immunity = ImmunityMode::OracleFlood;
    warmup.warmup_secs = 600.0;
    let mut faults = short_smoke();
    faults.immunity = ImmunityMode::AntipacketGossip;
    faults.faults = FaultPlan {
        crash_rate_per_hour: 3.0,
        reboot_secs: 60.0,
        blackout_rate_per_hour: 4.0,
        blackout_secs: 30.0,
        transfer_abort_prob: 0.05,
        clock_skew_max_secs: 10.0,
    };
    vec![(short_smoke(), false), (warmup, false), (faults, true)]
}

#[test]
fn event_totals_reconcile_with_report_counters() {
    for (cfg, validate) in reconcile_cases() {
        let mut world = World::build(&cfg);
        world.attach_recorder(Recorder::enabled(0)); // counting only
        if validate {
            world.enable_validation(ValidateConfig::default());
        }
        let RunOutput {
            report,
            recorder,
            validation,
            ..
        } = world.finish();
        if let Some(v) = validation {
            assert!(v.ok(), "{}", v.summary());
        }
        let t = recorder.totals();

        assert!(report.created() > 0, "smoke run created no messages");
        assert_eq!(t.generated, report.created());
        assert_eq!(t.delivered_first, report.delivered());
        assert_eq!(t.delivered, report.delivered_events());
        assert_eq!(t.dropped_evicted, report.buffer_drops());
        assert_eq!(t.dropped_rejected, report.incoming_rejects());
        assert_eq!(t.dropped_immunity, report.immunity_purges());
        assert_eq!(t.ttl_expired, report.expirations());
        assert_eq!(t.refused, report.refused_receipts());
        // Every transmission is either a replication/handoff or a delivery.
        assert_eq!(t.replicated + t.delivered, report.transmissions());
        // Contacts come up and down in pairs (modulo those still live at
        // the end of the run).
        assert!(t.contacts_up >= t.contacts_down);
        assert!(t.contacts_up > 0, "smoke run saw no contacts");
        // The twins reach the paths they are here for.
        if cfg.immunity != ImmunityMode::None {
            assert!(t.dropped_immunity > 0, "{:?} purged nothing", cfg.immunity);
        }
        if !cfg.faults.is_empty() {
            assert!(t.crash_wiped_copies > 0, "the fault run wiped nothing");
        }
    }
}

#[test]
fn gossip_runs_emit_merge_events() {
    let mut cfg = short_smoke();
    cfg.policy = sdsrp::sim::config::PolicyKind::Sdsrp;
    cfg.immunity = ImmunityMode::None;
    let mut world = World::build(&cfg);
    world.attach_recorder(Recorder::enabled(0));
    let recorder = world.finish().recorder;
    let t = recorder.totals();
    assert!(t.gossip_merges > 0, "SDSRP run merged no gossip");
    assert!(t.gossip_records >= t.gossip_merges);
}

#[test]
fn memory_sink_stream_is_ordered_and_serialisable() {
    let cfg = short_smoke();
    let sink = MemorySink::new();
    let mut world = World::build(&cfg);
    world.attach_recorder(Recorder::enabled(64).with_sink(Box::new(sink.clone())));
    let RunOutput {
        report, recorder, ..
    } = world.finish();
    assert!(recorder.sink_error().is_none());

    let events = sink.events();
    assert_eq!(events.len() as u64, recorder.totals().total());
    let mut last_t = 0.0;
    let mut delivered_first = 0u64;
    for ev in &events {
        assert!(ev.time() >= last_t, "events out of order at {:?}", ev);
        last_t = ev.time();
        // Every event round-trips through the JSONL projection.
        let line = ev.to_jsonl();
        let v: serde_json::Value = serde_json::from_str(&line).expect("valid JSONL");
        assert_eq!(v["t"].as_f64(), Some(ev.time()));
        if let SimEvent::Delivered { first: true, .. } = ev {
            assert_eq!(v["kind"].as_str(), Some("delivered"));
            delivered_first += 1;
        }
    }
    assert_eq!(delivered_first, report.delivered());
}

#[test]
fn attaching_a_recorder_does_not_change_the_outcome() {
    let cfg = short_smoke();
    let plain = World::build(&cfg).run();
    let mut world = World::build(&cfg);
    world.attach_recorder(Recorder::enabled(128).with_sink(Box::new(MemorySink::new())));
    let observed = world.finish().report;

    assert_eq!(plain.created(), observed.created());
    assert_eq!(plain.delivered(), observed.delivered());
    assert_eq!(plain.transmissions(), observed.transmissions());
    assert_eq!(plain.buffer_drops(), observed.buffer_drops());
    assert_eq!(plain.incoming_rejects(), observed.incoming_rejects());
    assert_eq!(plain.expirations(), observed.expirations());
    assert_eq!(plain.refused_receipts(), observed.refused_receipts());
}
