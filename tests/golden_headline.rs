//! Golden-snapshot regression tests: the run fingerprints of the
//! headline smoke scenario, its oracle-ablation twin, short cuts of the
//! paper's RWP and taxi worlds, a TTL-bound smoke run, two smoke runs
//! that purge, crash and warm up (immunity, faults, warm-up) and smoke
//! runs under PRoPHET, Spray-and-Focus, Epidemic, Direct Delivery and
//! source Spray-and-Wait routing are committed under `tests/golden/` and
//! must reproduce byte-for-byte. Five runs also pin a digest of their
//! whole event stream, which catches an event that moves in time or
//! changes its sender without changing any count. Any
//! change to the simulator's observable behaviour — intended or not —
//! shows up as a diff here.
//!
//! To bless a new baseline after an intentional behaviour change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test golden_headline
//! ```

use sdsrp::core::time::SimDuration;
use sdsrp::core::units::Bytes;
use sdsrp::sim::config::{
    presets, FaultPlan, ImmunityMode, PolicyKind, RoutingKind, ScenarioConfig,
};
use sdsrp::sim::replay::fingerprint;
use sdsrp::sim::world::{RunOutput, World};
use sdsrp::telemetry::{hash_config_json, MemorySink, Recorder};
use sdsrp::validate::{ReportFingerprint, ValidateConfig};
use std::path::PathBuf;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

/// The pinned scenario: smoke preset, SDSRP policy, fixed seed and
/// duration. Fully deterministic, a few seconds of wall clock.
fn headline_smoke_fingerprint_at(threads: usize) -> ReportFingerprint {
    let mut cfg = presets::smoke();
    cfg.policy = PolicyKind::Sdsrp;
    cfg.seed = 42;
    cfg.duration_secs = 3_600.0;
    let mut world = World::build(&cfg);
    world.set_threads(threads);
    world.attach_recorder(Recorder::enabled(16));
    let RunOutput {
        report, recorder, ..
    } = world.finish();
    fingerprint(&report, recorder.totals())
}

fn headline_smoke_fingerprint() -> ReportFingerprint {
    headline_smoke_fingerprint_at(1)
}

/// Compares `fp` with the committed snapshot `name`, byte for byte, or
/// rewrites the snapshot under `UPDATE_GOLDEN`.
fn check_golden(name: &str, fp: &ReportFingerprint) {
    let rendered = fp.to_canonical_json();
    let path = golden_path(name);

    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).expect("create golden dir");
        std::fs::write(&path, &rendered).expect("write golden snapshot");
        eprintln!("golden snapshot updated: {}", path.display());
        return;
    }

    let expected = committed_golden(name);
    assert_eq!(
        *fp,
        expected,
        "{name} fingerprint drifted from golden:\n{}",
        expected.diff(fp).join("\n")
    );
    // Byte-stable, not just structurally equal: the canonical rendering
    // must match the committed file exactly.
    let committed = std::fs::read_to_string(&path).expect("read above");
    assert_eq!(
        rendered, committed,
        "canonical JSON rendering changed (field order / formatting?)"
    );
}

fn committed_golden(name: &str) -> ReportFingerprint {
    let path = golden_path(name);
    let committed = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden snapshot {} ({e}); run UPDATE_GOLDEN=1 cargo test --test golden_headline",
            path.display()
        )
    });
    ReportFingerprint::from_json(&committed).expect("golden parses")
}

#[test]
fn headline_smoke_matches_committed_golden() {
    check_golden("headline_smoke.json", &headline_smoke_fingerprint());
}

/// The committed snapshot predates the parallel world core, so a
/// multi-threaded run matching it byte-for-byte proves the parallel
/// phases reproduce the serial-era behaviour exactly — the strongest
/// form of the determinism contract.
#[test]
fn headline_smoke_threaded_matches_committed_golden() {
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        // The serial test owns blessing; nothing to refresh here.
        return;
    }
    let expected = committed_golden("headline_smoke.json");
    for threads in [2, 4, 8] {
        let fp = headline_smoke_fingerprint_at(threads);
        assert_eq!(
            fp,
            expected,
            "{threads}-thread headline run drifted from golden:\n{}\n\
             (if the behaviour change is intentional, bless with \
             UPDATE_GOLDEN=1 cargo test --test golden_headline)",
            expected.diff(&fp).join("\n")
        );
    }
}

#[test]
fn fingerprint_is_run_to_run_stable() {
    let a = headline_smoke_fingerprint();
    let b = headline_smoke_fingerprint();
    assert_eq!(a, b);
    assert_eq!(a.to_canonical_json(), b.to_canonical_json());
}

/// The oracle ablation: the same smoke scenario with SDSRP fed the
/// simulator's true `m_i`/`n_i` (`oracle: true`) instead of the Eq. 14/15
/// estimates.
fn oracle_smoke_cfg() -> ScenarioConfig {
    let mut cfg = presets::smoke();
    cfg.policy = PolicyKind::SdsrpOracle {
        lambda: 1.0 / 2000.0,
    };
    cfg.oracle = true;
    cfg.seed = 42;
    cfg.duration_secs = 3_600.0;
    cfg
}

/// Runs `cfg` at `threads` world threads, validated when asked, and
/// returns the fingerprint. A validated run must be violation-free.
fn scenario_fingerprint(cfg: &ScenarioConfig, threads: usize, validate: bool) -> ReportFingerprint {
    let mut world = World::build(cfg);
    world.set_threads(threads);
    world.attach_recorder(Recorder::enabled(16));
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
    fingerprint(&report, recorder.totals())
}

/// Checks `cfg` against the committed snapshot `name` at 1 world thread
/// (which blesses under `UPDATE_GOLDEN`) and at 2.
fn check_scenario_golden(name: &str, cfg: &ScenarioConfig, validate: bool) {
    check_golden(name, &scenario_fingerprint(cfg, 1, validate));
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        return;
    }
    let expected = committed_golden(name);
    let fp = scenario_fingerprint(cfg, 2, validate);
    assert_eq!(
        fp,
        expected,
        "2-thread {name} run drifted from golden:\n{}",
        expected.diff(&fp).join("\n")
    );
}

/// The paper's Table II world (100 RWP nodes, 4 500 × 3 400 m) cut to
/// one hour: a sparse grid where most cells are empty on every tick.
#[test]
fn rwp_paper_short_matches_committed_golden() {
    let mut cfg = presets::random_waypoint_paper();
    cfg.policy = PolicyKind::Sdsrp;
    cfg.seed = 42;
    cfg.duration_secs = 3_600.0;
    check_scenario_golden("rwp_paper_short.json", &cfg, false);
}

/// The Table III taxi world cut to one hour: hotspot mobility packs
/// nodes into a few crowded cells.
#[test]
fn epfl_short_matches_committed_golden() {
    let mut cfg = presets::epfl_paper();
    cfg.policy = PolicyKind::Sdsrp;
    cfg.seed = 42;
    cfg.duration_secs = 3_600.0;
    check_scenario_golden("epfl_short.json", &cfg, false);
}

/// Smoke with a 300 s TTL and buffers large enough that messages live
/// out their TTL: pins the expiry path, validated (TTL timeliness is one
/// of the invariants the sweep checks).
#[test]
fn ttl_smoke_matches_committed_golden() {
    let mut cfg = presets::smoke();
    cfg.policy = PolicyKind::Sdsrp;
    cfg.seed = 42;
    cfg.ttl = SimDuration::from_secs(300.0);
    cfg.buffer_capacity = Bytes::from_mb(25.0);
    check_scenario_golden("ttl_smoke.json", &cfg, true);
    let golden = committed_golden("ttl_smoke.json");
    assert!(
        golden.expirations > 0,
        "the TTL golden must exercise expiry"
    );
}

/// Smoke under idealised VACCINE immunity with a 600 s warm-up: pins
/// the network-wide purge path and the rule that messages generated
/// during warm-up are simulated but not counted.
#[test]
fn immunity_warmup_smoke_matches_committed_golden() {
    let mut cfg = presets::smoke();
    cfg.policy = PolicyKind::Sdsrp;
    cfg.seed = 42;
    cfg.immunity = ImmunityMode::OracleFlood;
    cfg.warmup_secs = 600.0;
    check_scenario_golden("immunity_warmup_smoke.json", &cfg, false);
    let golden = committed_golden("immunity_warmup_smoke.json");
    assert!(golden.immunity_purges > 0, "the golden must purge");
    // Same seed and traffic stream as the headline run, which has no
    // warm-up: the messages born in the first 600 s are not counted.
    assert!(golden.created < committed_golden("headline_smoke.json").created);
}

/// Sweeps and invariant checks of the validated antipacket-and-faults
/// run.
const ANTIPACKET_FAULTS_SWEEPS: u64 = 3_602;
const ANTIPACKET_FAULTS_CHECKS: u64 = 1_645_401;

/// Smoke with distributed antipackets under every fault kind (crashes,
/// blackouts, transfer aborts, clock skew), validated: pins the
/// per-node purge path and the crash wipe.
#[test]
fn antipacket_faults_smoke_matches_committed_golden() {
    let mut cfg = presets::smoke();
    cfg.policy = PolicyKind::Sdsrp;
    cfg.seed = 42;
    cfg.immunity = ImmunityMode::AntipacketGossip;
    cfg.faults = full_fault_plan();
    check_scenario_golden("antipacket_faults_smoke.json", &cfg, true);
    let mut world = World::build(&cfg);
    world.enable_validation(ValidateConfig::default());
    let validation = world.finish().validation.expect("validation enabled");
    assert_eq!(
        (validation.sweeps, validation.checks_run),
        (ANTIPACKET_FAULTS_SWEEPS, ANTIPACKET_FAULTS_CHECKS)
    );
    let golden = committed_golden("antipacket_faults_smoke.json");
    assert!(golden.immunity_purges > 0, "the golden must purge");
    assert!(golden.events.crash_wiped_copies > 0, "the golden must wipe");
    assert!(golden.events.fault_aborts > 0 && golden.events.blackouts > 0);
}

/// Sweeps and invariant checks of the validated oracle run: one sweep
/// per tick plus the closing sweep, which judges the state at the clock
/// of the last event.
const ORACLE_SMOKE_SWEEPS: u64 = 3_602;
const ORACLE_SMOKE_CHECKS: u64 = 2_111_658;

fn oracle_smoke_fingerprint_at(threads: usize) -> ReportFingerprint {
    let mut world = World::build(&oracle_smoke_cfg());
    world.set_threads(threads);
    world.attach_recorder(Recorder::enabled(16));
    let RunOutput {
        report, recorder, ..
    } = world.finish();
    fingerprint(&report, recorder.totals())
}

/// Pins the oracle path: no other test fixes what the true counts feed
/// into Eq. 10, so a change to how the simulator keeps them shows here.
#[test]
fn oracle_smoke_matches_committed_golden() {
    check_golden("oracle_smoke.json", &oracle_smoke_fingerprint_at(1));
}

#[test]
fn oracle_smoke_threaded_matches_committed_golden() {
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        return;
    }
    let expected = committed_golden("oracle_smoke.json");
    let fp = oracle_smoke_fingerprint_at(2);
    assert_eq!(
        fp,
        expected,
        "2-thread oracle run drifted from golden:\n{}",
        expected.diff(&fp).join("\n")
    );
}

/// A validated oracle run is violation-free — the true holder counts the
/// policy ranks on agree with a full buffer sweep at every tick — and
/// validation does not change the run: apart from the estimator samples
/// it emits, its fingerprint is the committed one.
#[test]
fn validated_oracle_smoke_is_clean_and_unchanged() {
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        return;
    }
    let mut world = World::build(&oracle_smoke_cfg());
    world.attach_recorder(Recorder::enabled(16));
    world.enable_validation(ValidateConfig::default());
    let RunOutput {
        report,
        recorder,
        validation,
        ..
    } = world.finish();
    let validation = validation.expect("validation enabled");
    assert!(validation.ok(), "{}", validation.summary());
    assert_eq!(validation.sweeps, ORACLE_SMOKE_SWEEPS);
    assert_eq!(validation.checks_run, ORACLE_SMOKE_CHECKS);
    let mut fp = fingerprint(&report, recorder.totals());
    assert!(fp.events.estimator_samples > 0);
    fp.events.estimator_samples = 0;
    let expected = committed_golden("oracle_smoke.json");
    assert_eq!(
        fp,
        expected,
        "validation changed the oracle run:\n{}",
        expected.diff(&fp).join("\n")
    );
}

/// The full fault plan the faulted goldens run under: crashes,
/// blackouts, transfer aborts and clock skew.
fn full_fault_plan() -> FaultPlan {
    FaultPlan {
        crash_rate_per_hour: 3.0,
        reboot_secs: 60.0,
        blackout_rate_per_hour: 4.0,
        blackout_secs: 30.0,
        transfer_abort_prob: 0.05,
        clock_skew_max_secs: 10.0,
    }
}

/// The headline smoke run routed by PRoPHET. Its delivery
/// predictabilities age and spread on every contact, so an idle link
/// can gain work when one of its endpoints meets a third node.
fn prophet_smoke_cfg() -> ScenarioConfig {
    let mut cfg = presets::smoke();
    cfg.policy = PolicyKind::Sdsrp;
    cfg.routing = RoutingKind::Prophet;
    cfg.seed = 42;
    cfg
}

#[test]
fn prophet_smoke_matches_committed_golden() {
    check_scenario_golden("prophet_smoke.json", &prophet_smoke_cfg(), false);
    assert!(committed_golden("prophet_smoke.json").transmissions > 0);
}

/// PRoPHET under every fault kind, validated: crashes reset the
/// predictability tables and forced contact loss drops peer tables.
#[test]
fn prophet_faults_smoke_matches_committed_golden() {
    let mut cfg = prophet_smoke_cfg();
    cfg.faults = full_fault_plan();
    check_scenario_golden("prophet_faults_smoke.json", &cfg, true);
    let golden = committed_golden("prophet_faults_smoke.json");
    assert!(golden.events.crash_wiped_copies > 0 && golden.events.fault_aborts > 0);
}

/// The headline smoke run routed by Spray-and-Focus: binary spray, then
/// single-copy handoffs to peers that met the destination more
/// recently.
#[test]
fn spray_and_focus_smoke_matches_committed_golden() {
    let mut cfg = presets::smoke();
    cfg.policy = PolicyKind::Sdsrp;
    cfg.routing = RoutingKind::SprayAndFocus {
        handoff_threshold: 30.0,
    };
    cfg.seed = 42;
    check_scenario_golden("spray_and_focus_smoke.json", &cfg, false);
}

/// The headline smoke run under another router: SDSRP buffers, seed 42,
/// the preset's duration.
fn routed_smoke_cfg(routing: RoutingKind) -> ScenarioConfig {
    let mut cfg = presets::smoke();
    cfg.policy = PolicyKind::Sdsrp;
    cfg.routing = routing;
    cfg.seed = 42;
    cfg
}

/// Epidemic routing: every copy relays to every peer that lacks it, so
/// the peer-knowledge vetoes decide most candidates.
#[test]
fn epidemic_smoke_matches_committed_golden() {
    let cfg = routed_smoke_cfg(RoutingKind::Epidemic);
    check_scenario_golden("epidemic_smoke.json", &cfg, false);
    check_event_digest(&cfg, EPIDEMIC_SMOKE_EVENTS);
}

/// Direct Delivery: no copy ever relays; the source delivers or waits.
#[test]
fn direct_smoke_matches_committed_golden() {
    let cfg = routed_smoke_cfg(RoutingKind::Direct);
    check_scenario_golden("direct_smoke.json", &cfg, false);
    check_event_digest(&cfg, DIRECT_SMOKE_EVENTS);
    let golden = committed_golden("direct_smoke.json");
    assert_eq!(golden.events.replicated, 0, "direct delivery never relays");
    assert!(golden.delivered_events > 0);
}

/// Source Spray-and-Wait: only the source hands out tokens, one at a
/// time; relays wait for the destination whatever they hold.
#[test]
fn source_spray_smoke_matches_committed_golden() {
    let cfg = routed_smoke_cfg(RoutingKind::SprayAndWaitSource);
    check_scenario_golden("source_spray_smoke.json", &cfg, false);
    check_event_digest(&cfg, SOURCE_SPRAY_SMOKE_EVENTS);
}

/// FNV-1a digest of every event `cfg` emits at `threads` world threads,
/// rendered as JSONL: the bytes `dtn-scenario --telemetry` writes.
fn event_stream_digest(cfg: &ScenarioConfig, threads: usize) -> (usize, String) {
    let sink = MemorySink::new();
    let mut world = World::build(cfg);
    world.set_threads(threads);
    world.attach_recorder(Recorder::enabled(16).with_sink(Box::new(sink.clone())));
    world.finish();
    let events = sink.events();
    let jsonl: String = events.iter().map(|e| e.to_jsonl() + "\n").collect();
    (events.len(), hash_config_json(&jsonl))
}

/// Checks `cfg`'s event-stream digest at 1 and 2 world threads.
fn check_event_digest(cfg: &ScenarioConfig, expected: (usize, &str)) {
    for threads in [1, 2] {
        let (len, digest) = event_stream_digest(cfg, threads);
        assert_eq!(
            (len, digest.as_str()),
            expected,
            "{threads}-thread event stream changed"
        );
    }
}

/// The headline smoke run rejects receipts of dropped messages, so its
/// stream carries `refused` and `gossip_merged` events: their instants
/// and reporting senders are pinned here, not only their counts.
#[test]
fn headline_smoke_event_stream_is_pinned() {
    let mut cfg = presets::smoke();
    cfg.policy = PolicyKind::Sdsrp;
    cfg.seed = 42;
    check_event_digest(&cfg, HEADLINE_SMOKE_EVENTS);
}

#[test]
fn prophet_smoke_event_stream_is_pinned() {
    check_event_digest(&prophet_smoke_cfg(), PROPHET_SMOKE_EVENTS);
}

/// Event count and JSONL digest of the headline smoke run.
const HEADLINE_SMOKE_EVENTS: (usize, &str) = (5_114, "d57e5dfef3875978");
/// Event count and JSONL digest of the PRoPHET smoke run.
const PROPHET_SMOKE_EVENTS: (usize, &str) = (3_321, "960fdd208f4cfaf9");
/// Event count and JSONL digest of the Epidemic smoke run.
const EPIDEMIC_SMOKE_EVENTS: (usize, &str) = (4_119, "fd447416ea307c3f");
/// Event count and JSONL digest of the Direct Delivery smoke run.
const DIRECT_SMOKE_EVENTS: (usize, &str) = (1_499, "47bd93ea7d2c8638");
/// Event count and JSONL digest of the source Spray-and-Wait smoke run.
const SOURCE_SPRAY_SMOKE_EVENTS: (usize, &str) = (4_235, "3eef18c164978a9c");
