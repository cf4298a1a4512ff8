//! The benchmark's own instruments must not change what they measure,
//! and its readers must turn bad input into errors, not panics.

use sdsrp::sim::config::presets;
use sdsrp::sim::replay::fingerprint;
use sdsrp::sim::{PolicyKind, ScenarioConfig, World};
use sdsrp::telemetry::Recorder;
use sdsrp_benchmark::layers::{build_traced, replay, run_cell, Histogram, METHODS};
use sdsrp_benchmark::parse::{
    parse_checkpoint, parse_fleet_line, read_checkpoint, vm_hwm_kb, FleetSummary,
};
use std::sync::atomic::AtomicU64;
use std::sync::Arc;

fn smoke(seed: u64) -> ScenarioConfig {
    let mut cfg = presets::smoke();
    cfg.policy = PolicyKind::Sdsrp;
    cfg.seed = seed;
    cfg.duration_secs = 1_200.0;
    cfg
}

/// Runs `world` to the end of `cfg` and returns its fingerprint and
/// cache counters.
fn finish(
    mut world: World,
    cfg: &ScenarioConfig,
) -> (
    sdsrp::validate::ReportFingerprint,
    sdsrp::buffer::policy::PriorityCacheStats,
) {
    world.attach_recorder(Recorder::enabled(0));
    world.step_until(sdsrp::core::time::SimTime::from_secs(cfg.duration_secs));
    let fp = fingerprint(world.report(), world.recorder().totals());
    (fp, world.priority_cache_stats())
}

#[test]
fn decorator_is_transparent_with_and_without_priority_cache() {
    let cfg = smoke(7);
    for cache in [true, false] {
        let mut plain = World::build(&cfg);
        plain.set_priority_cache(cache);
        let (plain_fp, plain_stats) = finish(plain, &cfg);

        let calls = Arc::new(AtomicU64::new(0));
        let mut traced = build_traced(&cfg, &calls);
        traced.set_priority_cache(cache);
        let (traced_fp, traced_stats) = finish(traced, &cfg);

        assert_eq!(
            traced_fp, plain_fp,
            "cache {cache}: tracing changed the run"
        );
        assert_eq!(traced_stats, plain_stats, "cache stats are forwarded");
        let requests = traced_stats.hits + traced_stats.incremental + traced_stats.misses;
        assert_eq!(requests > 0, cache, "the cache is used only when on");
    }
}

#[test]
fn traced_cell_counts_every_call_and_gossip_byte() {
    let cfg = smoke(3);
    let plain = run_cell(&cfg, 1, false, false).expect("untraced cell runs");
    let traced = run_cell(&cfg, 1, true, false).expect("traced cell runs");
    assert_eq!(traced.fingerprint, plain.fingerprint);
    assert!(plain.buffer.is_none());
    let buffer = traced.buffer.expect("traced cells carry buffer stats");
    assert_eq!(buffer.methods.len(), METHODS.len());
    for span in &buffer.methods {
        assert_eq!(span.hist.count(), span.count, "{}", span.name);
    }
    // Every contact runs both nodes' up hook, and every contact that
    // closes runs both down hooks.
    let events = &traced.fingerprint.events;
    let hooks = 2 * (events.contacts_up + events.contacts_down);
    assert_eq!(buffer.method("contact_hooks").count, hooks);
    assert!(buffer.gossip_bytes_out > 0 && buffer.gossip_bytes_in > 0);
    assert!(buffer.imports_useful <= buffer.method("import_gossip").count);
}

#[test]
fn replay_matches_the_worlds_contacts_on_smoke() {
    for (seed, threads) in [(1, 1), (2, 1), (2, 2)] {
        let cfg = smoke(seed);
        let cell = run_cell(&cfg, threads, false, false).expect("cell runs");
        let replayed = replay(&cfg, threads);
        assert_eq!(replayed.up, cell.fingerprint.events.contacts_up);
        assert_eq!(replayed.ticks, 1_201);
        assert_eq!(replayed.samples, 1_201 * cfg.n_nodes as u64);
        assert_eq!(replayed.mobility.count, replayed.ticks);
    }
}

#[test]
fn histogram_buckets_are_at_most_a_quarter_wide() {
    for b in 4..252 {
        let (lo, width) = Histogram::bucket_range(b);
        assert!(width * 4 <= lo, "bucket {b}: [{lo}, +{width})");
        assert_eq!(Histogram::bucket_of(lo), b);
        assert_eq!(Histogram::bucket_of(lo + width - 1), b);
    }
    assert_eq!(Histogram::bucket_of(u64::MAX), 251);
    let mut h = Histogram::default();
    for ns in 1..=1000 {
        h.record(ns);
    }
    let p50 = h.quantile(0.5).expect("non-empty");
    let p99 = h.quantile(0.99).expect("non-empty");
    assert!((448.0..=575.0).contains(&p50), "{p50}");
    assert!((896.0..=1023.0).contains(&p99), "{p99}");
    assert_eq!(Histogram::default().quantile(0.5), None);
}

/// A line as `dtn-scenario --checkpoint` writes it.
const CHECKPOINT_LINE: &str = r#"{"index":0,"config_hash":"d6456bdf9dd6feab","seed":1,"metrics":{"delivery_ratio":0.31114808652246256,"avg_hopcount":2.9999999999999982,"overhead_ratio":43.27272727272727,"avg_latency":1553.0486680028573,"created":601.0},"fingerprint":{"created":601,"transmissions":8279,"delivered_events":187,"delivered_unique":187,"buffer_drops":8293,"incoming_rejects":0,"expirations":0,"aborted_transfers":2740,"refused_receipts":0,"immunity_purges":0,"delivery_ratio_micro":311148,"overhead_milli":43272,"avg_hopcount_milli":2999,"avg_latency_milli":1553048,"events":{"generated":601,"replicated":8092,"delivered":187,"delivered_first":187,"dropped_evicted":8293,"dropped_rejected":0,"dropped_immunity":0,"refused":0,"gossip_merges":0,"gossip_records":0,"contacts_up":3987,"contacts_down":3975,"ttl_expired":0,"estimator_samples":0,"invariant_violations":0,"node_crashes":0,"node_reboots":0,"blackouts":0,"blackout_ends":0,"crash_wiped_copies":0,"fault_aborts":0}},"violations":0,"duration_secs":0.193008698}"#;

#[test]
fn checkpoint_parser_reads_cli_lines() {
    let text = format!("{CHECKPOINT_LINE}\n\n{CHECKPOINT_LINE}\n");
    let cells = parse_checkpoint(&text).expect("well-formed checkpoint");
    assert_eq!(cells.len(), 2);
    assert_eq!(cells[0].index, 0);
    assert_eq!(cells[0].config_hash, "d6456bdf9dd6feab");
    assert_eq!(cells[0].duration_secs, 0.193008698);
    assert_eq!(cells[0].fingerprint.events.contacts_up, 3987);
    assert_eq!(parse_checkpoint("").expect("empty is no cells"), vec![]);
}

#[test]
fn checkpoint_parser_reports_bad_input() {
    let torn = &CHECKPOINT_LINE[..CHECKPOINT_LINE.len() / 2];
    let no_hash = CHECKPOINT_LINE.replace("\"config_hash\"", "\"hash\"");
    let bad_duration = CHECKPOINT_LINE.replace("0.193008698", "\"slow\"");
    let bad_fingerprint = CHECKPOINT_LINE.replace("\"created\":601,", "");
    for bad in [
        torn,
        &no_hash,
        &bad_duration,
        &bad_fingerprint,
        "[1, 2]",
        "garbage",
    ] {
        let text = format!("{CHECKPOINT_LINE}\n{bad}\n");
        let err = parse_checkpoint(&text).expect_err("malformed line");
        assert!(err.starts_with("checkpoint line 2"), "{err}");
    }
    let missing = std::env::temp_dir().join("sdsrp-benchmark-no-such-checkpoint.jsonl");
    assert!(read_checkpoint(&missing).is_err());
}

#[test]
fn fleet_line_parser() {
    let stderr = "\rsweep: 55/56 runs done    \rsweep: 56/56 runs done    \n\
                  \rfleet: 2 workers (subprocess), 56 dispatched, 3 retries, 1 lost, 8.4s wall\n\
                  fleet: worker 0 (pid 12) 28 cells, 94.1% busy\n";
    assert_eq!(
        parse_fleet_line(stderr),
        Ok(Some(FleetSummary {
            retries: 3,
            workers_lost: 1
        }))
    );
    assert_eq!(
        parse_fleet_line("sweep: 56 runs (56 executed, 0 resumed)\n"),
        Ok(None)
    );
    assert_eq!(parse_fleet_line(""), Ok(None));
    for bad in [
        "fleet: 2 workers (subprocess), 56 dispatched, many retries, 0 lost, 8.4s wall",
        "fleet: 2 workers (subprocess), 56 dispatched, 0 retries, 8.4s wall",
        "fleet: 2 workers (subprocess), 56 dispatched",
    ] {
        assert!(parse_fleet_line(bad).is_err(), "{bad}");
    }
}

#[test]
fn vm_hwm_parser() {
    let status =
        "Name:\tdtn-scenario\nVmPeak:\t  20000 kB\nVmHWM:\t    3788 kB\nVmRSS:\t 3700 kB\n";
    assert_eq!(vm_hwm_kb(status), Some(3788));
    // A zombie's status has no memory lines.
    assert_eq!(vm_hwm_kb("Name:\tdtn-scenario\nState:\tZ (zombie)\n"), None);
    assert_eq!(vm_hwm_kb("VmHWM:\tlots kB\n"), None);
}
