//! Sweep cells that replay a shared contact schedule run exactly as
//! live ones: same fingerprint, same JSONL event stream, at 1 and 2
//! world threads, validated.
//!
//! The sweep runners compute each contact key's events once (the first
//! cell of the key records them) and every later cell of the key
//! replays them. Nothing turns this on or off, so the reference here is
//! a direct `World::build(cfg).finish()`.

use sdsrp::core::units::Bytes;
use sdsrp::sim::config::{presets, PolicyKind, ScenarioConfig};
use sdsrp::sim::replay::fingerprint;
use sdsrp::sim::sweep::{
    materialize_jobs, run_cells, CellJob, ScheduleCache, SweepAxis, SweepCheckpoint, SweepOptions,
    SweepSpec,
};
use sdsrp::sim::World;
use sdsrp::telemetry::{hash_config_json, MemorySink, Recorder};
use sdsrp::validate::{ReportFingerprint, ValidateConfig};
use std::path::PathBuf;

/// 2 buffer sizes × 2 policies × 2 seeds, validated.
fn jobs(base: ScenarioConfig) -> Vec<CellJob> {
    materialize_jobs(&SweepSpec {
        base,
        axis: SweepAxis::BufferMb(vec![2.0, 4.0]),
        policies: vec![PolicyKind::Sdsrp, PolicyKind::CopiesRatio],
        seeds: vec![1, 2],
        validate: true,
    })
}

fn smoke() -> ScenarioConfig {
    let mut cfg = presets::smoke();
    cfg.duration_secs = 1_800.0;
    cfg
}

fn rwp_paper_short() -> ScenarioConfig {
    let mut cfg = presets::random_waypoint_paper();
    cfg.duration_secs = 3_600.0;
    cfg
}

fn epfl_short() -> ScenarioConfig {
    let mut cfg = presets::epfl_paper();
    cfg.duration_secs = 3_600.0;
    cfg
}

/// What a run leaves: its fingerprint, its event count and the FNV-1a
/// digest of its JSONL event stream.
type Outcome = (ReportFingerprint, usize, String);

/// Runs `cfg` validated at `threads` world threads with a JSONL sink,
/// finishing it directly or through `schedules`.
fn run(cfg: &ScenarioConfig, threads: usize, schedules: Option<&ScheduleCache>) -> Outcome {
    let sink = MemorySink::new();
    let mut world = World::build(cfg);
    world.set_threads(threads);
    world.attach_recorder(Recorder::enabled(16).with_sink(Box::new(sink.clone())));
    world.enable_validation(ValidateConfig::default());
    let out = match schedules {
        Some(schedules) => schedules.finish(world),
        None => world.finish(),
    };
    assert!(out.validation.expect("validated").ok(), "{}", cfg.name);
    let events = sink.events();
    let jsonl: String = events.iter().map(|e| e.to_jsonl() + "\n").collect();
    (
        fingerprint(&out.report, out.recorder.totals()),
        events.len(),
        hash_config_json(&jsonl),
    )
}

/// Every cell of `base`'s sweep, run through a shared cache (in job
/// order, and through `run_cells` on two runner threads), matches its
/// direct run at 1 and 2 world threads; both caches end up holding one
/// schedule per seed.
fn check_shared_matches_direct(base: ScenarioConfig) {
    let jobs = jobs(base);
    let direct: Vec<Outcome> = jobs.iter().map(|j| run(&j.cfg, 1, None)).collect();
    assert!(direct.iter().all(|d| d.0.events.contacts_up > 0));
    for threads in [1, 2] {
        let schedules = ScheduleCache::default();
        for (job, want) in jobs.iter().zip(&direct) {
            let got = run(&job.cfg, threads, Some(&schedules));
            assert_eq!(
                &got, want,
                "{} {} seed {}",
                job.label, job.policy, job.cfg.seed
            );
        }
        assert_eq!(schedules.len(), 2);

        let schedules = ScheduleCache::default();
        let out = run_cells(
            jobs.clone(),
            &SweepOptions {
                threads: 2,
                validate: true,
                world_threads: threads,
                schedules: Some(&schedules),
                ..SweepOptions::default()
            },
        );
        assert!(out.errors.is_empty() && out.violations == 0);
        for (cell, want) in out.runs.iter().zip(&direct) {
            assert_eq!(cell.as_ref().expect("cell ran").fingerprint, want.0);
        }
        assert_eq!(schedules.len(), 2);
    }
}

#[test]
fn shared_smoke_cells_match_direct_runs() {
    check_shared_matches_direct(smoke());
}

#[test]
fn shared_rwp_paper_short_cells_match_direct_runs() {
    check_shared_matches_direct(rwp_paper_short());
}

#[test]
fn shared_epfl_short_cells_match_direct_runs() {
    check_shared_matches_direct(epfl_short());
}

/// Crashes and blackouts force contacts down through the tracker, so a
/// sweep with a fault plan runs every cell live and records nothing.
#[test]
fn fault_plan_sweep_records_no_schedule() {
    let mut base = smoke();
    base.faults.crash_rate_per_hour = 1.0;
    base.faults.reboot_secs = 60.0;
    let jobs = jobs(base);
    let schedules = ScheduleCache::default();
    let out = run_cells(
        jobs.clone(),
        &SweepOptions {
            threads: 2,
            validate: true,
            schedules: Some(&schedules),
            ..SweepOptions::default()
        },
    );
    assert!(schedules.is_empty());
    for (cell, job) in out.runs.iter().zip(&jobs) {
        let want = run(&job.cfg, 1, None).0;
        assert_eq!(cell.as_ref().expect("cell ran").fingerprint, want);
    }
}

fn temp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("sdsrp-shared-{}-{name}", std::process::id()))
}

/// Resuming a finished checkpoint runs no cell, so it records nothing.
#[test]
fn resumed_finished_checkpoint_records_no_schedule() {
    let path = temp_path("resume.jsonl");
    let _ = std::fs::remove_file(&path);
    let opts = |resume, schedules| SweepOptions {
        threads: 2,
        checkpoint: Some(SweepCheckpoint {
            path: path.clone(),
            resume,
        }),
        schedules: Some(schedules),
        ..SweepOptions::default()
    };
    let first = ScheduleCache::default();
    let full = run_cells(jobs(smoke()), &opts(false, &first));
    assert_eq!((full.executed, first.len()), (8, 2));
    let resumed = ScheduleCache::default();
    let again = run_cells(jobs(smoke()), &opts(true, &resumed));
    assert_eq!((again.executed, again.resumed), (0, 8));
    assert!(resumed.is_empty());
    assert_eq!(again.runs, full.runs);
    let _ = std::fs::remove_file(&path);
}

/// A schedule replays only into a world with its key.
#[test]
#[should_panic(expected = "replayed into a world keyed")]
fn mismatched_schedule_key_panics() {
    let seed1 = smoke();
    let mut world = World::build(&seed1);
    world.record_schedule();
    let schedule = world.finish().schedule.expect("recorded");
    let mut seed2 = seed1.clone();
    seed2.seed = 2;
    seed2.buffer_capacity = Bytes::from_mb(4.0);
    World::build(&seed2).replay_schedule(schedule);
}
