//! Checkpoint/resume round-trip tests for the hardened sweep runner:
//! a run killed partway and resumed from its checkpoint must reproduce
//! the uninterrupted run bit-identically — same per-run fingerprints,
//! same aggregated cells, same event totals.

use sdsrp::sim::config::{presets, PolicyKind};
use sdsrp::sim::scenario_gen::random_scenario;
use sdsrp::sim::sweep::{
    load_checkpoint, run_sweep, SweepAxis, SweepCheckpoint, SweepOptions, SweepSpec,
};
use std::path::PathBuf;

fn quick_spec() -> SweepSpec {
    let mut base = presets::smoke();
    base.duration_secs = 600.0;
    base.n_nodes = 20;
    SweepSpec {
        base,
        axis: SweepAxis::InitialCopies(vec![8, 16]),
        policies: vec![PolicyKind::Fifo, PolicyKind::Sdsrp],
        seeds: vec![1, 2],
        validate: false,
    }
}

fn temp_path(name: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("sdsrp-{}-{name}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);
    path
}

fn with_checkpoint(path: &std::path::Path, resume: bool) -> SweepOptions<'static> {
    SweepOptions {
        checkpoint: Some(SweepCheckpoint {
            path: path.to_path_buf(),
            resume,
        }),
        ..SweepOptions::default()
    }
}

#[test]
fn killed_and_resumed_sweep_is_bit_identical() {
    let spec = quick_spec();
    let ck_full = temp_path("full");
    let ck_cut = temp_path("cut");

    // Uninterrupted reference run, streaming its checkpoint.
    let reference = run_sweep(&spec, &with_checkpoint(&ck_full, false));
    assert!(reference.jobs.errors.is_empty());
    assert_eq!(reference.jobs.executed, 8);
    assert_eq!(reference.jobs.resumed, 0);

    // Simulate a mid-run kill: keep only the first 3 finished cells
    // (the JSONL is completion-ordered, arbitrary vs job order), plus a
    // truncated half-written final line, as a crash would leave behind.
    let body = std::fs::read_to_string(&ck_full).expect("checkpoint written");
    let lines: Vec<&str> = body.lines().collect();
    assert_eq!(lines.len(), 8, "one JSONL line per finished run");
    let mut partial = lines[..3].join("\n");
    partial.push('\n');
    partial.push_str(&lines[3][..lines[3].len() / 2]);
    std::fs::write(&ck_cut, &partial).expect("write cut checkpoint");
    assert_eq!(load_checkpoint(&ck_cut).len(), 3, "torn tail line ignored");

    // Resume from the survivors.
    let resumed = run_sweep(&spec, &with_checkpoint(&ck_cut, true));
    assert!(resumed.jobs.errors.is_empty());
    assert_eq!(resumed.jobs.resumed, 3);
    assert_eq!(resumed.jobs.executed, 5);

    // Bit-identical to the uninterrupted run: every per-run fingerprint,
    // every aggregated cell, and the folded event totals.
    assert_eq!(resumed.jobs.runs, reference.jobs.runs);
    assert_eq!(resumed.cells, reference.cells);
    assert_eq!(resumed.jobs.totals, reference.jobs.totals);

    // The repaired checkpoint is complete again: a second resume runs
    // nothing at all and still reproduces the same output.
    let restored = run_sweep(&spec, &with_checkpoint(&ck_cut, true));
    assert_eq!(restored.jobs.executed, 0);
    assert_eq!(restored.jobs.resumed, 8);
    assert_eq!(restored.jobs.runs, reference.jobs.runs);
    assert_eq!(restored.cells, reference.cells);
    assert_eq!(restored.jobs.totals, reference.jobs.totals);

    let _ = std::fs::remove_file(&ck_full);
    let _ = std::fs::remove_file(&ck_cut);
}

#[test]
fn resume_restores_every_job_of_a_repeated_config() {
    // The occupancy axis leaves the Fifo baseline unchanged, so its
    // config (and hash) repeats at every threshold.
    let mut spec = quick_spec();
    spec.axis = SweepAxis::OccupancyThreshold(vec![0.6, 0.9]);
    spec.policies = vec![
        PolicyKind::Fifo,
        PolicyKind::OccupancyGate { threshold: 0.8 },
    ];
    spec.seeds = vec![1];
    let ck = temp_path("repeats");
    let reference = run_sweep(&spec, &with_checkpoint(&ck, false));
    assert!(reference.jobs.errors.is_empty());
    assert_eq!(reference.jobs.executed, 4);
    let lines = |path: &std::path::Path| std::fs::read_to_string(path).unwrap().lines().count();
    assert_eq!(lines(&ck), 4, "one line per finished job");
    assert_eq!(load_checkpoint(&ck).len(), 3, "three distinct configs");

    for _ in 0..2 {
        let resumed = run_sweep(&spec, &with_checkpoint(&ck, true));
        assert_eq!(resumed.jobs.executed, 0);
        assert_eq!(resumed.jobs.resumed, 4);
        assert_eq!(resumed.jobs.runs, reference.jobs.runs);
        assert_eq!(resumed.cells, reference.cells);
        assert_eq!(resumed.jobs.totals, reference.jobs.totals);
        assert_eq!(lines(&ck), 3, "the rewrite holds each hash once");
    }
    let _ = std::fs::remove_file(&ck);
}

#[test]
fn resume_against_missing_file_runs_everything() {
    let spec = quick_spec();
    let ck = temp_path("fresh");
    // --resume with no prior checkpoint is a cold start, not an error.
    let out = run_sweep(&spec, &with_checkpoint(&ck, true));
    assert!(out.jobs.errors.is_empty());
    assert_eq!(out.jobs.executed, 8);
    assert_eq!(out.jobs.resumed, 0);
    assert_eq!(load_checkpoint(&ck).len(), 8);
    let _ = std::fs::remove_file(&ck);
}

#[test]
fn checkpoint_keys_are_config_hashes() {
    let spec = quick_spec();
    let ck = temp_path("keys");
    let out = run_sweep(&spec, &with_checkpoint(&ck, false));
    let restored = load_checkpoint(&ck);
    assert_eq!(restored.len(), 8);
    for run in out.jobs.runs.iter().flatten() {
        let hit = restored
            .get(&run.config_hash)
            .unwrap_or_else(|| panic!("hash {} missing from checkpoint", run.config_hash));
        assert_eq!(hit, run);
        assert_eq!(run.config_hash.len(), 16, "FNV-1a manifest hash format");
    }
    let _ = std::fs::remove_file(&ck);
}

#[test]
fn fuzz_cases_checkpoint_and_resume_too() {
    // The dtn-fuzz path goes through the same runner with generated
    // scenarios; spot-check the round trip on a couple of fuzz cells.
    use sdsrp::sim::sweep::{run_cells, CellJob};
    let jobs: Vec<CellJob> = (0..2u64)
        .map(|seed| {
            let mut cfg = random_scenario(seed);
            // Keep the integration test fast regardless of the drawn
            // duration.
            cfg.duration_secs = 200.0;
            CellJob {
                label: cfg.name.clone(),
                policy: cfg.policy.label().to_string(),
                cfg,
            }
        })
        .collect();
    let ck = temp_path("fuzz");
    let first = run_cells(jobs.clone(), &with_checkpoint(&ck, false));
    assert!(first.errors.is_empty());
    assert_eq!(first.executed, 2);
    let second = run_cells(jobs, &with_checkpoint(&ck, true));
    assert_eq!(second.executed, 0);
    assert_eq!(second.resumed, 2);
    assert_eq!(second.runs, first.runs);
    assert_eq!(second.totals, first.totals);
    let _ = std::fs::remove_file(&ck);
}
