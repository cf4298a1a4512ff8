//! End-to-end fleet tests against real subprocess workers: bit-identical
//! distribution, multi-source checkpoint merge/resume, and supervision
//! (worker kills, hangs, spawn failures, protocol mismatches) under
//! fault injection.

use dtn_fleet::{run_fleet, FleetOptions, SubprocessTransport};
use dtn_sim::config::{presets, PolicyKind};
use dtn_sim::sweep::{
    aggregate_sweep, load_checkpoint, materialize_jobs, run_sweep, SweepAxis, SweepCheckpoint,
    SweepOptions, SweepSpec,
};
use dtn_telemetry::{hash_config_json, SweepEvent};
use std::path::PathBuf;
use std::sync::Mutex;

/// 2 axis points x 2 policies x 2 seeds = 8 cells, each well under a
/// second — big enough to spread over workers, small enough for CI.
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

/// An occupancy sweep whose `Fifo` baseline repeats one config at both
/// thresholds: 2 axis points x 2 policies x 1 seed = 4 cells, 3 configs.
fn repeated_config_spec() -> SweepSpec {
    SweepSpec {
        axis: SweepAxis::OccupancyThreshold(vec![0.6, 0.9]),
        policies: vec![
            PolicyKind::Fifo,
            PolicyKind::OccupancyGate { threshold: 0.8 },
        ],
        seeds: vec![1],
        ..quick_spec()
    }
}

fn temp_path(name: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("dtn-fleet-{}-{name}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);
    path
}

fn worker_bin() -> PathBuf {
    PathBuf::from(env!("CARGO_BIN_EXE_dtn-fleet-worker"))
}

fn job_hashes(spec: &SweepSpec) -> Vec<String> {
    materialize_jobs(spec)
        .iter()
        .map(|j| hash_config_json(&serde_json::to_string(&j.cfg).expect("config serialises")))
        .collect()
}

/// Each input runs at each worker count; the repeated-config sweep
/// shows that a cell whose config an earlier cell already ran still
/// costs exactly one `Assign`.
#[test]
fn subprocess_fleet_matches_single_process_bit_identically() {
    let repeated = repeated_config_spec();
    let hashes = job_hashes(&repeated);
    assert_eq!(hashes.len(), 4);
    assert_eq!(hashes[0], hashes[2], "the Fifo config repeats");

    let transport = SubprocessTransport::new(worker_bin());
    for (spec, worker_counts) in [(quick_spec(), &[1, 2, 4][..]), (repeated, &[1][..])] {
        let jobs = materialize_jobs(&spec);
        let reference = run_sweep(&spec, &SweepOptions::default());
        assert!(reference.jobs.errors.is_empty());
        for &workers in worker_counts {
            let fleet = run_fleet(
                &jobs,
                &transport,
                &FleetOptions {
                    workers,
                    ..FleetOptions::default()
                },
            )
            .expect("fleet runs");
            let (out, stats) = (aggregate_sweep(&spec, fleet.output), fleet.stats);

            assert!(out.jobs.errors.is_empty(), "{workers} workers");
            assert_eq!(out.jobs.executed, jobs.len());
            assert_eq!(
                out.jobs.runs, reference.jobs.runs,
                "per-run records (fingerprints included) at {workers} workers"
            );
            assert_eq!(out.cells, reference.cells, "aggregated cells");
            assert_eq!(out.jobs.totals, reference.jobs.totals, "event totals");
            assert_eq!(stats.workers, workers);
            assert_eq!(stats.dispatched, jobs.len() as u64, "one Assign per cell");
            assert_eq!(stats.retries, 0);
            assert_eq!(stats.workers_lost, 0);
            assert!(stats.per_worker.iter().all(|w| w.pid != 0));
            assert_eq!(
                stats
                    .per_worker
                    .iter()
                    .map(|w| w.cells_completed)
                    .sum::<usize>(),
                jobs.len()
            );
        }
    }
}

#[test]
fn fleet_resume_merges_main_and_shard_checkpoints_bit_identically() {
    let spec = quick_spec();
    let ck_full = temp_path("ref-full");
    let reference = run_sweep(
        &spec,
        &SweepOptions {
            checkpoint: Some(SweepCheckpoint {
                path: ck_full.clone(),
                resume: false,
            }),
            ..SweepOptions::default()
        },
    );
    assert!(reference.jobs.errors.is_empty());
    let body = std::fs::read_to_string(&ck_full).expect("reference checkpoint");
    let lines: Vec<&str> = body.lines().collect();
    assert_eq!(lines.len(), 8);

    // Reconstruct the wreckage a killed 2-worker fleet leaves behind:
    // a main checkpoint with two cells and a torn third line, one shard
    // holding two more cells, and a second shard with one cell plus a
    // torn tail of another. 5 distinct whole cells survive.
    let ck = temp_path("fleet-merge");
    let mut main_body = lines[..2].join("\n");
    main_body.push('\n');
    main_body.push_str(&lines[2][..lines[2].len() / 2]);
    std::fs::write(&ck, &main_body).expect("write main checkpoint");
    let shard0 = dtn_fleet::shard_path(&ck, 0);
    std::fs::write(&shard0, format!("{}\n{}\n", lines[2], lines[3])).expect("write shard 0");
    let shard1 = dtn_fleet::shard_path(&ck, 1);
    std::fs::write(
        &shard1,
        format!("{}\n{}", lines[4], &lines[5][..lines[5].len() / 2]),
    )
    .expect("write shard 1");

    let events: Mutex<Vec<String>> = Mutex::new(Vec::new());
    let record = |ev: &SweepEvent| {
        let kind = serde_json::to_value(ev)["kind"]
            .as_str()
            .map(str::to_string);
        events.lock().unwrap().push(kind.expect("tagged event"));
    };
    let fleet = run_fleet(
        &materialize_jobs(&spec),
        &SubprocessTransport::new(worker_bin()),
        &FleetOptions {
            workers: 2,
            checkpoint: Some(SweepCheckpoint {
                path: ck.clone(),
                resume: true,
            }),
            events: Some(&record),
            ..FleetOptions::default()
        },
    )
    .expect("fleet resumes");
    let out = aggregate_sweep(&spec, fleet.output);

    assert!(out.jobs.errors.is_empty());
    assert_eq!(
        out.jobs.resumed, 5,
        "main(2) + shard0(2) + shard1(1), torn tails dropped"
    );
    assert_eq!(out.jobs.executed, 3);
    assert_eq!(
        out.jobs.runs, reference.jobs.runs,
        "bit-identical to uninterrupted run"
    );
    assert_eq!(out.cells, reference.cells);
    assert_eq!(out.jobs.totals, reference.jobs.totals);
    let kinds = events.lock().unwrap();
    assert_eq!(kinds.iter().filter(|k| *k == "cell_skipped").count(), 5);
    assert!(kinds.iter().any(|k| k == "checkpoint_resumed"));

    // Shards were consumed into the main checkpoint and removed; the
    // main file is whole again (a further resume executes nothing).
    assert!(!shard0.exists(), "consumed shard removed");
    assert!(!shard1.exists(), "consumed shard removed");
    assert!(dtn_fleet::discover_shards(&ck).is_empty());
    assert_eq!(load_checkpoint(&ck).len(), 8);
    let restored = run_sweep(
        &spec,
        &SweepOptions {
            checkpoint: Some(SweepCheckpoint {
                path: ck.clone(),
                resume: true,
            }),
            ..SweepOptions::default()
        },
    );
    assert_eq!(restored.jobs.executed, 0);
    assert_eq!(restored.jobs.resumed, 8);
    assert_eq!(restored.jobs.runs, reference.jobs.runs);

    for path in [ck_full, ck] {
        let _ = std::fs::remove_file(&path);
    }
}

#[test]
fn worker_killed_mid_cell_is_retried_to_completion() {
    let spec = quick_spec();
    let reference = run_sweep(&spec, &SweepOptions::default());
    let victim = job_hashes(&spec)[3].clone();
    let marker = temp_path("fail-once-marker");

    let events: Mutex<Vec<SweepEvent>> = Mutex::new(Vec::new());
    let record = |ev: &SweepEvent| events.lock().unwrap().push(ev.clone());
    let transport = SubprocessTransport {
        extra_args: vec![
            "--fail-once".into(),
            format!("{victim}:{}", marker.display()),
        ],
        ..SubprocessTransport::new(worker_bin())
    };
    let fleet = run_fleet(
        &materialize_jobs(&spec),
        &transport,
        &FleetOptions {
            workers: 2,
            events: Some(&record),
            ..FleetOptions::default()
        },
    )
    .expect("fleet survives the kill");
    let (out, stats) = (aggregate_sweep(&spec, fleet.output), fleet.stats);

    // The sweep completed — the killed worker's cell was re-dispatched
    // and the output is still bit-identical to the reference.
    assert!(out.jobs.errors.is_empty(), "errors: {:?}", out.jobs.errors);
    assert_eq!(out.jobs.runs, reference.jobs.runs);
    assert_eq!(out.cells, reference.cells);
    assert!(stats.workers_lost >= 1, "stats: {stats:?}");
    assert!(stats.retries >= 1);
    assert!(stats.worker_restarts >= 1);
    assert!(stats.dispatched > 8, "the victim cell was dispatched twice");
    // The victim's worker completed a cell before it died (a worker is
    // handed a fourth cell only after finishing its first), and that
    // cell still counts for its slot after the respawn.
    assert_eq!(
        stats
            .per_worker
            .iter()
            .map(|w| w.cells_completed)
            .sum::<usize>(),
        out.jobs.executed,
        "per-worker cells: {:?}",
        stats.per_worker
    );

    let kinds = events.lock().unwrap();
    assert!(
        kinds
            .iter()
            .any(|ev| matches!(ev, SweepEvent::WorkerLost { .. })),
        "worker loss recorded in telemetry"
    );
    assert!(
        kinds.iter().any(|ev| matches!(
            ev,
            SweepEvent::CellDispatched { config_hash, retry, .. }
                if *config_hash == victim && *retry > 0
        )),
        "victim cell re-dispatched"
    );
    let _ = std::fs::remove_file(&marker);
}

#[test]
fn hung_worker_blows_cell_timeout_and_cell_is_retried() {
    let mut spec = quick_spec();
    // 1 axis point x 2 policies x 1 seed = 2 cells keeps the (real)
    // timeout wait short.
    spec.axis = SweepAxis::InitialCopies(vec![8]);
    spec.seeds = vec![1];
    let reference = run_sweep(&spec, &SweepOptions::default());
    let victim = job_hashes(&spec)[0].clone();
    let marker = temp_path("hang-once-marker");

    let transport = SubprocessTransport {
        extra_args: vec![
            "--hang-once".into(),
            format!("{victim}:{}", marker.display()),
        ],
        ..SubprocessTransport::new(worker_bin())
    };
    let fleet = run_fleet(
        &materialize_jobs(&spec),
        &transport,
        &FleetOptions {
            workers: 1,
            cell_timeout_secs: 2.0,
            ..FleetOptions::default()
        },
    )
    .expect("fleet recovers from the hang");
    let (out, stats) = (aggregate_sweep(&spec, fleet.output), fleet.stats);

    assert!(out.jobs.errors.is_empty(), "errors: {:?}", out.jobs.errors);
    assert_eq!(out.jobs.runs, reference.jobs.runs);
    assert!(stats.workers_lost >= 1);
    assert!(stats.retries >= 1);
    let _ = std::fs::remove_file(&marker);
}

#[test]
fn unspawnable_workers_fail_the_fleet_not_hang_it() {
    let spec = quick_spec();
    let transport = SubprocessTransport::new(PathBuf::from("/no/such/worker-bin"));
    let err = run_fleet(
        &materialize_jobs(&spec),
        &transport,
        &FleetOptions::default(),
    )
    .expect_err("no worker can spawn");
    assert!(err.message.contains("no worker could be spawned"), "{err}");
}

#[test]
fn dying_workers_exhaust_budgets_into_structured_cell_errors() {
    // A "worker" that exits immediately without speaking the protocol:
    // every spawn is lost, budgets run out, and the sweep degrades to
    // per-cell errors instead of hanging or aborting.
    let bin = PathBuf::from("/bin/false");
    if !bin.is_file() {
        return; // exotic platform; the test is linux-oriented
    }
    let mut spec = quick_spec();
    spec.axis = SweepAxis::InitialCopies(vec![8]);
    spec.seeds = vec![1]; // 2 cells
    let transport = SubprocessTransport::new(bin);
    let fleet = run_fleet(
        &materialize_jobs(&spec),
        &transport,
        &FleetOptions {
            workers: 1,
            max_cell_retries: 1,
            max_worker_restarts: 2,
            ..FleetOptions::default()
        },
    )
    .expect("fleet degrades gracefully");
    let (out, stats) = (aggregate_sweep(&spec, fleet.output), fleet.stats);
    assert_eq!(out.jobs.errors.len(), 2, "every cell failed structurally");
    assert!(out.jobs.runs.iter().all(|r| r.is_none()));
    assert!(out
        .jobs
        .errors
        .iter()
        .all(|e| e.panic.contains("worker lost") || e.panic.contains("stranded")));
    assert!(stats.workers_lost >= 1);
}

#[test]
fn a_worker_speaking_another_protocol_is_lost_not_respawned() {
    // A "worker" that greets in protocol v2, then reads its stdin until
    // the coordinator closes it, keeping its stdout open and silent: only
    // the Hello version check ends it before heartbeat silence would.
    let sh = PathBuf::from("/bin/sh");
    if !sh.is_file() {
        return; // exotic platform; the test is linux-oriented
    }
    let hello = r#"{"Hello":{"pid":1,"protocol":2}}"#;
    let script = temp_path("v2-worker").with_extension("sh");
    std::fs::write(
        &script,
        format!(
            "printf '%s\\n%s\\n' {} '{hello}'\ncat > /dev/null\n",
            hello.len()
        ),
    )
    .expect("write worker script");
    let mut spec = quick_spec();
    spec.axis = SweepAxis::InitialCopies(vec![8]);
    spec.seeds = vec![1]; // 2 cells

    let events: Mutex<Vec<SweepEvent>> = Mutex::new(Vec::new());
    let record = |ev: &SweepEvent| events.lock().unwrap().push(ev.clone());
    let transport = SubprocessTransport {
        extra_args: vec![script.display().to_string()],
        ..SubprocessTransport::new(sh)
    };
    let fleet = run_fleet(
        &materialize_jobs(&spec),
        &transport,
        &FleetOptions {
            workers: 1,
            events: Some(&record),
            ..FleetOptions::default()
        },
    )
    .expect("the fleet finishes");
    let _ = std::fs::remove_file(&script);
    let (out, stats) = (aggregate_sweep(&spec, fleet.output), fleet.stats);

    assert_eq!(out.jobs.errors.len(), 2, "every cell failed structurally");
    assert!(out.jobs.runs.iter().all(|r| r.is_none()));
    assert_eq!(stats.workers_lost, 1);
    assert_eq!(stats.worker_restarts, 0, "a respawn would mismatch again");
    assert!(
        events.lock().unwrap().iter().any(|ev| matches!(
            ev,
            SweepEvent::WorkerLost { reason, .. } if reason.contains("protocol mismatch")
        )),
        "the loss names the mismatch"
    );
}

#[test]
fn run_fleet_accepts_arbitrary_job_lists() {
    // The fuzz-style entry point: a raw job list, no SweepSpec.
    use dtn_sim::sweep::{run_cells, CellJob};
    let mut cfg = presets::smoke();
    cfg.duration_secs = 300.0;
    cfg.n_nodes = 12;
    let jobs: Vec<CellJob> = [1u64, 2]
        .iter()
        .map(|&seed| {
            let mut cfg = cfg.clone();
            cfg.seed = seed;
            CellJob {
                label: format!("fuzz-{seed}"),
                policy: cfg.policy.label().to_string(),
                cfg,
            }
        })
        .collect();
    let reference = run_cells(jobs.clone(), &SweepOptions::default());
    let fleet = run_fleet(
        &jobs,
        &SubprocessTransport::new(worker_bin()),
        &FleetOptions {
            workers: 2,
            ..FleetOptions::default()
        },
    )
    .expect("fleet runs");
    assert!(fleet.output.errors.is_empty());
    assert_eq!(fleet.output.runs, reference.runs);
    assert_eq!(fleet.output.totals, reference.totals);
}
