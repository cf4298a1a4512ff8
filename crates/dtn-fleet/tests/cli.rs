//! The sweep front end both binaries share (`dtn_fleet::cli`): a runner
//! parsed from fleet flags gives the in-process result, its failures
//! come back as errors, and its `fleet:` summary line keeps the shape
//! harnesses parse.

use dtn_fleet::cli::{report_sweep, SweepRunner};
use dtn_fleet::{run_fleet, FleetOptions, SubprocessTransport};
use dtn_sim::config::{presets, PolicyKind};
use dtn_sim::sweep::{materialize_jobs, SweepAxis, SweepOptions, SweepSpec};
use std::path::PathBuf;

/// 2 axis points x 2 policies x 2 seeds = 8 sub-second cells.
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

const WORKER_BIN: &str = env!("CARGO_BIN_EXE_dtn-fleet-worker");

/// Parses `args` the way `dtn-scenario` and the figure binaries do.
fn runner(args: &[&str]) -> Result<SweepRunner, String> {
    let mut runner = SweepRunner::default();
    let mut it = args.iter().map(|s| s.to_string());
    while let Some(flag) = it.next() {
        assert!(
            runner.parse_flag(&flag, &mut it)?,
            "not a fleet flag: {flag}"
        );
    }
    Ok(runner)
}

#[test]
fn fleet_runner_returns_the_in_process_output() {
    let spec = quick_spec();
    let local = runner(&["--workers", "0"])
        .unwrap()
        .run(&spec, SweepOptions::default())
        .expect("in-process sweep");
    assert!(local.jobs.errors.is_empty());
    let fleet = runner(&["--workers", "2", "--worker-bin", WORKER_BIN])
        .unwrap()
        .run(&spec, SweepOptions::default())
        .expect("fleet sweep");
    assert_eq!(fleet, local);
}

#[test]
fn a_cell_lost_past_its_retries_fails_the_sweep() {
    let marker = std::env::temp_dir().join(format!("dtn-fleet-cli-{}.marker", std::process::id()));
    let _ = std::fs::remove_file(&marker);
    let fail_once = format!("*:{}", marker.display());
    let out = runner(&[
        "--workers",
        "1",
        "--worker-bin",
        WORKER_BIN,
        "--retries",
        "0",
        "--worker-arg",
        "--fail-once",
        "--worker-arg",
        &fail_once,
    ])
    .unwrap()
    .run(&quick_spec(), SweepOptions::default())
    .expect("the sweep finishes");
    let _ = std::fs::remove_file(&marker);
    assert_eq!(out.jobs.errors.len(), 1, "{:?}", out.jobs.errors);
    assert_eq!(out.jobs.runs.iter().flatten().count(), 7);
    assert!(!report_sweep("test", &out.jobs));
}

#[test]
fn unknown_transport_and_missing_worker_are_errors() {
    // Not a fleet flag: the binaries report it as an unknown argument.
    let mut args = ["tcp".to_string()].into_iter();
    assert_eq!(
        SweepRunner::default().parse_flag("--transport", &mut args),
        Ok(false)
    );

    let missing = runner(&["--workers", "1", "--worker-bin", "/no/such/worker-bin"])
        .unwrap()
        .run(&quick_spec(), SweepOptions::default());
    assert!(missing.is_err(), "a fleet without workers ran");
}

#[test]
fn fleet_line_has_the_parsed_shape() {
    let stats = run_fleet(
        &materialize_jobs(&quick_spec()),
        &SubprocessTransport::new(PathBuf::from(WORKER_BIN)),
        &FleetOptions {
            workers: 2,
            ..FleetOptions::default()
        },
    )
    .expect("fleet runs")
    .stats;
    let line = stats.to_string();
    // The rule the benchmark harness parses the line by.
    assert!(
        line.starts_with("fleet: 2 workers (subprocess), "),
        "{line}"
    );
    assert!(line.contains(" dispatched"), "{line}");
    let count = |suffix: &str| {
        line.split(", ")
            .find_map(|part| part.strip_suffix(suffix))
            .and_then(|n| n.trim().parse::<u64>().ok())
    };
    assert_eq!(count(" retries"), Some(stats.retries), "{line}");
    assert_eq!(count(" lost"), Some(stats.workers_lost), "{line}");
    assert_eq!(count(" dispatched"), Some(8), "{line}");
}
