//! The sweep front end shared by `dtn-scenario --sweep`, the figure
//! binaries and `dtn-fuzz`: the six fleet flags, the one place a fleet
//! is built from them, and the progress line and summary every sweep
//! ends with.
//!
//! ```no_run
//! use dtn_fleet::cli::{report_sweep, SweepRunner};
//! use dtn_sim::sweep::SweepOptions;
//! # fn spec() -> dtn_sim::sweep::SweepSpec { unimplemented!() }
//!
//! let mut runner = SweepRunner::default();
//! let mut args = std::env::args().skip(1);
//! while let Some(flag) = args.next() {
//!     if !runner.parse_flag(&flag, &mut args)? {
//!         return Err(format!("unknown argument {flag:?}"));
//!     }
//! }
//! let out = runner.run(&spec(), SweepOptions::default())?;
//! std::process::exit(if report_sweep("sweep", &out.jobs) { 0 } else { 1 });
//! # Ok::<(), String>(())
//! ```

use crate::{locate_worker, run_fleet, FleetOptions, SubprocessTransport};
use dtn_sim::sweep::{
    aggregate_sweep, materialize_jobs, run_cells, CellJob, CellsOutput, SweepOptions, SweepOutput,
    SweepProgress, SweepSpec,
};
use dtn_telemetry::SweepEvent;
use std::io::Write as _;
use std::path::PathBuf;

/// The fleet flags as they appear in a usage message.
pub const FLEET_USAGE: &str = "[--workers N [--worker-bin FILE] [--cell-timeout SECS]\n\
     \t\t[--worker-timeout SECS] [--retries N] [--worker-arg ARG]...]";

/// Runs sweep specs in-process (`--workers 0`, the default) or on
/// subprocess workers, configured by the fleet flags.
pub struct SweepRunner {
    /// `--workers N`: worker slots; 0 runs in-process with `run_sweep`.
    workers: usize,
    /// `--worker-bin FILE`; `None` uses [`locate_worker`].
    worker_bin: Option<PathBuf>,
    /// `--cell-timeout SECS` (0 disables).
    cell_timeout: f64,
    /// `--worker-timeout SECS` of silence before a worker is torn down.
    worker_timeout: f64,
    /// `--retries N` re-dispatches per cell after worker losses.
    retries: u32,
    /// Repeatable `--worker-arg ARG`, appended to every worker's
    /// command line (the `--fail-once`/`--hang-once` hooks).
    worker_args: Vec<String>,
}

impl Default for SweepRunner {
    fn default() -> Self {
        SweepRunner {
            workers: 0,
            worker_bin: None,
            cell_timeout: 0.0,
            worker_timeout: 30.0,
            retries: 2,
            worker_args: Vec::new(),
        }
    }
}

impl SweepRunner {
    /// Reads `flag` if it is one of the fleet flags, taking its value
    /// from `args`. `Ok(false)` means `flag` is not a fleet flag; `Err`
    /// names a missing or malformed value.
    pub fn parse_flag(
        &mut self,
        flag: &str,
        args: &mut impl Iterator<Item = String>,
    ) -> Result<bool, String> {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag {
            "--workers" => self.workers = number(flag, value()?)?,
            "--worker-bin" => self.worker_bin = Some(value()?.into()),
            "--cell-timeout" => self.cell_timeout = number(flag, value()?)?,
            "--worker-timeout" => self.worker_timeout = number(flag, value()?)?,
            "--retries" => self.retries = number(flag, value()?)?,
            "--worker-arg" => self.worker_args.push(value()?),
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// Runs `spec`: its [`materialize_jobs`] list through
    /// [`SweepRunner::run_jobs`], with [`SweepSpec::validate`] merged
    /// into `opts`, folded by [`aggregate_sweep`].
    pub fn run(&self, spec: &SweepSpec, opts: SweepOptions<'_>) -> Result<SweepOutput, String> {
        let validate = opts.validate || spec.validate;
        let out = self.run_jobs(materialize_jobs(spec), SweepOptions { validate, ..opts })?;
        Ok(aggregate_sweep(spec, out))
    }

    /// Runs `jobs`. With `--workers 0` this is [`run_cells`] under
    /// `opts`; otherwise the fleet runs them with `opts`' checkpoint,
    /// validation and progress (its thread counts do not apply), prints
    /// worker spawns and losses as JSONL plus the `fleet:` summary and
    /// per-worker lines to stderr. `Err` means no job ran: the worker
    /// binary is missing or no worker could be spawned.
    pub fn run_jobs(
        &self,
        jobs: Vec<CellJob>,
        opts: SweepOptions<'_>,
    ) -> Result<CellsOutput, String> {
        if self.workers == 0 {
            return Ok(run_cells(jobs, &opts));
        }
        let transport = SubprocessTransport {
            worker_bin: match &self.worker_bin {
                Some(path) => path.clone(),
                None => locate_worker().map_err(|e| e.to_string())?,
            },
            extra_args: self.worker_args.clone(),
        };
        let events = |ev: &SweepEvent| {
            if matches!(
                ev,
                SweepEvent::WorkerSpawned { .. } | SweepEvent::WorkerLost { .. }
            ) {
                eprintln!("\r{}    ", ev.to_jsonl());
            }
        };
        let fleet = run_fleet(
            &jobs,
            &transport,
            &FleetOptions {
                workers: self.workers,
                validate: opts.validate,
                checkpoint: opts.checkpoint,
                cell_timeout_secs: self.cell_timeout,
                worker_timeout_secs: self.worker_timeout,
                max_cell_retries: self.retries,
                progress: opts.progress,
                events: Some(&events),
                ..FleetOptions::default()
            },
        )
        .map_err(|e| e.to_string())?;
        eprintln!("\r{}", fleet.stats);
        for w in &fleet.stats.per_worker {
            eprintln!(
                "fleet: worker {} (pid {}) {} cells, {:.1}% busy{}",
                w.worker,
                w.pid,
                w.cells_completed,
                w.utilization * 100.0,
                if w.restarts > 0 {
                    format!(", {} restarts", w.restarts)
                } else {
                    String::new()
                }
            );
        }
        Ok(fleet.output)
    }
}

/// `value`, the value given to `flag`, parsed as a number.
pub fn number<T: std::str::FromStr>(flag: &str, value: String) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("{flag} needs a number, not {value:?}"))
}

/// A progress callback that redraws `label: done/total runs done (last:
/// policy @ point)` in place on stderr (stdout carries the tables).
pub fn progress_printer(label: &str) -> impl Fn(SweepProgress) + Sync + '_ {
    move |p| {
        eprint!(
            "\r{label}: {}/{} runs done (last: {} @ {})    ",
            p.completed, p.total, p.policy, p.axis_label
        );
        let _ = std::io::stderr().flush();
    }
}

/// Prints a finished sweep's summary line, fault totals (when faults
/// were injected), checkpoint warning, panicked runs and invariant
/// violations to stderr under `label`. Returns
/// whether the sweep passed: no run panicked and no invariant broke.
pub fn report_sweep(label: &str, out: &CellsOutput) -> bool {
    let t = &out.totals;
    eprintln!(
        "\r{label}: {} runs ({} executed, {} resumed), {} events \
         ({} delivered, {} dropped, {} contacts)",
        out.runs.len(),
        out.executed,
        out.resumed,
        t.total(),
        t.delivered,
        t.dropped(),
        t.contacts_up
    );
    if t.node_crashes + t.blackouts + t.fault_aborts > 0 {
        eprintln!(
            "{label}: faults: {} crash(es) wiping {} copies, {} blackout(s), \
             {} injected abort(s)",
            t.node_crashes, t.crash_wiped_copies, t.blackouts, t.fault_aborts
        );
    }
    if let Some(err) = &out.checkpoint_error {
        eprintln!("warning: {err}");
    }
    for err in &out.errors {
        eprintln!("{label}: {err}");
    }
    if !out.errors.is_empty() {
        eprintln!(
            "{label}: {} run(s) panicked; their seeds are excluded from the tables",
            out.errors.len()
        );
    }
    if out.violations > 0 {
        eprintln!(
            "{label}: {} invariant violation(s) across cells",
            out.violations
        );
    }
    out.errors.is_empty() && out.violations == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<SweepRunner, String> {
        let mut runner = SweepRunner::default();
        let mut it = args.iter().map(|s| s.to_string());
        while let Some(flag) = it.next() {
            if !runner.parse_flag(&flag, &mut it)? {
                return Err(format!("unknown argument {flag:?}"));
            }
        }
        Ok(runner)
    }

    #[test]
    fn parses_every_fleet_flag() {
        let r = parse(&[
            "--workers",
            "3",
            "--worker-bin",
            "w",
            "--cell-timeout",
            "5",
            "--worker-timeout",
            "0.5",
            "--retries",
            "0",
            "--worker-arg",
            "--fail-once",
            "--worker-arg",
            "*:m",
        ])
        .expect("parses");
        assert_eq!(r.workers, 3);
        assert_eq!(r.worker_bin, Some(PathBuf::from("w")));
        assert_eq!((r.cell_timeout, r.worker_timeout), (5.0, 0.5));
        assert_eq!(r.retries, 0);
        assert_eq!(r.worker_args, ["--fail-once", "*:m"]);
    }

    #[test]
    fn bad_values_and_foreign_flags() {
        let err = |args: &[&str]| parse(args).err().expect("parse fails");
        assert_eq!(err(&["--workers"]), "--workers needs a value");
        assert_eq!(
            err(&["--retries", "x"]),
            "--retries needs a number, not \"x\""
        );
        let mut none = std::iter::empty();
        assert_eq!(
            SweepRunner::default().parse_flag("--seeds", &mut none),
            Ok(false)
        );
    }

    #[test]
    fn report_fails_on_panics_and_violations() {
        assert!(report_sweep("t", &CellsOutput::default()));
        let mut faulted = CellsOutput::default();
        faulted.totals.node_crashes = 1;
        assert!(
            report_sweep("t", &faulted),
            "injected faults are no failure"
        );
        let violated = CellsOutput {
            violations: 1,
            ..CellsOutput::default()
        };
        assert!(!report_sweep("t", &violated));
        let panicked = CellsOutput {
            errors: vec![dtn_sim::sweep::CellError {
                index: 0,
                config_hash: "0".into(),
                label: "16".into(),
                policy: "SDSRP".into(),
                seed: 1,
                panic: "boom".into(),
                config: "{}".into(),
            }],
            ..CellsOutput::default()
        };
        assert!(!report_sweep("t", &panicked));
    }
}
