//! The front end shared by `dtn-scenario`, the figure binaries,
//! `dtn-bench` and `dtn-fuzz`: one flag loop ([`parse_args`]), the sweep
//! flags every sweep command line reads ([`SweepFlags`]: seeds,
//! validation, checkpoint and the six fleet flags), the one place a
//! fleet is built from them, and the progress line, summary and tables
//! every sweep ends with ([`print_sweep`]).
//!
//! ```no_run
//! use dtn_fleet::cli::{parse_args, print_sweep, SweepFlags, SWEEP_USAGE};
//! use dtn_sim::output::Metric;
//! use dtn_sim::sweep::{NamedSweep, SweepOptions};
//!
//! let flags = parse_args(SWEEP_USAGE, SweepFlags::default(), SweepFlags::take);
//! let sweep = NamedSweep::find("copies", false).expect("a named sweep");
//! let spec = flags.spec(dtn_sim::config::presets::smoke(), sweep);
//! let title = format!("delivery ratio vs {}", spec.axis.name());
//! let checkpoint = flags.checkpoint_at(std::path::Path::to_path_buf);
//! let opts = SweepOptions { checkpoint, ..SweepOptions::default() };
//! let tables = vec![(Metric::DeliveryRatio, title, None)];
//! let (_, passed) = print_sweep("sweep", &flags.runner, &spec, opts, tables);
//! std::process::exit(if passed { 0 } else { 1 });
//! ```

use crate::{locate_worker, run_fleet, FleetOptions, SubprocessTransport};
use dtn_sim::config::ScenarioConfig;
use dtn_sim::output::{Metric, SeriesTable};
use dtn_sim::sweep::{
    aggregate_sweep, materialize_jobs, run_cells, CellJob, CellsOutput, NamedSweep, SweepCell,
    SweepCheckpoint, SweepOptions, SweepOutput, SweepProgress, SweepSpec,
};
use dtn_telemetry::SweepEvent;
use std::io::Write as _;
use std::path::PathBuf;

/// The value after `flag`.
pub fn flag_value(flag: &str, args: &mut impl Iterator<Item = String>) -> Result<String, String> {
    args.next().ok_or_else(|| format!("{flag} needs a value"))
}

/// The positive count after `flag`.
pub fn flag_count(flag: &str, args: &mut impl Iterator<Item = String>) -> Result<u64, String> {
    flag_value(flag, args)?
        .parse()
        .ok()
        .filter(|&n| n > 0)
        .ok_or_else(|| format!("{flag} needs a positive number"))
}

/// `value`, the value given to `flag`, parsed as a number.
pub fn number<T: std::str::FromStr>(flag: &str, value: String) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("{flag} needs a number, not {value:?}"))
}

/// [`parse_args`] over `args` (the program name excluded), returning
/// the error instead of exiting.
pub fn parse_flags<T, I: Iterator<Item = String>>(
    mut args: I,
    mut into: T,
    mut take: impl FnMut(&mut T, &str, &mut I) -> Result<bool, String>,
) -> Result<T, String> {
    while let Some(flag) = args.next() {
        if !take(&mut into, &flag, &mut args)? {
            return Err(format!("unknown argument {flag:?}"));
        }
    }
    Ok(into)
}

/// Parses `std::env::args` into `into`: `take` applies one flag,
/// reading its value from the iterator, and returns `Ok(false)` for a
/// flag the binary does not read. That flag, or a malformed value, is a
/// [`usage_error`].
pub fn parse_args<T>(
    usage: &str,
    into: T,
    take: impl FnMut(&mut T, &str, &mut std::env::Args) -> Result<bool, String>,
) -> T {
    let mut args = std::env::args();
    args.next();
    parse_flags(args, into, take).unwrap_or_else(|e| usage_error(usage, &e))
}

/// Prints `err` and the binary's `usage` (its flags) to stderr and
/// exits 2.
pub fn usage_error(usage: &str, err: &str) -> ! {
    let program = std::env::args().next().unwrap_or_default();
    eprintln!("{err}\nusage: {program} {usage}");
    std::process::exit(2);
}

/// The [`SweepFlags`] as they appear in a usage message.
pub const SWEEP_USAGE: &str = "[--seeds N] [--validate-cells] [--checkpoint FILE [--resume]]\n\
     \t[--workers N [--worker-bin FILE] [--cell-timeout SECS]\n\
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
        let mut value = || flag_value(flag, args);
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

/// The sweep flags every sweep command line reads: `--seeds N`,
/// `--validate-cells`, `--checkpoint FILE`, `--resume` and the fleet
/// flags ([`SWEEP_USAGE`]).
pub struct SweepFlags {
    /// Seeds to average over (`--seeds N` is `1..=N`, N at least 1;
    /// three by default).
    pub seeds: Vec<u64>,
    /// Attach the invariant checkers to every cell and fold violation
    /// counts into the results.
    pub validate_cells: bool,
    /// Stream finished cells to this JSONL checkpoint file.
    pub checkpoint: Option<PathBuf>,
    /// Reload the checkpoint and skip the cells it already holds.
    pub resume: bool,
    /// The fleet flags; with the default `--workers 0` sweeps run
    /// in-process.
    pub runner: SweepRunner,
}

impl Default for SweepFlags {
    fn default() -> SweepFlags {
        SweepFlags {
            seeds: vec![1, 2, 3],
            validate_cells: false,
            checkpoint: None,
            resume: false,
            runner: SweepRunner::default(),
        }
    }
}

impl SweepFlags {
    /// Applies `flag` if it is a sweep flag, reading its value from
    /// `args`; `Ok(false)` when it is not one.
    pub fn take(
        &mut self,
        flag: &str,
        args: &mut impl Iterator<Item = String>,
    ) -> Result<bool, String> {
        match flag {
            "--validate-cells" => self.validate_cells = true,
            "--resume" => self.resume = true,
            "--checkpoint" => self.checkpoint = Some(flag_value(flag, args)?.into()),
            "--seeds" => self.seeds = (1..=flag_count(flag, args)?).collect(),
            _ => return self.runner.parse_flag(flag, args),
        }
        Ok(true)
    }

    /// `sweep` over `base` at these seeds, validated under
    /// `--validate-cells`.
    pub fn spec(&self, base: ScenarioConfig, sweep: NamedSweep) -> SweepSpec {
        SweepSpec {
            base,
            axis: sweep.axis,
            policies: sweep.policies,
            seeds: self.seeds.clone(),
            validate: self.validate_cells,
        }
    }

    /// The `--checkpoint` file as `at` maps it, with `--resume`.
    pub fn checkpoint_at(
        &self,
        at: impl FnOnce(&std::path::Path) -> PathBuf,
    ) -> Option<SweepCheckpoint> {
        self.checkpoint.as_deref().map(|path| SweepCheckpoint {
            path: at(path),
            resume: self.resume,
        })
    }
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

/// Runs `spec` through `runner` under `opts` with a `label:` progress
/// line, prints the [`report_sweep`] summary under `label`, then one
/// markdown [`SeriesTable`] per `(metric, title, csv)` on stdout, also
/// written as CSV to `csv` when one is given. Returns the cells and
/// whether the sweep passed. A fleet that cannot start exits 2: a sweep
/// never falls back to a mode the operator did not ask for.
pub fn print_sweep(
    label: &str,
    runner: &SweepRunner,
    spec: &SweepSpec,
    opts: SweepOptions<'_>,
    tables: Vec<(Metric, String, Option<PathBuf>)>,
) -> (Vec<SweepCell>, bool) {
    let progress = progress_printer(label);
    let opts = SweepOptions {
        progress: Some(&progress),
        ..opts
    };
    let out = runner.run(spec, opts).unwrap_or_else(|e| {
        eprintln!("{label}: fleet failed: {e}");
        std::process::exit(2);
    });
    let passed = report_sweep(label, &out.jobs);
    for (metric, title, csv) in tables {
        let table = SeriesTable::from_cells(&title, spec.axis.name(), &out.cells, metric);
        println!("{}", table.to_markdown());
        if let Some(path) = csv {
            if let Some(dir) = path.parent() {
                std::fs::create_dir_all(dir).expect("create out dir");
            }
            std::fs::write(path, table.to_csv()).expect("write csv");
        }
    }
    (out.cells, passed)
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
