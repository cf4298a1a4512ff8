//! Quick single-point comparison of the paper's four policies at the
//! Table II centre operating point (one seed) — a fast sanity check of
//! the headline ordering before running the full sweeps.
//!
//! `--telemetry BASE` additionally writes one JSONL event log plus run
//! manifest per policy (`BASE-<policy>.jsonl[.manifest.json]`).
//! `--validate` runs every policy with invariant checking and the
//! estimator oracle: the per-policy line gains mean/max relative errors
//! of the Eq. 14/15 estimates, the manifest gains the estimator
//! metrics, and any invariant violation aborts the process non-zero.
//! `--validate-cells` instead routes the four policies through the
//! hardened cell runner: a panicking policy is reported as a structured
//! cell error while the others still run and print.
//! `--churn` runs the delivery-ratio-vs-churn-rate sweep instead: the
//! paper's four policies plus the two congestion-adaptive variants
//! (occupancy gate, tiered retention) across escalating node-crash
//! rates, fully validated, rendered as the headline robustness table,
//! over `--seeds N` seeds (default 2). A panicked run or an invariant
//! violation exits 1 after the table has printed.
//! An unknown flag, or a missing or malformed value, prints the usage
//! and exits 2.

use dtn_analysis::churn::{ChurnPoint, ChurnTable};
use dtn_fleet::cli::report_sweep;
use dtn_sim::replay::manifest_for_run;
use dtn_sim::sweep::{run_cells, run_sweep, CellJob, SweepAxis, SweepOptions, SweepSpec};
use dtn_telemetry::{JsonlSink, Recorder};
use dtn_validate::ValidateConfig;

fn run_hardened_cells() {
    let jobs: Vec<CellJob> = dtn_sim::config::PolicyKind::paper_four()
        .into_iter()
        .map(|policy| {
            let mut cfg = dtn_sim::config::presets::random_waypoint_paper();
            cfg.policy = policy;
            CellJob {
                label: cfg.name.clone(),
                policy: policy.label().to_string(),
                cfg,
            }
        })
        .collect();
    let opts = SweepOptions {
        validate: true,
        ..SweepOptions::default()
    };
    let out = run_cells(jobs, &opts);
    for run in out.runs.iter().flatten() {
        println!(
            "{:<16} ratio {:.3} overhead {:6.2} hops {:.2} violations {}",
            dtn_sim::config::PolicyKind::paper_four()[run.index].label(),
            run.metrics.delivery_ratio,
            run.metrics.overhead_ratio,
            run.metrics.avg_hopcount,
            run.violations,
        );
    }
    if !report_sweep("headline", &out) {
        std::process::exit(1);
    }
}

/// The delivery-vs-churn headline: every paper policy plus the two
/// congestion-adaptive variants across the standard crash-rate ladder,
/// invariants checked on every run. Scaled to the smoke operating point
/// so the whole grid finishes in seconds.
fn run_churn_table(seeds: Vec<u64>) {
    let mut base = dtn_sim::config::presets::smoke();
    base.n_nodes = 20;
    base.duration_secs = 900.0;
    let mut policies = dtn_sim::config::PolicyKind::paper_four().to_vec();
    policies.push(dtn_sim::config::PolicyKind::OccupancyGate { threshold: 0.8 });
    policies.push(dtn_sim::config::PolicyKind::TieredRetention {
        tiers: 4,
        threshold: 0.9,
    });
    let spec = SweepSpec {
        base,
        axis: SweepAxis::churn_rates(),
        policies,
        seeds,
        validate: true,
    };
    let out = run_sweep(&spec, &SweepOptions::default());
    let passed = report_sweep("churn", &out.jobs);
    let points: Vec<ChurnPoint> = out
        .cells
        .iter()
        .map(|c| ChurnPoint {
            rate: c.axis_value,
            policy: c.policy.clone(),
            delivery_ratio: c.delivery_ratio,
            runs: c.runs,
        })
        .collect();
    let table = ChurnTable::from_points(&points);
    println!("delivery ratio vs node crash rate (crashes/node-hour):\n");
    print!("{}", table.render_markdown());
    println!(
        "\nfaults injected: {} crash(es), {} wiped copies{}",
        out.jobs.totals.node_crashes,
        out.jobs.totals.crash_wiped_copies,
        if passed { "; all invariants held" } else { "" }
    );
    if !passed {
        std::process::exit(1);
    }
}

/// Parsed `headline` flags.
#[derive(Debug, Default, PartialEq)]
struct Args {
    telemetry_base: Option<String>,
    validate: bool,
    validate_cells: bool,
    churn: bool,
    seeds: Vec<u64>,
}

/// Parses `args` (the program name excluded). `Err` names an unknown
/// flag or a missing or malformed value.
fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        seeds: vec![1, 2],
        ..Args::default()
    };
    let mut args = args.into_iter();
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--telemetry" => parsed.telemetry_base = Some(value()?),
            "--validate" => parsed.validate = true,
            "--validate-cells" => parsed.validate_cells = true,
            "--churn" => parsed.churn = true,
            "--seeds" => {
                let n: u64 = value()?
                    .parse()
                    .map_err(|_| "--seeds needs a number".to_string())?;
                parsed.seeds = (1..=n.max(1)).collect();
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(parsed)
}

fn main() {
    let mut args = std::env::args();
    let program = args.next().unwrap_or_default();
    let args = parse_args(args).unwrap_or_else(|e| {
        eprintln!(
            "{e}\nusage: {program} [--telemetry BASE] [--validate] [--validate-cells] \
             [--churn [--seeds N]]"
        );
        std::process::exit(2);
    });
    if args.churn {
        run_churn_table(args.seeds);
        return;
    }
    if args.validate_cells {
        run_hardened_cells();
        return;
    }

    let mut violations = 0u64;
    for policy in dtn_sim::config::PolicyKind::paper_four() {
        let mut cfg = dtn_sim::config::presets::random_waypoint_paper();
        cfg.policy = policy;
        let mut world = dtn_sim::world::World::build(&cfg);
        let jsonl_path = args
            .telemetry_base
            .as_ref()
            .map(|base| format!("{base}-{}.jsonl", policy.label().to_lowercase()));
        if let Some(path) = &jsonl_path {
            let sink =
                JsonlSink::create(std::path::Path::new(path)).expect("create telemetry file");
            world.attach_recorder(Recorder::enabled(1024).with_sink(Box::new(sink)));
        }
        if args.validate {
            world.enable_validation(ValidateConfig::default());
        }
        let started = std::time::Instant::now();
        let out = world.finish();
        let (r, validation, recorder) = (out.report, out.validation, out.recorder);
        print!(
            "{:<16} ratio {:.3} overhead {:6.2} hops {:.2} drops {} rejects {}",
            policy.label(),
            r.delivery_ratio(),
            r.overhead_ratio(),
            r.avg_hopcount(),
            r.buffer_drops(),
            r.incoming_rejects()
        );
        if let Some(v) = &validation {
            print!(
                "  est-err m {:.3}/{:.3} n {:.3}/{:.3}",
                v.estimator_m.mean(),
                v.estimator_m.max,
                v.estimator_n.mean(),
                v.estimator_n.max
            );
            if !v.ok() {
                violations += v.violation_count;
                eprintln!("\n{}", v.summary());
                for viol in &v.violations {
                    eprintln!("  {viol}");
                }
            }
        }
        println!();
        if let Some(path) = &jsonl_path {
            if let Some(err) = recorder.sink_error() {
                eprintln!("telemetry export to {path} failed: {err}");
                std::process::exit(1);
            }
            let manifest = manifest_for_run(&cfg, &r, &recorder, started.elapsed().as_secs_f64());
            let manifest_path = format!("{path}.manifest.json");
            std::fs::write(&manifest_path, manifest.to_json()).expect("write manifest");
            eprintln!("telemetry: {path} (manifest: {manifest_path})");
        }
    }
    if violations > 0 {
        eprintln!("{violations} invariant violations — failing");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_every_flag() {
        let args = parse(&[
            "--telemetry",
            "base",
            "--validate",
            "--validate-cells",
            "--churn",
            "--seeds",
            "3",
        ])
        .expect("parses");
        assert_eq!(
            args,
            Args {
                telemetry_base: Some("base".into()),
                validate: true,
                validate_cells: true,
                churn: true,
                seeds: vec![1, 2, 3],
            }
        );
        assert_eq!(parse(&[]).expect("parses").seeds, [1, 2]);
        assert_eq!(parse(&["--seeds", "0"]).expect("parses").seeds, [1]);
    }

    #[test]
    fn unknown_flags_and_missing_or_malformed_values_are_errors() {
        let err = |args: &[&str]| parse(args).expect_err("parse fails");
        assert_eq!(err(&["--wat"]), "unknown argument \"--wat\"");
        assert_eq!(err(&["--seeds"]), "--seeds needs a value");
        assert_eq!(err(&["--telemetry"]), "--telemetry needs a value");
        assert_eq!(err(&["--seeds", "two"]), "--seeds needs a number");
    }
}
