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
//! rates, fully validated, rendered as the headline robustness table.

use dtn_analysis::churn::{ChurnPoint, ChurnTable};
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
    for err in &out.errors {
        eprintln!("{err}");
    }
    if !out.errors.is_empty() || out.violations > 0 {
        eprintln!(
            "{} cell error(s), {} invariant violation(s) — failing",
            out.errors.len(),
            out.violations
        );
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
    for err in &out.errors {
        eprintln!("{err}");
    }
    if !out.errors.is_empty() || out.violations > 0 {
        eprintln!(
            "{} cell error(s), {} invariant violation(s) under churn — failing",
            out.errors.len(),
            out.violations
        );
        std::process::exit(1);
    }
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
        "\nfaults injected: {} crash(es), {} wiped copies; all invariants held",
        out.totals.node_crashes, out.totals.crash_wiped_copies
    );
}

fn main() {
    let mut telemetry_base: Option<String> = None;
    let mut validate = false;
    let mut validate_cells = false;
    let mut churn = false;
    let mut seeds = vec![1u64, 2];
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--telemetry" => {
                i += 1;
                telemetry_base = Some(args.get(i).expect("--telemetry needs a path").clone());
            }
            "--validate" => validate = true,
            "--validate-cells" => validate_cells = true,
            "--churn" => churn = true,
            "--seeds" => {
                i += 1;
                let n: u64 = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .expect("--seeds needs a count");
                seeds = (1..=n.max(1)).collect();
            }
            other => eprintln!("warning: ignoring unknown argument {other:?}"),
        }
        i += 1;
    }
    if churn {
        run_churn_table(seeds);
        return;
    }
    if validate_cells {
        run_hardened_cells();
        return;
    }

    let mut violations = 0u64;
    for policy in dtn_sim::config::PolicyKind::paper_four() {
        let mut cfg = dtn_sim::config::presets::random_waypoint_paper();
        cfg.policy = policy;
        let mut world = dtn_sim::world::World::build(&cfg);
        let jsonl_path = telemetry_base
            .as_ref()
            .map(|base| format!("{base}-{}.jsonl", policy.label().to_lowercase()));
        if let Some(path) = &jsonl_path {
            let sink =
                JsonlSink::create(std::path::Path::new(path)).expect("create telemetry file");
            world.attach_recorder(Recorder::enabled(1024).with_sink(Box::new(sink)));
        }
        if validate {
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
