//! Scenario fuzzer: hammer the simulator with seeded random scenarios
//! under full invariant checking.
//!
//! Every case comes from `dtn_sim::scenario_gen::random_scenario`, the
//! same generator the property tests draw from, so a failure replays
//! from its seed alone:
//!
//! ```text
//! dtn-fuzz --cells 50 --validate             # the nightly CI job
//! dtn-fuzz --cells 1 --seed 1234 --validate  # replay case 1234
//! dtn-fuzz --cells 50 --validate --faults    # churn fuzzing
//! ```
//!
//! `--faults` attaches `random_fault_plan(seed)` to every case: random
//! crash/reboot churn, radio blackouts, transfer aborts and clock skew,
//! drawn from a seed-paired RNG so the fault plan is as replayable as
//! the scenario itself.
//!
//! Cells run through the hardened runner (`run_cells`): a panicking
//! case is reported as a structured `CellError` and the remaining cases
//! still run; each failure is followed by its replay command and full
//! config JSON. With `--checkpoint` the finished cases stream to a JSONL
//! file and `--resume` skips them on the next invocation; `--events`
//! streams the lifecycle events as JSONL. The summary is the sweep
//! summary every sweep binary prints, and the exit status is 1 if any
//! case panicked or violated an invariant, 2 on a usage error.

use dtn_fleet::cli::{flag_count, flag_value, number, parse_args, progress_printer, report_sweep};
use dtn_sim::scenario_gen::{random_fault_plan, random_scenario};
use dtn_sim::sweep::{run_cells, CellJob, SweepCheckpoint, SweepOptions};
use dtn_telemetry::manifest::hash_config_json;
use dtn_telemetry::SweepEvent;
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::Mutex;

struct FuzzCli {
    cells: u64,
    seed: u64,
    validate: bool,
    faults: bool,
    threads: usize,
    world_threads: usize,
    checkpoint: Option<PathBuf>,
    resume: bool,
    events: Option<PathBuf>,
}

const USAGE: &str = "[--cells N] [--seed BASE] [--validate] [--faults]\n\
     \t[--threads N] [--world-threads N] [--checkpoint PATH [--resume]] [--events PATH]";

fn parse() -> FuzzCli {
    let init = FuzzCli {
        cells: 50,
        seed: 1,
        validate: false,
        faults: false,
        threads: 0,
        world_threads: 1,
        checkpoint: None,
        resume: false,
        events: None,
    };
    parse_args(USAGE, init, |cli, flag, args| {
        match flag {
            "--cells" => cli.cells = flag_count(flag, args)?,
            "--seed" => cli.seed = number(flag, flag_value(flag, args)?)?,
            "--threads" => cli.threads = number(flag, flag_value(flag, args)?)?,
            "--world-threads" => cli.world_threads = number(flag, flag_value(flag, args)?)?,
            "--validate" => cli.validate = true,
            "--faults" => cli.faults = true,
            "--resume" => cli.resume = true,
            "--checkpoint" => cli.checkpoint = Some(flag_value(flag, args)?.into()),
            "--events" => cli.events = Some(flag_value(flag, args)?.into()),
            _ => return Ok(false),
        }
        Ok(true)
    })
}

fn main() {
    let cli = parse();

    let event_log = cli.events.as_ref().map(|p| {
        Mutex::new(std::fs::File::create(p).unwrap_or_else(|e| {
            eprintln!("cannot create event log {}: {e}", p.display());
            std::process::exit(2);
        }))
    });
    let log_event = |ev: &SweepEvent| {
        if let Some(f) = &event_log {
            let mut f = f.lock().expect("event log lock");
            let _ = writeln!(f, "{}", ev.to_jsonl());
        }
    };

    // Generate the cases up front: deterministic in (--seed, --cells).
    let mut jobs = Vec::with_capacity(cli.cells as usize);
    for i in 0..cli.cells {
        let gen_seed = cli.seed + i;
        let mut cfg = random_scenario(gen_seed);
        if cli.faults {
            cfg.faults = random_fault_plan(gen_seed);
        }
        let config_json = serde_json::to_string(&cfg).expect("config serialises");
        log_event(&SweepEvent::FuzzCaseGenerated {
            index: i,
            seed: gen_seed,
            config_hash: hash_config_json(&config_json),
            policy: cfg.policy.label().to_string(),
            routing: format!("{:?}", cfg.routing),
            n_nodes: cfg.n_nodes as u64,
        });
        jobs.push(CellJob {
            label: cfg.name.clone(),
            policy: cfg.policy.label().to_string(),
            cfg,
        });
    }

    let progress = progress_printer("fuzz");
    let opts = SweepOptions {
        threads: cli.threads,
        validate: cli.validate,
        checkpoint: cli.checkpoint.map(|path| SweepCheckpoint {
            path,
            resume: cli.resume,
        }),
        progress: Some(&progress),
        events: Some(&log_event),
        world_threads: cli.world_threads,
        schedules: None,
    };
    let out = run_cells(jobs, &opts);
    let passed = report_sweep("fuzz", &out);

    // Triage payload per failure: the replay seed and the exact config
    // JSON (feed the seed back, or hand-edit the config and run it with
    // dtn-scenario).
    for err in &out.errors {
        eprintln!(
            "  replay cell #{}: dtn-fuzz --cells 1 --seed {}{}",
            err.index,
            cli.seed + err.index as u64,
            if cli.faults { " --faults" } else { "" }
        );
        eprintln!("  config: {}", err.config);
    }
    if !passed {
        std::process::exit(1);
    }
}
