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
//! case is reported as a structured `CellError` (with the full config
//! JSON for triage) and the remaining cases still run. With
//! `--checkpoint` the finished cases stream to a JSONL file and
//! `--resume` skips them on the next invocation. Exit status is
//! non-zero if any case panicked or violated an invariant.

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

fn usage() -> ! {
    eprintln!(
        "usage: dtn-fuzz [--cells N] [--seed BASE] [--validate] [--faults]\n\
         \x20               [--threads N] [--world-threads N]\n\
         \x20               [--checkpoint PATH [--resume]] [--events PATH]\n\
         \n\
         Runs N random scenarios (generator seeds BASE..BASE+N) through the\n\
         hardened cell runner. --validate attaches the dtn-validate checkers\n\
         to every run. --faults attaches a seeded random fault plan (node\n\
         crashes, blackouts, transfer aborts, clock skew) to every case.\n\
         --threads fans cases out across workers; --world-threads runs\n\
         each world's parallel tick phases on N threads (results are\n\
         bit-identical either way).\n\
         --events streams structured lifecycle events as JSONL.\n\
         Exits non-zero on any panic or invariant violation."
    );
    std::process::exit(2);
}

fn parse() -> FuzzCli {
    let mut cli = FuzzCli {
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
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--cells" => {
                i += 1;
                cli.cells = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--seed" => {
                i += 1;
                cli.seed = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--threads" => {
                i += 1;
                cli.threads = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--world-threads" => {
                i += 1;
                cli.world_threads = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--validate" => cli.validate = true,
            "--faults" => cli.faults = true,
            "--resume" => cli.resume = true,
            "--checkpoint" => {
                i += 1;
                cli.checkpoint = Some(PathBuf::from(args.get(i).unwrap_or_else(|| usage())));
            }
            "--events" => {
                i += 1;
                cli.events = Some(PathBuf::from(args.get(i).unwrap_or_else(|| usage())));
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown argument {other:?}");
                usage();
            }
        }
        i += 1;
    }
    cli
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

    let progress = |p: dtn_sim::sweep::SweepProgress| {
        eprint!(
            "\rfuzz: {}/{} cases done (last: {} @ {})    ",
            p.completed, p.total, p.policy, p.axis_label
        );
        let _ = std::io::stderr().flush();
    };
    let opts = SweepOptions {
        threads: cli.threads,
        validate: cli.validate,
        checkpoint: cli.checkpoint.as_ref().map(|path| SweepCheckpoint {
            path: path.clone(),
            resume: cli.resume,
        }),
        progress: Some(&progress),
        events: Some(&log_event),
        world_threads: cli.world_threads,
        schedules: None,
    };
    let out = run_cells(jobs, &opts);
    eprintln!();

    println!(
        "dtn-fuzz: {} cases ({} executed, {} resumed), {} panicked, {} invariant violation(s), validation {}",
        out.runs.len(),
        out.executed,
        out.resumed,
        out.errors.len(),
        out.violations,
        if cli.validate { "on" } else { "off" },
    );
    if cli.faults {
        println!(
            "faults: {} crash(es), {} blackout(s), {} injected abort(s) across all cases",
            out.totals.node_crashes, out.totals.blackouts, out.totals.fault_aborts,
        );
    }
    println!(
        "events: {} total ({} delivered, {} dropped, {} contacts)",
        out.totals.total(),
        out.totals.delivered,
        out.totals.dropped(),
        out.totals.contacts_up,
    );

    // Full triage payload per failure: the panic, the replay seed, and
    // the exact config JSON (feed it back via --seed, or hand-edit and
    // run with dtn-scenario).
    for err in &out.errors {
        eprintln!("\n{err}");
        eprintln!(
            "  replay: dtn-fuzz --cells 1 --seed {}{}",
            cli.seed + err.index as u64,
            if cli.faults { " --faults" } else { "" }
        );
        eprintln!("  config: {}", err.config);
    }

    if !out.errors.is_empty() || (cli.validate && out.violations > 0) {
        std::process::exit(1);
    }
}
