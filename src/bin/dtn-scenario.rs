//! `dtn-scenario` — run a DTN simulation scenario, or sweep it, from
//! the command line.
//!
//! ```text
//! # run a preset
//! dtn-scenario --preset rwp --policy sdsrp --seed 3
//!
//! # dump a preset's JSON, edit it, run it
//! dtn-scenario --preset epfl --emit-config > my.json
//! dtn-scenario --config my.json --json
//!
//! # sample a buffer-occupancy time series alongside
//! dtn-scenario --preset smoke --timeseries occupancy.csv
//!
//! # export a structured event log (JSONL) plus a run manifest
//! dtn-scenario --preset smoke --telemetry events.jsonl
//!
//! # sweep the Fig. 8 buffer axis, two seeds, with a checkpoint
//! dtn-scenario --preset rwp --sweep buffer --seeds 2 --checkpoint ck.jsonl
//! ```
//!
//! Every invocation starts from a base scenario, `--preset
//! rwp|epfl|smoke` (smoke when neither is given) or `--config FILE`,
//! edited by the base-config flags `--routing NAME`, `--duration SECS`,
//! `--copies L`, `--buffer-mb X`, `--immunity none|oracle|gossip` and
//! `--warmup SECS`. These and `--threads N`/`--world-threads N` are valid
//! in both modes; every other flag belongs to one mode, and a flag of
//! the other mode is a usage error (exit 2):
//!
//! * **single run** (no `--sweep`): `--policy NAME`, `--seed N`,
//!   `--taylor-terms K`, `--no-priority-cache`, `--json`,
//!   `--emit-config`, `--timeseries FILE`, `--telemetry FILE`,
//!   `--validate`, `--delay-oracle` and `--replay MANIFEST`. `--threads`
//!   is the world's thread count (as `--world-threads` is).
//! * **sweep** (`--sweep copies|buffer|genrate|occupancy|churn`):
//!   `--seeds N`, `--validate-cells`, `--checkpoint FILE`, `--resume` and
//!   the six fleet flags. `--threads` fans cells out across N threads
//!   and `--world-threads` is each cell's world thread count.
//!
//! `--telemetry FILE` streams every simulation event as one JSON object
//! per line to `FILE` and writes a run manifest (config hash, seed,
//! event totals, metrics) to `FILE.manifest.json`.
//!
//! `--validate` runs the simulation with invariant checking and the
//! estimator oracle enabled; any violation makes the process exit
//! non-zero. `--replay FILE.manifest.json` re-runs the scenario a
//! manifest records and fails unless the re-run reproduces it exactly.
//!
//! `--no-priority-cache` ranks without SDSRP's Eq. 10 memo: every
//! priority is evaluated afresh, through the same code the memo uses,
//! and nothing else changes. Results are bit-identical either way
//! (the differential regression suite checks it); this flag only
//! changes speed.
//!
//! `--taylor-terms K` truncates SDSRP's Eq. 13 priority to a K-term
//! Taylor series (the paper's Fig. 4 ablation axis); `0` means the
//! exact closed form. It applies to `sdsrp` and custom SDSRP policies,
//! after `--policy` whatever the flag order.
//!
//! `--sweep NAME` runs the axis and policy lineup of that
//! `dtn_sim::sweep::NamedSweep` over the resolved base scenario, through
//! the hardened runner: a panicking cell is reported and the rest of the
//! sweep still completes (`scenarios/churn_smoke.json` is the churn
//! sweep's smoke-scale base). `--validate-cells` attaches the invariant checkers to every cell,
//! `--checkpoint FILE` streams finished cells as JSONL, and `--resume`
//! skips cells already in the checkpoint (bit-identical to an
//! uninterrupted run).
//!
//! `--delay-oracle` runs the scenario once with contact recording, fits
//! the pairwise intermeeting rate λ, and scores the simulated
//! first-delivery delays against the closed-form binary Spray and Wait
//! delay CDF (Diana & Lochin): predicted-vs-simulated CDF rows with
//! 95 % error bands and the KS max deviation, as a table or (with
//! `--json`) a machine-checkable object. See EXPERIMENTS.md, "Analytic
//! delay validation".
//!
//! `--workers N` distributes the sweep over N `dtn-fleet-worker`
//! subprocesses instead of in-process threads (same output,
//! bit-identical fingerprints). The coordinator heartbeat-monitors
//! workers, re-dispatches cells lost to dead or hung workers
//! (`--cell-timeout`, `--worker-timeout`, `--retries`), and merges
//! leftover per-worker shard checkpoints on `--resume`. `--worker-bin`
//! overrides the worker binary (default: `dtn-fleet-worker` next to
//! this executable, or `$DTN_FLEET_WORKER`).
//!
//! The flag loop, the sweep flags, the fleet they build and the sweep
//! summary and tables come from `dtn_fleet::cli`, which the figure
//! binaries share: a sweep exits 0 when it passed, 1 when a cell
//! panicked or (with `--validate-cells`) broke an invariant, and 2 on a
//! usage error or a fleet that could not start.

use sdsrp::fleet::cli::{
    flag_value, number, parse_args, print_sweep, usage_error, SweepFlags, SWEEP_USAGE,
};
use sdsrp::sim::config::{presets, ImmunityMode, PolicyKind, RoutingKind, ScenarioConfig};
use sdsrp::sim::output::Metric;
use sdsrp::sim::replay::{manifest_for_run, replay_manifest};
use sdsrp::sim::sweep::{NamedSweep, SweepOptions};
use sdsrp::sim::world::World;
use sdsrp::telemetry::{JsonlSink, Recorder, RunManifest};
use sdsrp::validate::ValidateConfig;
use std::path::Path;
use std::process::exit;

/// A base-config flag's edit of the resolved scenario.
type Edit = Box<dyn Fn(&mut ScenarioConfig)>;

/// The flags of one invocation.
#[derive(Default)]
struct Cli {
    /// `--preset` or `--config`; the smoke preset when neither is given.
    base: Option<ScenarioConfig>,
    /// The `--config` file `base` came from, named in a validation error.
    base_file: Option<String>,
    /// The base-config flags' edits, in command-line order.
    overrides: Vec<Edit>,
    threads: usize,
    world_threads: usize,
    sweep: Option<NamedSweep>,
    sweep_flags: SweepFlags,
    run: RunFlags,
    /// The first single-run flag and the first sweep flag given.
    run_flag: Option<String>,
    sweep_flag: Option<String>,
}

impl Cli {
    /// Applies `flag`, reading its value from `args`; `Ok(false)` when
    /// `dtn-scenario` has no such flag.
    fn take(
        &mut self,
        flag: &str,
        args: &mut impl Iterator<Item = String>,
    ) -> Result<bool, String> {
        match flag {
            "--preset" => {
                let name = flag_value(flag, args)?;
                self.base_file = None;
                self.base = Some(match name.as_str() {
                    "rwp" => presets::random_waypoint_paper(),
                    "epfl" => presets::epfl_paper(),
                    "smoke" => presets::smoke(),
                    _ => return Err(format!("unknown preset {name:?}")),
                });
            }
            "--config" => {
                let path = flag_value(flag, args)?;
                self.base = Some(load_config(&path));
                self.base_file = Some(path);
            }
            "--routing" => {
                let r = parse_routing(&flag_value(flag, args)?)?;
                self.edit(move |c| c.routing = r);
            }
            "--duration" => {
                let d: f64 = number(flag, flag_value(flag, args)?)?;
                self.edit(move |c| c.duration_secs = d);
            }
            "--copies" => {
                let l: u32 = number(flag, flag_value(flag, args)?)?;
                self.edit(move |c| c.initial_copies = l);
            }
            "--buffer-mb" => {
                let b: f64 = number(flag, flag_value(flag, args)?)?;
                self.edit(move |c| c.buffer_capacity = sdsrp::core::units::Bytes::from_mb(b));
            }
            "--immunity" => {
                let m = match flag_value(flag, args)?.as_str() {
                    "none" => ImmunityMode::None,
                    "oracle" => ImmunityMode::OracleFlood,
                    "gossip" => ImmunityMode::AntipacketGossip,
                    other => return Err(format!("unknown immunity {other:?}")),
                };
                self.edit(move |c| c.immunity = m);
            }
            "--warmup" => {
                let w: f64 = number(flag, flag_value(flag, args)?)?;
                self.edit(move |c| c.warmup_secs = w);
            }
            "--threads" => self.threads = number(flag, flag_value(flag, args)?)?,
            "--world-threads" => self.world_threads = number(flag, flag_value(flag, args)?)?,
            "--sweep" => {
                let name = flag_value(flag, args)?;
                let sweep = NamedSweep::find(&name, false);
                self.sweep = Some(sweep.ok_or_else(|| format!("unknown sweep axis {name:?}"))?);
            }
            _ => {
                let mode_flag = if self.run.take(flag, args)? {
                    &mut self.run_flag
                } else if self.sweep_flags.take(flag, args)? {
                    &mut self.sweep_flag
                } else {
                    return Ok(false);
                };
                mode_flag.get_or_insert_with(|| flag.to_string());
            }
        }
        Ok(true)
    }

    /// Queues a base-config edit.
    fn edit(&mut self, f: impl Fn(&mut ScenarioConfig) + 'static) {
        self.overrides.push(Box::new(f));
    }
}

/// The single-run flags.
#[derive(Default)]
struct RunFlags {
    policy: Option<PolicyKind>,
    seed: Option<u64>,
    /// `--taylor-terms K`: `Some(None)` for K = 0, the exact form.
    taylor_terms: Option<Option<usize>>,
    no_priority_cache: bool,
    json: bool,
    emit_config: bool,
    timeseries: Option<String>,
    telemetry: Option<String>,
    validate: bool,
    delay_oracle: bool,
    replay: Option<String>,
}

impl RunFlags {
    /// Applies `flag` if it is a single-run flag, reading its value from
    /// `args`; `Ok(false)` when it is not one.
    fn take(
        &mut self,
        flag: &str,
        args: &mut impl Iterator<Item = String>,
    ) -> Result<bool, String> {
        match flag {
            "--policy" => self.policy = Some(parse_policy(&flag_value(flag, args)?)?),
            "--seed" => self.seed = Some(number(flag, flag_value(flag, args)?)?),
            "--taylor-terms" => {
                let k: usize = number(flag, flag_value(flag, args)?)?;
                self.taylor_terms = Some((k > 0).then_some(k));
            }
            "--no-priority-cache" => self.no_priority_cache = true,
            "--json" => self.json = true,
            "--emit-config" => self.emit_config = true,
            "--timeseries" => self.timeseries = Some(flag_value(flag, args)?),
            "--telemetry" => self.telemetry = Some(flag_value(flag, args)?),
            "--validate" => self.validate = true,
            "--delay-oracle" => self.delay_oracle = true,
            "--replay" => self.replay = Some(flag_value(flag, args)?),
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// Applies `--policy` and `--seed`, then `--taylor-terms` to the
    /// resulting policy, whatever the flag order.
    fn apply(&self, cfg: &mut ScenarioConfig) {
        if let Some(policy) = self.policy {
            cfg.policy = policy;
        }
        if let Some(seed) = self.seed {
            cfg.seed = seed;
        }
        if let Some(terms) = self.taylor_terms {
            cfg.policy = cfg.policy.with_taylor_terms(terms);
        }
    }
}

/// Reads a scenario JSON file; an unreadable or invalid file exits 1.
fn load_config(path: &str) -> ScenarioConfig {
    let body = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        exit(1);
    });
    serde_json::from_str(&body).unwrap_or_else(|e| {
        eprintln!("invalid scenario JSON: {e}");
        exit(1);
    })
}

/// `--delay-oracle` mode: run the scenario once with contact recording,
/// estimate the pairwise intermeeting rate λ, and score the simulated
/// first-delivery delays against the Diana & Lochin closed-form delay
/// CDF for binary Spray and Wait. Prints predicted-vs-simulated CDF
/// rows with 95 % error bands plus the KS max deviation; `--json` emits
/// the same as one machine-checkable object (the CI gate reads
/// `.ks_deviation`). Exits non-zero only when there is no data to score
/// (no contacts or no deliveries) — judging the deviation is the
/// caller's policy, not ours.
///
/// λ is the count-based Poisson rate MLE, contacts / (pairs × T): the
/// per-pair gap fit (`fit_exponential` over `intermeeting_times`) only
/// sees gaps short enough to close inside the observation window, so it
/// over-estimates λ badly when E(I) is within an order of magnitude of
/// the run length (the gap fit is still reported as a diagnostic).
fn run_delay_oracle_mode(cfg: ScenarioConfig, threads: usize, json_out: bool) -> ! {
    use sdsrp::analysis::{fit_exponential, mean_ci95};
    use sdsrp::validate::DelayModel;

    if !matches!(cfg.routing, RoutingKind::SprayAndWaitBinary) {
        eprintln!("--delay-oracle models binary Spray and Wait; use --routing saw");
        exit(2);
    }
    let mut world = World::build(&cfg);
    world.set_threads(threads.max(1));
    world.enable_contact_recording();
    let out = world.finish();
    let (report, trace) = (out.report, out.contacts.expect("recording enabled"));

    if trace.is_empty() {
        eprintln!("no contacts recorded: cannot estimate λ");
        exit(1);
    }
    let n_pairs = cfg.n_nodes * (cfg.n_nodes - 1) / 2;
    let lambda = trace.len() as f64 / (n_pairs as f64 * cfg.duration_secs);
    let intermeetings = trace.intermeeting_times();
    let lambda_gap_fit = fit_exponential(&intermeetings).map(|f| f.lambda);
    let delays = report.latency_samples();
    if delays.is_empty() {
        eprintln!("no deliveries: nothing to score against the delay model");
        exit(1);
    }
    let model = DelayModel::new(cfg.n_nodes, cfg.initial_copies, lambda);
    let mut sorted = delays.to_vec();
    let ks = model.ks_deviation(&mut sorted);

    // CDF rows on a fixed decile grid of the observed delay range, each
    // with a 95 % CI over the per-message Bernoulli indicator
    // 1[delay <= t] (the empirical CDF is a mean of indicators).
    #[derive(serde::Serialize)]
    struct CdfRow {
        t_secs: f64,
        predicted: f64,
        simulated: f64,
        ci_half_width: f64,
    }
    let t_max = *sorted.last().expect("non-empty");
    let rows: Vec<CdfRow> = (1..=10)
        .map(|k| {
            let t = t_max * k as f64 / 10.0;
            let indicators: Vec<f64> = sorted
                .iter()
                .map(|&d| if d <= t { 1.0 } else { 0.0 })
                .collect();
            let ci = mean_ci95(&indicators).expect("non-empty");
            CdfRow {
                t_secs: t,
                predicted: model.predicted_delay_cdf(t),
                simulated: ci.mean,
                ci_half_width: ci.half_width,
            }
        })
        .collect();

    let simulated_mean = sorted.iter().sum::<f64>() / sorted.len() as f64;
    if json_out {
        #[derive(serde::Serialize)]
        struct Out<'a> {
            scenario: &'a str,
            policy: &'a str,
            seed: u64,
            n_nodes: usize,
            copies: u32,
            lambda: f64,
            lambda_gap_fit: Option<f64>,
            contacts: usize,
            intermeeting_samples: usize,
            delay_samples: usize,
            delivery_ratio: f64,
            ks_deviation: f64,
            predicted_mean_delay_secs: f64,
            simulated_mean_delay_secs: f64,
            cdf: Vec<CdfRow>,
        }
        let out = Out {
            scenario: &cfg.name,
            policy: cfg.policy.label(),
            seed: cfg.seed,
            n_nodes: cfg.n_nodes,
            copies: cfg.initial_copies,
            lambda,
            lambda_gap_fit,
            contacts: trace.len(),
            intermeeting_samples: intermeetings.len(),
            delay_samples: sorted.len(),
            delivery_ratio: report.delivery_ratio(),
            ks_deviation: ks,
            predicted_mean_delay_secs: model.mean_delay(),
            simulated_mean_delay_secs: simulated_mean,
            cdf: rows,
        };
        println!(
            "{}",
            serde_json::to_string_pretty(&out).expect("serialises")
        );
    } else {
        println!("scenario          : {}", cfg.name);
        println!("policy            : {}", cfg.policy.label());
        println!(
            "model             : binary SnW, N = {}, L = {}",
            cfg.n_nodes, cfg.initial_copies
        );
        println!(
            "estimated λ       : {:.3e} /s ({} contacts over {} pairs)",
            lambda,
            trace.len(),
            n_pairs
        );
        if let Some(gap) = lambda_gap_fit {
            println!(
                "gap-fit λ (diag.) : {:.3e} /s ({} intermeeting samples)",
                gap,
                intermeetings.len()
            );
        }
        println!(
            "delay samples     : {} (delivery ratio {:.3})",
            sorted.len(),
            report.delivery_ratio()
        );
        println!("predicted E[T]    : {:.0} s", model.mean_delay());
        println!("simulated E[T]    : {:.0} s", simulated_mean);
        println!("KS max deviation  : {ks:.4}");
        println!();
        println!("| t (s) | predicted F(t) | simulated F(t) | ±95% |");
        println!("|---|---|---|---|");
        for r in &rows {
            println!(
                "| {:.0} | {:.4} | {:.4} | {:.4} |",
                r.t_secs, r.predicted, r.simulated, r.ci_half_width
            );
        }
    }
    exit(0);
}

/// Re-runs the scenario recorded in a manifest file and reports whether
/// the re-run reproduced it bit-for-bit. Exits non-zero on divergence.
fn replay_from_file(path: &str) -> ! {
    let body = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        exit(1);
    });
    let original: RunManifest = serde_json::from_str(&body).unwrap_or_else(|e| {
        eprintln!("{path} is not a run manifest: {e:?}");
        exit(1);
    });
    match replay_manifest(&original) {
        Ok(outcome) if outcome.identical => {
            println!(
                "replay OK: {} (seed {}, policy {}) reproduced bit-identically",
                original.scenario, original.seed, original.policy
            );
            exit(0);
        }
        Ok(outcome) => {
            eprintln!(
                "replay DIVERGED on {} fields:\n{}",
                outcome.diff.len(),
                outcome.diff.join("\n")
            );
            exit(1);
        }
        Err(e) => {
            eprintln!("cannot replay {path}: {e}");
            exit(1);
        }
    }
}

fn parse_policy(s: &str) -> Result<PolicyKind, String> {
    Ok(match s {
        "fifo" => PolicyKind::Fifo,
        "lifo" => PolicyKind::Lifo,
        "ttl" => PolicyKind::TtlRatio,
        "copies" => PolicyKind::CopiesRatio,
        "mofo" => PolicyKind::Mofo,
        "shli" => PolicyKind::Shli,
        "random" => PolicyKind::Random,
        "knapsack" => PolicyKind::Knapsack,
        "sdsrp" => PolicyKind::Sdsrp,
        "occ-gate" => PolicyKind::OCC_GATE,
        "tiered" => PolicyKind::TIERED,
        _ => return Err(format!("unknown policy {s:?}")),
    })
}

fn parse_routing(s: &str) -> Result<RoutingKind, String> {
    Ok(match s {
        "saw" => RoutingKind::SprayAndWaitBinary,
        "saw-source" => RoutingKind::SprayAndWaitSource,
        "epidemic" => RoutingKind::Epidemic,
        "direct" => RoutingKind::Direct,
        "focus" => RoutingKind::SprayAndFocus {
            handoff_threshold: 60.0,
        },
        "prophet" => RoutingKind::Prophet,
        _ => return Err(format!("unknown routing {s:?}")),
    })
}

fn main() {
    let usage = format!(
        "[--preset rwp|epfl|smoke] [--config FILE]\n\
         \t[--routing saw|saw-source|epidemic|direct|focus|prophet]\n\
         \t[--duration SECS] [--copies L] [--buffer-mb X] [--warmup SECS]\n\
         \t[--immunity none|oracle|gossip] [--threads N] [--world-threads N]\n\
         single run:\n\
         \t[--policy fifo|lifo|ttl|copies|mofo|shli|random|knapsack|sdsrp|\n\
         \t\tocc-gate|tiered]\n\
         \t[--seed N] [--taylor-terms K] [--no-priority-cache] [--json]\n\
         \t[--emit-config] [--timeseries FILE] [--telemetry FILE] [--validate]\n\
         \t[--delay-oracle] [--replay MANIFEST.json]\n\
         sweep:\n\
         \t--sweep copies|buffer|genrate|occupancy|churn\n\
         \t{SWEEP_USAGE}\n\
         \n\
         A flag of one mode is a usage error in the other. --threads N runs\n\
         a single run's world on N threads and fans a sweep's cells out\n\
         across N (--world-threads sets each cell's); results are\n\
         bit-identical at any thread count."
    );
    let cli = parse_args(&usage, Cli::default(), Cli::take);
    let mode_error = match &cli.sweep {
        Some(_) => cli
            .run_flag
            .map(|f| format!("{f} does not apply to --sweep")),
        None => cli.sweep_flag.map(|f| format!("{f} needs --sweep")),
    };
    if let Some(err) = mode_error {
        usage_error(&usage, &err);
    }
    let run = cli.run;
    if let Some(path) = &run.replay {
        replay_from_file(path);
    }

    let mut cfg = cli.base.unwrap_or_else(presets::smoke);
    for f in &cli.overrides {
        f(&mut cfg);
    }
    // A sweep takes no single-run flag, so this applies none to one.
    run.apply(&mut cfg);
    // The config that runs is checked, after every flag's edit: a bad
    // field is a usage error, not a panic in `World::build`.
    if let Err(e) = cfg.validate() {
        let from = cli.base_file.map(|f| format!(" {f}")).unwrap_or_default();
        usage_error(&usage, &format!("invalid config{from}: {e}"));
    }
    if let Some(sweep) = cli.sweep {
        // The named axis x its policy lineup through the shared sweep
        // runner: the three paper metrics and the latency as markdown.
        let flags = &cli.sweep_flags;
        let spec = flags.spec(cfg, sweep);
        let opts = SweepOptions {
            threads: cli.threads,
            world_threads: cli.world_threads,
            checkpoint: flags.checkpoint_at(Path::to_path_buf),
            ..SweepOptions::default()
        };
        let metrics = [
            Metric::DeliveryRatio,
            Metric::AvgHopcount,
            Metric::OverheadRatio,
            Metric::AvgLatency,
        ];
        let tables = metrics
            .into_iter()
            .map(|m| (m, format!("{} vs {}", m.name(), spec.axis.name()), None))
            .collect();
        let (_, passed) = print_sweep("sweep", &flags.runner, &spec, opts, tables);
        exit(if passed { 0 } else { 1 });
    }

    if run.emit_config {
        println!(
            "{}",
            serde_json::to_string_pretty(&cfg).expect("config serialises")
        );
        return;
    }

    if run.delay_oracle {
        run_delay_oracle_mode(cfg, cli.world_threads.max(cli.threads), run.json);
    }

    let mut world = World::build(&cfg);
    // Single runs have no sweep to fan out, so --threads means the
    // world's intra-run thread count here (--world-threads also works).
    world.set_threads(cli.world_threads.max(cli.threads).max(1));
    if run.no_priority_cache {
        world.set_priority_cache(false);
    }
    if let Some(path) = &run.telemetry {
        let sink = JsonlSink::create(Path::new(path)).unwrap_or_else(|e| {
            eprintln!("cannot create {path}: {e}");
            exit(1);
        });
        world.attach_recorder(Recorder::enabled(4096).with_sink(Box::new(sink)));
    }
    if run.timeseries.is_some() {
        world.enable_timeseries(cfg.tick_secs.max(1.0) * 10.0);
    }
    if run.validate {
        world.enable_validation(ValidateConfig::default());
    }
    let run_started = std::time::Instant::now();
    let out = world.finish();
    let (report, mut recorder, validation) = (out.report, out.recorder, out.validation);
    let wall_clock_secs = run_started.elapsed().as_secs_f64();
    let timeseries = recorder.take_timeseries();

    if let (Some(path), Some(ts)) = (&run.timeseries, &timeseries) {
        std::fs::write(path, ts.to_csv()).unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            exit(1);
        });
        eprintln!("time series written to {path}");
    }

    if let Some(path) = &run.telemetry {
        if let Some(err) = recorder.sink_error() {
            eprintln!("telemetry export to {path} failed: {err}");
            exit(1);
        }
        let manifest = manifest_for_run(&cfg, &report, &recorder, wall_clock_secs);
        let manifest_path = format!("{path}.manifest.json");
        std::fs::write(&manifest_path, manifest.to_json()).unwrap_or_else(|e| {
            eprintln!("cannot write {manifest_path}: {e}");
            exit(1);
        });
        eprintln!("telemetry written to {path} (manifest: {manifest_path})");
    }

    if run.json {
        #[derive(serde::Serialize)]
        struct Out<'a> {
            scenario: &'a str,
            policy: &'a str,
            seed: u64,
            created: u64,
            delivered: u64,
            delivery_ratio: f64,
            avg_hopcount: f64,
            overhead_ratio: f64,
            /// `null` when nothing was delivered (no latency data).
            avg_latency: Option<f64>,
            buffer_drops: u64,
            incoming_rejects: u64,
            expirations: u64,
            immunity_purges: u64,
        }
        let out = Out {
            scenario: &cfg.name,
            policy: cfg.policy.label(),
            seed: cfg.seed,
            created: report.created(),
            delivered: report.delivered(),
            delivery_ratio: report.delivery_ratio(),
            avg_hopcount: report.avg_hopcount(),
            overhead_ratio: report.overhead_ratio(),
            avg_latency: report.avg_latency(),
            buffer_drops: report.buffer_drops(),
            incoming_rejects: report.incoming_rejects(),
            expirations: report.expirations(),
            immunity_purges: report.immunity_purges(),
        };
        println!(
            "{}",
            serde_json::to_string_pretty(&out).expect("serialises")
        );
    } else {
        println!("scenario        : {}", cfg.name);
        println!("policy          : {}", cfg.policy.label());
        println!("seed            : {}", cfg.seed);
        println!("created         : {}", report.created());
        println!("delivered       : {}", report.delivered());
        println!("delivery ratio  : {:.4}", report.delivery_ratio());
        println!("avg hopcounts   : {:.2}", report.avg_hopcount());
        println!("overhead ratio  : {:.2}", report.overhead_ratio());
        match report.avg_latency() {
            Some(lat) => println!("avg latency (s) : {lat:.0}"),
            None => println!("avg latency (s) : —"),
        }
        println!("buffer drops    : {}", report.buffer_drops());
        println!("incoming rejects: {}", report.incoming_rejects());
        println!("expirations     : {}", report.expirations());
        println!("immunity purges : {}", report.immunity_purges());
    }

    if let Some(validation) = &validation {
        eprintln!("{}", validation.summary());
        if !validation.ok() {
            for v in &validation.violations {
                eprintln!("  {v}");
            }
            exit(1);
        }
    }
}
