//! `sdsrp-benchmark`: the repository's end-to-end and per-layer
//! benchmark.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     [--workload NAME]... [--seed N] [--seconds S] [--reps N] \
//!     [--trace 0|1] [--out FILE]
//! ```
//!
//! Without `--workload` every workload runs. Each workload runs as a
//! closed loop of one repetition at a time, each in a fresh process,
//! until `--seconds` (default: `run_seconds` in `BENCHMARK.json`) is
//! spent (at least three repetitions), or exactly `--reps N` times.
//! `--trace 1` makes the traced run instead: untraced and traced
//! repetitions alternate, then the mobility and contact layers are
//! replayed on their own, and the per-layer metrics are reported. See
//! `benchmark/README.md`.
//!
//! Output: one `workload metric value unit` line per metric, then, as
//! the last line, `{"correct", "attempted", "failed", "metrics"}` with
//! the metrics `BENCHMARK.json` lists for the mode. `--out FILE` also
//! writes medians, quartiles and every repetition's value. The exit
//! code is 1 when any correctness check failed.

use sdsrp::sim::config::{presets, PolicyKind};
use sdsrp::sim::replay::fingerprint_at_threads;
use sdsrp::sim::sweep::{materialize_jobs, SweepAxis, SweepSpec};
use sdsrp::sim::ScenarioConfig;
use sdsrp::telemetry::{hash_config_json, peak_rss_bytes};
use sdsrp::validate::ReportFingerprint;
use sdsrp_benchmark::layers::{
    replay, run_cell, BufferStats, CellOutcome, ReplayStats, Span, METHODS,
};
use sdsrp_benchmark::parse::{parse_fleet_line, read_checkpoint, vm_hwm_kb, CheckpointCell};
use sdsrp_benchmark::stats::{median, quantile, summarize, Summary};
use serde::Serialize;
use serde_json::Value;
use std::collections::BTreeMap;
use std::io::Read;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::{exit, Command, ExitStatus, Stdio};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Repetitions an end-to-end run makes even past `--seconds`, so every
/// median has three values under it.
const MIN_REPS: usize = 3;
/// `--resume` invocations timed for a sweep's `setup_s`: one takes a
/// few milliseconds, mostly process start, so one alone is noise.
const SETUP_RUNS: usize = 100;
/// Sweep cells recomputed in-process and compared per end-to-end run.
const SPOT_CHECKS: usize = 2;
/// How often a CLI process's `VmHWM` is read.
const RSS_POLL: Duration = Duration::from_millis(5);
/// Seed of the simulation workloads when `--seed` is not given.
const DEFAULT_SEED: u64 = 42;

#[derive(Clone, Copy, PartialEq)]
enum Kind {
    /// The scenario in `workloads/<name>.json`, built and run in-process
    /// on this many world threads (at most the available cores).
    Sim { world_threads: usize },
    /// The Fig. 8(d-f) buffer sweep through the `dtn-scenario` CLI, on
    /// in-process threads or, with `fleet`, on subprocess workers.
    Sweep { fleet: bool },
}

struct Workload {
    name: &'static str,
    kind: Kind,
}

/// Why each workload is here is in `benchmark/README.md`.
const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "pressure",
        kind: Kind::Sim { world_threads: 1 },
    },
    Workload {
        name: "large-world",
        kind: Kind::Sim { world_threads: 2 },
    },
    Workload {
        name: "fig8-sweep",
        kind: Kind::Sweep { fleet: false },
    },
    Workload {
        name: "fig8-fleet",
        kind: Kind::Sweep { fleet: true },
    },
];

/// Threads the 2-thread workloads use: never more than the machine has.
fn load_threads() -> usize {
    threads_available().min(2)
}

fn threads_available() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn bench_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn repo_root() -> PathBuf {
    bench_dir()
        .parent()
        .expect("the benchmark lives inside the repository")
        .to_path_buf()
}

fn out_dir() -> PathBuf {
    bench_dir().join("out")
}

struct Args {
    workloads: Vec<&'static Workload>,
    seed: Option<u64>,
    seconds: Option<f64>,
    reps: Option<usize>,
    trace: bool,
    out: Option<PathBuf>,
    child: Option<&'static Workload>,
}

fn usage() -> ! {
    eprintln!(
        "usage: sdsrp-benchmark [--workload pressure|large-world|fig8-sweep|fig8-fleet]...\n\
         \t[--seed N] [--seconds S] [--reps N] [--trace 0|1] [--out FILE]"
    );
    exit(2);
}

fn workload(name: &str) -> &'static Workload {
    WORKLOADS
        .iter()
        .find(|w| w.name == name)
        .unwrap_or_else(|| usage())
}

fn parse_args() -> Args {
    let mut args = Args {
        workloads: Vec::new(),
        seed: None,
        seconds: None,
        reps: None,
        trace: false,
        out: None,
        child: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => args.workloads.push(workload(&value())),
            "--seed" => args.seed = Some(value().parse().unwrap_or_else(|_| usage())),
            "--seconds" => {
                args.seconds = Some(
                    value()
                        .parse()
                        .ok()
                        .filter(|s: &f64| s.is_finite() && *s > 0.0)
                        .unwrap_or_else(|| usage()),
                )
            }
            "--reps" => {
                args.reps = Some(
                    value()
                        .parse()
                        .ok()
                        .filter(|&n| n > 0)
                        .unwrap_or_else(|| usage()),
                )
            }
            "--trace" => {
                args.trace = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            "--out" => args.out = Some(value().into()),
            "--child" => args.child = Some(workload(&value())),
            _ => usage(),
        }
    }
    if args.workloads.is_empty() {
        args.workloads = WORKLOADS.iter().collect();
    }
    args
}

/// A simulation workload's scenario with the run's seed.
fn load_scenario(name: &str, seed: u64) -> Result<ScenarioConfig, String> {
    let path = bench_dir().join("workloads").join(format!("{name}.json"));
    let body = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let mut cfg: ScenarioConfig = serde_json::from_str(&body)
        .map_err(|e| format!("bad scenario {}: {e:?}", path.display()))?;
    cfg.seed = seed;
    Ok(cfg)
}

/// One measured metric and every value it took.
struct Metric {
    name: String,
    unit: &'static str,
    values: Vec<f64>,
}

/// Everything one workload run measured and checked.
#[derive(Default)]
struct Report {
    metrics: Vec<Metric>,
    /// Model outputs, recorded as a like-for-like check but not gated.
    model: Vec<(&'static str, String)>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Report {
    fn add(&mut self, name: &str, unit: &'static str, values: Vec<f64>) {
        if !values.is_empty() {
            self.metrics.push(Metric {
                name: name.to_string(),
                unit,
                values,
            });
        }
    }

    fn one(&mut self, name: &str, unit: &'static str, value: f64) {
        self.add(name, unit, vec![value]);
    }

    fn attempt(&mut self, n: usize) {
        self.attempted += n as u64;
    }

    fn fail(&mut self, n: usize, why: String) {
        self.failed += n as u64;
        self.problems.push(why);
    }

    fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        if !ok {
            self.fail(1, why());
        }
    }
}

/// How long each workload is measured: exactly `reps` repetitions, or
/// as many as fit in `seconds`.
#[derive(Serialize)]
struct Budget {
    seconds: f64,
    reps: Option<usize>,
}

impl Budget {
    /// Whether a closed loop should start another repetition.
    fn keep_going(&self, done: usize, min: usize, start: Instant, rep_secs: &[f64]) -> bool {
        match self.reps {
            Some(n) => done < n,
            None => done < min || start.elapsed().as_secs_f64() + median(rep_secs) <= self.seconds,
        }
    }
}

fn main() {
    let args = parse_args();
    if let Some(wl) = args.child {
        child_main(wl, args.seed.unwrap_or(DEFAULT_SEED), args.trace);
    }
    let spec = load_spec(args.trace).unwrap_or_else(|e| {
        eprintln!("benchmark: {e}");
        exit(2);
    });
    let budget = Budget {
        seconds: args.seconds.unwrap_or(spec.run_seconds),
        reps: args.reps,
    };
    let cli = if args
        .workloads
        .iter()
        .any(|w| matches!(w.kind, Kind::Sweep { .. }))
    {
        Some(build_cli().unwrap_or_else(|e| {
            eprintln!("benchmark: {e}");
            exit(2);
        }))
    } else {
        None
    };
    if let Err(e) = std::fs::create_dir_all(out_dir()) {
        eprintln!("benchmark: cannot create {}: {e}", out_dir().display());
        exit(2);
    }

    let mut reports = Vec::new();
    for wl in &args.workloads {
        eprintln!(
            "benchmark: {} ({})",
            wl.name,
            if args.trace { "traced" } else { "end to end" }
        );
        let seed = args.seed.unwrap_or(DEFAULT_SEED);
        let mut r = Report::default();
        golden_check(&mut r);
        match (wl.kind, args.trace) {
            (Kind::Sim { .. }, false) => sim_end_to_end(wl, seed, &budget, &mut r),
            (Kind::Sim { .. }, true) => sim_layers(wl, seed, &budget, &mut r),
            (Kind::Sweep { .. }, false) => {
                sweep_end_to_end(wl, seed, &budget, cli.as_deref().expect("built"), &mut r)
            }
            (Kind::Sweep { .. }, true) => sweep_layers(wl, cli.as_deref().expect("built"), &mut r),
        }
        reports.push((wl.name, r));
    }
    exit(emit(&args, &budget, &spec.metrics, &mut reports));
}

/// What `BENCHMARK.json` fixes for a run.
struct Spec {
    /// Default measuring time per workload.
    run_seconds: f64,
    /// The `(name, unit)` metrics listed for the mode.
    metrics: Vec<(String, String)>,
}

fn load_spec(trace: bool) -> Result<Spec, String> {
    let path = repo_root().join("BENCHMARK.json");
    let body = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let spec: Value =
        serde_json::from_str(&body).map_err(|e| format!("bad BENCHMARK.json: {e:?}"))?;
    let run_seconds = spec
        .get("run_seconds")
        .and_then(Value::as_f64)
        .filter(|s| s.is_finite() && *s > 0.0)
        .ok_or("BENCHMARK.json has no positive `run_seconds`")?;
    let key = if trace { "per_layer" } else { "end_to_end" };
    let metrics = spec
        .get(key)
        .and_then(Value::as_array)
        .ok_or(format!("BENCHMARK.json has no `{key}` list"))?
        .iter()
        .map(|m| {
            let field = |f: &str| m.get(f).and_then(Value::as_str).map(str::to_string);
            field("name")
                .zip(field("unit"))
                .ok_or(format!("a `{key}` entry lacks a name or unit"))
        })
        .collect::<Result<_, _>>()?;
    Ok(Spec {
        run_seconds,
        metrics,
    })
}

#[derive(Serialize)]
struct MetricValue {
    value: f64,
    unit: String,
}

#[derive(Serialize)]
struct ResultLine {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, MetricValue>,
}

#[derive(Serialize)]
struct MetricOut {
    unit: String,
    summary: Summary,
}

#[derive(Serialize)]
struct WorkloadOut {
    name: String,
    correct: bool,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    metrics: BTreeMap<String, MetricOut>,
    model: BTreeMap<String, String>,
}

#[derive(Serialize)]
struct RunOut<'a> {
    threads_available: usize,
    seed: Option<u64>,
    trace: bool,
    budget: &'a Budget,
    workloads: Vec<WorkloadOut>,
}

/// Prints every metric, writes `--out`, prints the result line last,
/// and returns the exit code.
fn emit(
    args: &Args,
    budget: &Budget,
    listed: &[(String, String)],
    reports: &mut [(&str, Report)],
) -> i32 {
    let single = reports.len() == 1;
    let mut line = ResultLine {
        correct: true,
        attempted: 0,
        failed: 0,
        metrics: BTreeMap::new(),
    };
    let mut run = RunOut {
        threads_available: threads_available(),
        seed: args.seed,
        trace: args.trace,
        budget,
        workloads: Vec::new(),
    };
    for (wl, r) in reports.iter_mut() {
        // Reported beside the metrics; the result line carries the same
        // as `failed` over `attempted`.
        let fail_frac = r.failed as f64 / r.attempted.max(1) as f64;
        r.one("fail_frac", "ratio", fail_frac);
        for (name, unit) in listed {
            match r.metrics.iter().find(|m| &m.name == name) {
                Some(m) if m.unit == unit => {
                    let key = if single {
                        name.clone()
                    } else {
                        format!("{wl}/{name}")
                    };
                    line.metrics.insert(
                        key,
                        MetricValue {
                            value: median(&m.values),
                            unit: unit.clone(),
                        },
                    );
                }
                Some(m) => r
                    .problems
                    .push(format!("{name} measured in {} not {unit}", m.unit)),
                None => r.problems.push(format!("{name} was not measured")),
            }
        }
        let correct = r.failed == 0 && r.problems.is_empty() && r.attempted > 0;
        for m in &r.metrics {
            println!("{wl} {} {} {}", m.name, median(&m.values), m.unit);
        }
        for (k, v) in &r.model {
            println!("{wl} model.{k} {v}");
        }
        line.correct &= correct;
        line.attempted += r.attempted;
        line.failed += r.failed;
        run.workloads.push(WorkloadOut {
            name: wl.to_string(),
            correct,
            attempted: r.attempted,
            failed: r.failed,
            problems: r.problems.clone(),
            metrics: r
                .metrics
                .iter()
                .map(|m| {
                    let out = MetricOut {
                        unit: m.unit.to_string(),
                        summary: summarize(&m.values),
                    };
                    (m.name.clone(), out)
                })
                .collect(),
            model: r
                .model
                .iter()
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect(),
        });
        for p in &r.problems {
            eprintln!("benchmark: {wl}: {p}");
        }
    }
    if let Some(path) = &args.out {
        let body = serde_json::to_string_pretty(&run).expect("plain data serialises");
        if let Err(e) = std::fs::write(path, body + "\n") {
            eprintln!("benchmark: cannot write {}: {e}", path.display());
            line.correct = false;
        }
    }
    line.attempted = line.attempted.max(1);
    println!(
        "{}",
        serde_json::to_string(&line).expect("plain data serialises")
    );
    if line.correct {
        0
    } else {
        1
    }
}

/// A child process: one repetition of a simulation workload, printed
/// as one JSON line. Traced or not, it makes the same set-up builds
/// first, so both kinds run on an allocator in the same state.
fn child_main(wl: &Workload, seed: u64, traced: bool) -> ! {
    let Kind::Sim { world_threads } = wl.kind else {
        usage()
    };
    let outcome = load_scenario(wl.name, seed)
        .and_then(|cfg| run_cell(&cfg, world_threads.min(load_threads()), traced, true));
    match outcome {
        Ok(mut cell) => {
            cell.peak_rss_mb = peak_rss_bytes().unwrap_or(0) as f64 / 1e6;
            println!(
                "{}",
                serde_json::to_string(&cell).expect("plain data serialises")
            );
            exit(0);
        }
        Err(e) => {
            eprintln!("{e}");
            exit(1);
        }
    }
}

/// Runs one repetition of `wl` in a fresh process of this benchmark.
fn run_child(wl: &Workload, seed: u64, traced: bool) -> Result<CellOutcome, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find the benchmark: {e}"))?;
    let out = Command::new(exe)
        .args(["--child", wl.name, "--seed", &seed.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start a {} repetition: {e}", wl.name))?;
    if !out.status.success() {
        return Err(format!("{} repetition exited with {}", wl.name, out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let last = text.lines().last().unwrap_or_default();
    serde_json::from_str(last)
        .map_err(|e| format!("{} repetition printed no result ({e:?})", wl.name))
}

/// Checks the pinned headline run (smoke, SDSRP, seed 42, 3600 s)
/// against `tests/golden/headline_smoke.json`.
fn golden_check(r: &mut Report) {
    r.attempt(1);
    let path = repo_root().join("tests/golden/headline_smoke.json");
    let expected = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))
        .and_then(|s| ReportFingerprint::from_json(&s));
    let mut cfg = presets::smoke();
    cfg.policy = PolicyKind::Sdsrp;
    cfg.seed = 42;
    cfg.duration_secs = 3_600.0;
    match expected {
        Ok(expected) => {
            let fp = fingerprint_at_threads(&cfg, 1);
            r.check(fp == expected, || {
                format!("headline golden drifted: {}", expected.diff(&fp).join("; "))
            });
        }
        Err(e) => r.fail(1, e),
    }
}

/// Fails one operation per fingerprint that differs from the first.
fn check_same<'a>(
    r: &mut Report,
    what: &str,
    fps: impl IntoIterator<Item = &'a ReportFingerprint>,
) {
    let mut fps = fps.into_iter();
    let Some(first) = fps.next() else { return };
    for (i, fp) in fps.enumerate() {
        r.check(fp == first, || {
            format!(
                "{what} {} fingerprint differs: {}",
                i + 2,
                first.diff(fp).join("; ")
            )
        });
    }
}

fn digest(fp: &ReportFingerprint) -> String {
    hash_config_json(&fp.to_canonical_json())
}

fn sim_model(r: &mut Report, fp: &ReportFingerprint) {
    r.model.push((
        "delivery_ratio",
        format!("{} ratio", fp.delivery_ratio_micro as f64 / 1e6),
    ));
    r.model.push((
        "drops",
        format!("{} count", fp.buffer_drops + fp.incoming_rejects),
    ));
    r.model.push(("digest", format!("{} fnv64", digest(fp))));
}

fn sim_end_to_end(wl: &Workload, seed: u64, budget: &Budget, r: &mut Report) {
    let start = Instant::now();
    let mut reps = Vec::new();
    let mut rep_secs = Vec::new();
    while budget.keep_going(reps.len(), MIN_REPS, start, &rep_secs) {
        let started = Instant::now();
        r.attempt(1);
        match run_child(wl, seed, false) {
            Ok(cell) => reps.push(cell),
            Err(e) => {
                r.fail(1, e);
                break;
            }
        }
        rep_secs.push(started.elapsed().as_secs_f64());
    }
    let Some(first) = reps.first() else { return };
    check_same(r, "repetition", reps.iter().map(|c| &c.fingerprint));
    sim_model(r, &first.fingerprint);
    r.add("wall_s", "s", reps.iter().map(|c| c.wall_s).collect());
    r.add("setup_s", "s", reps.iter().map(|c| c.setup_s).collect());
    r.add(
        "peak_rss_mb",
        "MB",
        reps.iter().map(|c| c.peak_rss_mb).collect(),
    );
}

fn sim_layers(wl: &Workload, seed: u64, budget: &Budget, r: &mut Report) {
    let Kind::Sim { world_threads } = wl.kind else {
        unreachable!("a simulation workload")
    };
    let cfg = match load_scenario(wl.name, seed) {
        Ok(cfg) => cfg,
        Err(e) => return r.fail(1, e),
    };
    // Untraced and traced repetitions alternate, each pair starting
    // with the other kind, so drift in the machine hits both alike.
    let start = Instant::now();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut plain_secs = Vec::new();
    let mut pair_secs = Vec::new();
    'pairs: while budget.keep_going(pair_secs.len(), 1, start, &pair_secs) {
        let started = Instant::now();
        let order = if pair_secs.len() % 2 == 0 {
            [false, true]
        } else {
            [true, false]
        };
        for with_trace in order {
            r.attempt(1);
            let rep_started = Instant::now();
            match run_child(wl, seed, with_trace) {
                Ok(cell) if with_trace => traced.push(cell),
                Ok(cell) => {
                    plain.push(cell);
                    plain_secs.push(rep_started.elapsed().as_secs_f64());
                }
                Err(e) => {
                    r.fail(1, e);
                    break 'pairs;
                }
            }
        }
        pair_secs.push(started.elapsed().as_secs_f64());
    }
    if plain.is_empty() || traced.is_empty() {
        return;
    }
    check_same(
        r,
        "untraced or traced repetition",
        plain.iter().chain(&traced).map(|c| &c.fingerprint),
    );
    sim_model(r, &traced[0].fingerprint);

    r.attempt(1);
    let replayed = replay(&cfg, world_threads.min(load_threads()));
    let contacts_up = traced[0].fingerprint.events.contacts_up;
    let replay_match = replayed.up == contacts_up;
    r.check(replay_match, || {
        format!(
            "replay found {} contacts up, the world {contacts_up}",
            replayed.up
        )
    });

    let plain_cells: Vec<f64> = plain.iter().map(|c| c.cell_s).collect();
    let traced_cells: Vec<f64> = traced.iter().map(|c| c.cell_s).collect();
    let pair_ratios: Vec<f64> = traced_cells
        .iter()
        .zip(&plain_cells)
        .map(|(t, p)| t / p)
        .collect();
    let sdsrp = cfg.policy == PolicyKind::Sdsrp;
    layer_metrics(
        r,
        &Layers {
            traced: &traced,
            passes: traced.len() as f64,
            replay: &replayed,
            replay_match,
            reference_cells: &plain_cells,
            reference_passes: plain_cells.len() as f64,
            reference_wall_s: plain_secs.iter().sum(),
            runner_threads: 1.0,
            sdsrp_share: if sdsrp { 1.0 } else { 0.0 },
            checkpoint_bytes: 0.0,
            fleet: Default::default(),
            trace_wall_s: median(&traced_cells),
            overhead: median(&pair_ratios) - 1.0,
        },
    );
    write_trace(wl.name, &traced, replayed, r);
}

/// Builds `dtn-scenario` and `dtn-fleet-worker` in release mode (not
/// timed) and returns the `dtn-scenario` path.
fn build_cli() -> Result<PathBuf, String> {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .current_dir(repo_root())
        .args(["build", "--release", "--quiet"])
        .args(["-p", "sdsrp", "--bin", "dtn-scenario"])
        .args(["-p", "dtn-fleet", "--bin", "dtn-fleet-worker"])
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building the CLI failed ({status})"));
    }
    // Cargo resolves a relative CARGO_TARGET_DIR against the directory
    // it runs in, which is the repository root here.
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(|d| repo_root().join(d))
        .unwrap_or_else(|| repo_root().join("target"));
    Ok(target.join("release").join("dtn-scenario"))
}

/// One cell the Fig. 8 sweep must produce.
struct ExpectedCell {
    config_hash: String,
    sdsrp: bool,
    cfg: ScenarioConfig,
}

/// The cells of `dtn-scenario --preset rwp --sweep buffer --seeds 2`,
/// keyed the way the sweep keys its checkpoint.
fn fig8_cells() -> Vec<ExpectedCell> {
    let spec = SweepSpec {
        base: presets::random_waypoint_paper(),
        axis: SweepAxis::paper_buffers(),
        policies: PolicyKind::paper_four().to_vec(),
        seeds: vec![1, 2],
        validate: false,
    };
    materialize_jobs(&spec)
        .into_iter()
        .map(|job| ExpectedCell {
            config_hash: hash_config_json(
                &serde_json::to_string(&job.cfg).expect("configs serialise"),
            ),
            sdsrp: job.cfg.policy == PolicyKind::Sdsrp,
            cfg: job.cfg,
        })
        .collect()
}

fn sweep_args(wl: &Workload, checkpoint: &Path, resume: bool) -> Vec<String> {
    let threads = load_threads().to_string();
    let mut args: Vec<String> = ["--preset", "rwp", "--sweep", "buffer", "--seeds", "2"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    args.extend(["--threads".into(), threads.clone()]);
    args.extend(["--checkpoint".into(), checkpoint.display().to_string()]);
    if wl.kind == (Kind::Sweep { fleet: true }) {
        args.extend(["--workers".into(), threads]);
    }
    if resume {
        args.push("--resume".into());
    }
    args
}

/// A finished CLI invocation.
struct CliRun {
    status: ExitStatus,
    wall_s: f64,
    peak_rss_mb: f64,
    stderr: String,
}

/// Runs the CLI, timing it from spawn to exit and polling its `VmHWM`.
fn run_cli(cli: &Path, args: &[String]) -> Result<CliRun, String> {
    let started = Instant::now();
    let mut child = Command::new(cli)
        .args(args)
        .current_dir(repo_root())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .map_err(|e| format!("cannot start {}: {e}", cli.display()))?;
    let status_path = format!("/proc/{}/status", child.id());
    let mut stderr = child.stderr.take().expect("stderr is piped");
    let exited = AtomicBool::new(false);
    std::thread::scope(|s| {
        let reader = s.spawn(move || {
            let mut text = String::new();
            let _ = stderr.read_to_string(&mut text);
            text
        });
        let poller = s.spawn(|| {
            let mut peak_kb = 0;
            while !exited.load(Ordering::SeqCst) {
                let status = std::fs::read_to_string(&status_path).unwrap_or_default();
                peak_kb = vm_hwm_kb(&status).unwrap_or(0).max(peak_kb);
                std::thread::sleep(RSS_POLL);
            }
            peak_kb
        });
        let status = child.wait();
        let wall_s = started.elapsed().as_secs_f64();
        exited.store(true, Ordering::SeqCst);
        let peak_kb = poller.join().expect("the poller does not panic");
        let stderr = reader.join().expect("the reader does not panic");
        Ok(CliRun {
            status: status.map_err(|e| format!("waiting for {}: {e}", cli.display()))?,
            wall_s,
            peak_rss_mb: peak_kb as f64 * 1024.0 / 1e6,
            stderr,
        })
    })
}

/// Checks a sweep invocation: exit status, and one well-formed
/// checkpoint line per expected cell. Returns the cells by config hash.
fn check_sweep(
    r: &mut Report,
    run: &CliRun,
    checkpoint: &Path,
    expected: &[ExpectedCell],
) -> BTreeMap<String, CheckpointCell> {
    let mut cells = BTreeMap::new();
    match read_checkpoint(checkpoint) {
        Ok(lines) => {
            for cell in lines {
                let known = expected.iter().any(|e| e.config_hash == cell.config_hash);
                r.check(known, || {
                    format!("unexpected checkpoint cell {}", cell.config_hash)
                });
                r.check(!cells.contains_key(&cell.config_hash), || {
                    format!("duplicate checkpoint cell {}", cell.config_hash)
                });
                cells.insert(cell.config_hash.clone(), cell);
            }
        }
        Err(e) => r.fail(1, e),
    }
    let missing = expected
        .iter()
        .filter(|e| !cells.contains_key(&e.config_hash))
        .count();
    if missing > 0 {
        r.fail(
            missing,
            format!("{missing} of {} cells missing", expected.len()),
        );
    }
    // A failing exit is already counted when cells are missing.
    r.check(run.status.success() || missing > 0, || {
        format!("dtn-scenario exited with {}", run.status)
    });
    cells
}

fn sweep_model(r: &mut Report, cells: &BTreeMap<String, CheckpointCell>) {
    let n = cells.len().max(1) as f64;
    let ratio: f64 = cells
        .values()
        .map(|c| c.fingerprint.delivery_ratio_micro as f64 / 1e6)
        .sum();
    let drops: u64 = cells
        .values()
        .map(|c| c.fingerprint.buffer_drops + c.fingerprint.incoming_rejects)
        .sum();
    let all: String = cells
        .iter()
        .map(|(hash, c)| format!("{hash}:{}", digest(&c.fingerprint)))
        .collect();
    r.model
        .push(("delivery_ratio", format!("{} ratio", ratio / n)));
    r.model.push(("drops", format!("{drops} count")));
    r.model
        .push(("digest", format!("{} fnv64", hash_config_json(&all))));
}

fn sweep_end_to_end(wl: &Workload, seed: u64, budget: &Budget, cli: &Path, r: &mut Report) {
    let expected = fig8_cells();
    let checkpoint = out_dir().join(format!("{}.jsonl", wl.name));
    let start = Instant::now();
    let (mut walls, mut rss) = (Vec::new(), Vec::new());
    let mut first: Option<BTreeMap<String, CheckpointCell>> = None;
    while budget.keep_going(walls.len(), MIN_REPS, start, &walls) {
        let _ = std::fs::remove_file(&checkpoint);
        r.attempt(expected.len());
        let run = match run_cli(cli, &sweep_args(wl, &checkpoint, false)) {
            Ok(run) => run,
            Err(e) => {
                r.fail(expected.len(), e);
                break;
            }
        };
        let cells = check_sweep(r, &run, &checkpoint, &expected);
        walls.push(run.wall_s);
        rss.push(run.peak_rss_mb);
        match &first {
            None => first = Some(cells),
            Some(reference) => {
                for (hash, cell) in &cells {
                    if let Some(want) = reference.get(hash) {
                        r.check(cell.fingerprint == want.fingerprint, || {
                            format!("cell {hash} differs between repetitions")
                        });
                    }
                }
            }
        }
    }
    let Some(reference) = first else { return };
    sweep_model(r, &reference);

    // Recompute a few cells outside the sweep; the seed picks which
    // (distinct ones: 29 is not a multiple of the cell count).
    for k in 0..SPOT_CHECKS {
        let cell =
            &expected[(seed as usize).wrapping_mul(31).wrapping_add(k * 29) % expected.len()];
        r.attempt(1);
        match (
            run_cell(&cell.cfg, 1, false, false),
            reference.get(&cell.config_hash),
        ) {
            (Ok(direct), Some(swept)) => r.check(direct.fingerprint == swept.fingerprint, || {
                format!("cell {} differs from a direct run", cell.config_hash)
            }),
            (Err(e), _) => r.fail(1, e),
            (_, None) => r.fail(1, format!("cell {} was not swept", cell.config_hash)),
        }
    }

    // Set-up: process start, spec and checkpoint reload, nothing left
    // to run.
    let mut setups = Vec::new();
    for _ in 0..SETUP_RUNS {
        match run_cli(cli, &sweep_args(wl, &checkpoint, true)) {
            Ok(run) if run.status.success() => setups.push(run.wall_s),
            Ok(run) => return r.fail(1, format!("--resume exited with {}", run.status)),
            Err(e) => return r.fail(1, e),
        }
    }
    r.add("wall_s", "s", walls);
    r.add("setup_s", "s", setups);
    r.add("peak_rss_mb", "MB", rss);
}

/// Runs `f` on every item on `threads` threads; a panic becomes that
/// item's `Err`.
fn par_map<T: Sync, R: Send>(
    items: &[T],
    threads: usize,
    f: impl Fn(&T) -> Result<R, String> + Sync,
) -> Vec<Result<R, String>> {
    // The cursor only hands out indices; results travel through the
    // slots' mutexes and the scope's join.
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<Result<R, String>>>> =
        items.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|s| {
        for _ in 0..threads.max(1) {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else { break };
                let out = catch_unwind(AssertUnwindSafe(|| f(item)))
                    .unwrap_or_else(|_| Err(format!("item {i} panicked")));
                *slots[i].lock().expect("no thread panics holding a slot") = Some(out);
            });
        }
    });
    slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .expect("no thread panics holding a slot")
                .expect("every item ran")
        })
        .collect()
}

fn sweep_layers(wl: &Workload, cli: &Path, r: &mut Report) {
    let expected = fig8_cells();
    let n = expected.len();
    let threads = load_threads();
    let checkpoint = out_dir().join(format!("{}.jsonl", wl.name));
    let _ = std::fs::remove_file(&checkpoint);

    // The untraced reference: the CLI sweep itself.
    r.attempt(n);
    let run = match run_cli(cli, &sweep_args(wl, &checkpoint, false)) {
        Ok(run) => run,
        Err(e) => return r.fail(n, e),
    };
    let cells = check_sweep(r, &run, &checkpoint, &expected);
    sweep_model(r, &cells);
    let fleet = match parse_fleet_line(&run.stderr) {
        Ok(Some(fleet)) => fleet,
        Ok(None) => {
            r.check(wl.kind == (Kind::Sweep { fleet: false }), || {
                "the fleet sweep printed no `fleet:` summary".into()
            });
            Default::default()
        }
        Err(e) => {
            r.fail(1, e);
            Default::default()
        }
    };

    // Every cell again in-process, untraced and traced back to back
    // (alternating which goes first) so machine drift cancels in the
    // overhead; then the replays.
    r.attempt(3 * n);
    let indexed: Vec<(usize, &ExpectedCell)> = expected.iter().enumerate().collect();
    let pairs = par_map(&indexed, threads, |&(i, c)| {
        let first = run_cell(&c.cfg, 1, i % 2 == 1, false)?;
        let second = run_cell(&c.cfg, 1, i % 2 == 0, false)?;
        Ok(if i % 2 == 1 {
            (second, first)
        } else {
            (first, second)
        })
    });
    let replays = par_map(&expected, threads, |c| Ok(replay(&c.cfg, 1)));
    let (mut plain_s, mut traced_ok) = (0.0, Vec::new());
    let mut replayed = ReplayStats::default();
    let mut replay_match = true;
    for ((want, pair), rep) in expected.iter().zip(pairs).zip(replays) {
        let ((plain, cell), rep) = match (pair, rep) {
            (Ok(pair), Ok(rep)) => (pair, rep),
            (Err(e), _) | (_, Err(e)) => {
                r.fail(1, e);
                continue;
            }
        };
        if let Some(swept) = cells.get(&want.config_hash) {
            r.check(plain.fingerprint == swept.fingerprint, || {
                format!("direct run of {} differs from the sweep", want.config_hash)
            });
        }
        r.check(cell.fingerprint == plain.fingerprint, || {
            format!("tracing changed cell {}", want.config_hash)
        });
        plain_s += plain.cell_s;
        let up = cell.fingerprint.events.contacts_up;
        if rep.up != up {
            replay_match = false;
            r.fail(
                1,
                format!(
                    "replay of {} found {} contacts up, the world {up}",
                    want.config_hash, rep.up
                ),
            );
        }
        replayed.merge(&rep);
        traced_ok.push(cell);
    }
    if traced_ok.is_empty() {
        return;
    }

    let durations: Vec<f64> = cells.values().map(|c| c.duration_secs).collect();
    let sdsrp_s: f64 = expected
        .iter()
        .filter(|e| e.sdsrp)
        .filter_map(|e| cells.get(&e.config_hash))
        .map(|c| c.duration_secs)
        .sum();
    let total: f64 = durations.iter().sum();
    let traced_total: f64 = traced_ok.iter().map(|c| c.cell_s).sum();
    let checkpoint_bytes = std::fs::metadata(&checkpoint).map_or(0, |m| m.len());
    layer_metrics(
        r,
        &Layers {
            traced: &traced_ok,
            passes: 1.0,
            replay: &replayed,
            replay_match,
            reference_cells: &durations,
            reference_passes: 1.0,
            reference_wall_s: run.wall_s,
            runner_threads: threads as f64,
            sdsrp_share: sdsrp_s / total,
            checkpoint_bytes: checkpoint_bytes as f64,
            fleet,
            trace_wall_s: traced_total,
            overhead: traced_total / plain_s - 1.0,
        },
    );
    write_trace(wl.name, &traced_ok, replayed, r);
}

/// Inputs of the per-layer metrics. A pass is one run of every cell of
/// the workload: a repetition of a simulation workload, or the whole
/// sweep. Counts and times are per pass.
struct Layers<'a> {
    traced: &'a [CellOutcome],
    passes: f64,
    replay: &'a ReplayStats,
    replay_match: bool,
    /// Cell times of the untraced reference passes.
    reference_cells: &'a [f64],
    /// How many passes `reference_cells` holds.
    reference_passes: f64,
    /// Wall time the reference cells took end to end.
    reference_wall_s: f64,
    runner_threads: f64,
    sdsrp_share: f64,
    checkpoint_bytes: f64,
    fleet: sdsrp_benchmark::parse::FleetSummary,
    trace_wall_s: f64,
    overhead: f64,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn layer_metrics(r: &mut Report, l: &Layers<'_>) {
    let mut buffer = BufferStats::default();
    let (mut events, mut transfers, mut aborted) = (0, 0, 0);
    let (mut hits, mut incremental, mut misses) = (0, 0, 0);
    let mut traced_s = 0.0;
    for c in l.traced {
        if let Some(b) = &c.buffer {
            buffer.merge(b);
        }
        events += c.events;
        transfers += c.fingerprint.transmissions;
        aborted += c.fingerprint.aborted_transfers;
        hits += c.cache_hits;
        incremental += c.cache_incremental;
        misses += c.cache_misses;
        traced_s += c.cell_s;
    }
    let per = |x: f64| x / l.passes;
    for m in METHODS {
        let span = buffer.method(m);
        r.one(
            &format!("buffer.{m}.calls"),
            "count",
            per(span.count as f64),
        );
        r.one(&format!("buffer.{m}.s"), "s", per(span.secs()));
        if let Some(p50) = span.hist.quantile(0.5) {
            r.one(&format!("buffer.{m}.p50_ns"), "ns", p50);
        }
        // A p99 needs at least ten calls beyond it.
        if span.count >= 1000 {
            let p99 = span.hist.quantile(0.99).expect("non-empty");
            r.one(&format!("buffer.{m}.p99_ns"), "ns", p99);
        }
    }
    let buffer_s = per(buffer.secs());
    let imports = buffer.method("import_gossip").count as f64;
    let accepts = buffer.method("accepts").count as f64;
    r.one("buffer.self_s", "s", buffer_s);
    r.one("buffer.share", "ratio", ratio(buffer.secs(), traced_s));
    r.one(
        "buffer.gossip.bytes_out",
        "B",
        per(buffer.gossip_bytes_out as f64),
    );
    r.one(
        "buffer.gossip.bytes_in",
        "B",
        per(buffer.gossip_bytes_in as f64),
    );
    r.one(
        "buffer.gossip.records_adopted",
        "count",
        per(buffer.records_adopted as f64),
    );
    r.one(
        "buffer.gossip.useful_frac",
        "ratio",
        ratio(buffer.imports_useful as f64, imports),
    );
    r.one(
        "buffer.accepts.refused_frac",
        "ratio",
        ratio(buffer.accepts_refused as f64, accepts),
    );
    let requests = (hits + incremental + misses) as f64;
    r.one(
        "buffer.cache.hit_rate",
        "ratio",
        ratio((hits + incremental) as f64, requests),
    );
    r.one("buffer.cache.misses", "count", per(misses as f64));

    let mobility_s = l.replay.mobility.secs();
    let detect_s = l.replay.detect.secs();
    r.one("mobility.sample.s", "s", mobility_s);
    r.one("mobility.samples", "count", l.replay.samples as f64);
    r.one("contacts.detect.s", "s", detect_s);
    r.one("contacts.up", "count", l.replay.up as f64);
    r.one("contacts.down", "count", l.replay.down as f64);
    r.one(
        "contacts.replay_match",
        "bool",
        if l.replay_match { 1.0 } else { 0.0 },
    );

    r.one("world.events", "count", per(events as f64));
    r.one("world.ticks", "count", l.replay.ticks as f64);
    r.one("world.transfers", "count", per(transfers as f64));
    r.one("world.aborted_transfers", "count", per(aborted as f64));
    r.one(
        "world.other_s",
        "s",
        l.trace_wall_s - buffer_s - mobility_s - detect_s,
    );

    let mut cells = l.reference_cells.to_vec();
    cells.sort_by(f64::total_cmp);
    let cell_sum: f64 = cells.iter().sum();
    r.one(
        "sweep.cells",
        "count",
        cells.len() as f64 / l.reference_passes,
    );
    r.one("sweep.cell_s.sum", "s", cell_sum / l.reference_passes);
    r.one("sweep.cell_s.p50", "s", quantile(&cells, 0.5));
    r.one("sweep.cell_s.p95", "s", quantile(&cells, 0.95));
    r.one(
        "sweep.cell_s.max",
        "s",
        *cells.last().expect("at least one cell"),
    );
    r.one(
        "sweep.efficiency",
        "ratio",
        ratio(cell_sum, l.reference_wall_s * l.runner_threads),
    );
    r.one("sweep.sdsrp_share", "ratio", l.sdsrp_share);
    r.one("sweep.checkpoint_bytes", "B", l.checkpoint_bytes);
    r.one("fleet.retries", "count", l.fleet.retries as f64);
    r.one("fleet.workers_lost", "count", l.fleet.workers_lost as f64);
    r.one("trace.wall_s", "s", l.trace_wall_s);
    r.one("trace.overhead_frac", "ratio", l.overhead);
}

#[derive(Serialize)]
struct SpanOut {
    name: String,
    parent: String,
    count: u64,
    total_ns: u64,
    self_ns: u64,
    /// `(bucket lower bound ns, count)` of every non-empty bucket.
    histogram: Vec<(u64, u64)>,
}

#[derive(Serialize)]
struct TraceOut {
    workload: String,
    threads_available: usize,
    spans: Vec<SpanOut>,
}

/// Writes `out/trace-<workload>.json`: the traced cells' spans and the
/// replay's, each with its self time (its time minus its children's).
fn write_trace(name: &str, traced: &[CellOutcome], replayed: ReplayStats, r: &mut Report) {
    let mut cell = Span::new("cell", "");
    let mut build = Span::new("world.build", "cell");
    let mut step = Span::new("world.step_until", "cell");
    let mut buffer = BufferStats::default();
    for c in traced {
        cell.record(Duration::from_secs_f64(c.cell_s));
        build.record(Duration::from_secs_f64(c.build_s));
        step.record(Duration::from_secs_f64(c.wall_s));
        if let Some(b) = &c.buffer {
            buffer.merge(b);
        }
    }
    let mut replay = Span::new("replay", "");
    replay.record(Duration::from_nanos(
        replayed.mobility.total_ns + replayed.detect.total_ns,
    ));
    let mut spans = vec![cell, build, step];
    spans.extend(buffer.methods);
    spans.extend([replay, replayed.mobility, replayed.detect]);
    let out = TraceOut {
        workload: name.to_string(),
        threads_available: threads_available(),
        spans: spans
            .iter()
            .map(|s| {
                let children: u64 = spans
                    .iter()
                    .filter(|c| c.parent == s.name)
                    .map(|c| c.total_ns)
                    .sum();
                SpanOut {
                    name: s.name.clone(),
                    parent: s.parent.clone(),
                    count: s.count,
                    total_ns: s.total_ns,
                    self_ns: s.total_ns.saturating_sub(children),
                    histogram: s.hist.nonzero(),
                }
            })
            .collect(),
    };
    let path = out_dir().join(format!("trace-{name}.json"));
    let body = serde_json::to_string_pretty(&out).expect("plain data serialises");
    if let Err(e) = std::fs::write(&path, body + "\n") {
        r.fail(1, format!("cannot write {}: {e}", path.display()));
    }
}
