//! Shared infrastructure for the figure-regeneration binaries and
//! Criterion benches.
//!
//! Each binary regenerates one paper artefact:
//!
//! | binary      | artefact            | what it prints                                   |
//! |-------------|---------------------|--------------------------------------------------|
//! | `fig3`      | Fig. 3 (a, b)       | intermeeting-time distribution + exponential fit |
//! | `fig4`      | Fig. 4              | priority vs `P(R)` for Taylor k and idealisation |
//! | `fig8`      | Fig. 8 (a–i)        | three RWP sweeps x three metrics                 |
//! | `fig9`      | Fig. 9 (a–i)        | three EPFL-substitute sweeps x three metrics     |
//! | `ablations` | extensions          | estimator/gossip/Taylor/oracle ablations         |
//!
//! All binaries accept `--quick` (reduced duration/points/seeds for a
//! laptop-minutes smoke pass), `--seeds N`, and `--out DIR` to also
//! write CSVs.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use dtn_fleet::{
    locate_worker, run_sweep_fleet, FleetOptions, SubprocessTransport, TcpTransport, Transport,
};
use dtn_sim::config::{PolicyKind, ScenarioConfig};
use dtn_sim::output::{Metric, SeriesTable};
use dtn_sim::sweep::{
    run_sweep, SweepAxis, SweepCell, SweepCheckpoint, SweepOptions, SweepOutput, SweepSpec,
};
use std::io::Write;
use std::path::PathBuf;

/// Parsed common CLI options.
#[derive(Debug, Clone)]
pub struct Cli {
    /// Reduced-scale run for smoke checks.
    pub quick: bool,
    /// Seeds to average over.
    pub seeds: Vec<u64>,
    /// Optional CSV output directory.
    pub out: Option<PathBuf>,
    /// Optional sweep filter (`copies`, `buffer`, `genrate`).
    pub sweep: Option<String>,
    /// Also print the supplementary delivery-latency panel.
    pub latency: bool,
    /// Run invariant checking + the estimator oracle on (a subset of)
    /// the runs; abort non-zero on any violation.
    pub validate: bool,
    /// Attach the dtn-validate checkers to **every** sweep cell and
    /// fold violation counts into the per-cell results.
    pub validate_cells: bool,
    /// Stream finished sweep cells to a JSONL checkpoint file (one
    /// file per figure group, derived from this stem).
    pub checkpoint: Option<PathBuf>,
    /// Reload the checkpoint and skip already-completed cells.
    pub resume: bool,
    /// Fan sweep cells out across N subprocess workers (0 = run
    /// in-process with `run_sweep`).
    pub workers: usize,
    /// Explicit path to the `dtn-fleet-worker` binary; defaults to
    /// `locate_worker()` (env var, then the binary's own directory).
    pub worker_bin: Option<PathBuf>,
    /// Fleet backend: `subprocess` (default) spawns workers locally,
    /// `tcp` listens on `--listen` for `dtn-fleet-worker --connect`
    /// peers. Figure binaries that run several sweep groups reuse one
    /// listener across all of them, so TCP workers should be started
    /// with `--reconnect`.
    pub transport: String,
    /// Bind address for `--transport tcp` (default `127.0.0.1:0`; the
    /// chosen port is printed to stderr).
    pub listen: String,
    /// Shared-secret handshake token for `--transport tcp`.
    pub token: Option<String>,
    /// Seconds to wait for each of the first N TCP workers to dial in.
    pub accept_timeout: f64,
}

impl Cli {
    /// Parses `std::env::args`, ignoring unknown flags with a warning.
    pub fn parse() -> Cli {
        let mut cli = Cli {
            quick: false,
            seeds: vec![1, 2, 3],
            out: None,
            sweep: None,
            latency: false,
            validate: false,
            validate_cells: false,
            checkpoint: None,
            resume: false,
            workers: 0,
            worker_bin: None,
            transport: "subprocess".into(),
            listen: "127.0.0.1:0".into(),
            token: None,
            accept_timeout: 30.0,
        };
        let args: Vec<String> = std::env::args().skip(1).collect();
        let mut i = 0;
        while i < args.len() {
            match args[i].as_str() {
                "--quick" => cli.quick = true,
                "--latency" => cli.latency = true,
                "--validate" => cli.validate = true,
                "--validate-cells" => cli.validate_cells = true,
                "--resume" => cli.resume = true,
                "--checkpoint" => {
                    i += 1;
                    cli.checkpoint = Some(PathBuf::from(
                        args.get(i).expect("--checkpoint needs a path"),
                    ));
                }
                "--seeds" => {
                    i += 1;
                    let n: u64 = args
                        .get(i)
                        .and_then(|s| s.parse().ok())
                        .expect("--seeds needs a number");
                    cli.seeds = (1..=n).collect();
                }
                "--out" => {
                    i += 1;
                    cli.out = Some(PathBuf::from(args.get(i).expect("--out needs a directory")));
                }
                "--sweep" => {
                    i += 1;
                    cli.sweep = Some(args.get(i).expect("--sweep needs a name").clone());
                }
                "--workers" => {
                    i += 1;
                    cli.workers = args
                        .get(i)
                        .and_then(|s| s.parse().ok())
                        .expect("--workers needs a number");
                }
                "--worker-bin" => {
                    i += 1;
                    cli.worker_bin = Some(PathBuf::from(
                        args.get(i).expect("--worker-bin needs a path"),
                    ));
                }
                "--transport" => {
                    i += 1;
                    cli.transport = args.get(i).expect("--transport needs a name").clone();
                }
                "--listen" => {
                    i += 1;
                    cli.listen = args.get(i).expect("--listen needs an address").clone();
                }
                "--token" => {
                    i += 1;
                    cli.token = Some(args.get(i).expect("--token needs a value").clone());
                }
                "--accept-timeout" => {
                    i += 1;
                    cli.accept_timeout = args
                        .get(i)
                        .and_then(|s| s.parse().ok())
                        .expect("--accept-timeout needs a number");
                }
                other => eprintln!("warning: ignoring unknown argument {other:?}"),
            }
            i += 1;
        }
        cli
    }

    /// Whether a sweep named `name` should run under the `--sweep`
    /// filter.
    pub fn wants(&self, name: &str) -> bool {
        self.sweep.as_deref().is_none_or(|s| s == name)
    }
}

/// Prints a `--validate` run's validation summary to stderr. Exits
/// non-zero on any violation, so `--validate` runs cannot silently pass
/// on a broken simulator.
pub fn check_validation(cfg: &ScenarioConfig, validation: &dtn_validate::ValidationReport) {
    eprintln!(
        "[validate] {} seed {}: {}",
        cfg.name,
        cfg.seed,
        validation.summary()
    );
    if !validation.ok() {
        for v in &validation.violations {
            eprintln!("  {v}");
        }
        std::process::exit(1);
    }
}

/// One of the paper's three sweep groups, at full or `--quick` scale.
pub fn paper_axis(kind: &str, quick: bool) -> SweepAxis {
    match (kind, quick) {
        ("copies", false) => SweepAxis::paper_copies(),
        ("copies", true) => SweepAxis::InitialCopies(vec![16, 32, 64]),
        ("buffer", false) => SweepAxis::paper_buffers(),
        ("buffer", true) => SweepAxis::BufferMb(vec![2.0, 3.5, 5.0]),
        ("genrate", false) => SweepAxis::paper_gen_rates(),
        ("genrate", true) => SweepAxis::GenInterval(vec![(10.0, 15.0), (25.0, 30.0), (45.0, 50.0)]),
        _ => panic!("unknown sweep kind {kind:?}"),
    }
}

/// Applies `--quick` shrinkage to a base scenario (shorter run, fewer
/// nodes) while keeping the congestion character.
pub fn apply_quick(cfg: &mut ScenarioConfig, quick: bool) {
    if quick {
        cfg.duration_secs = 3_600.0;
        cfg.n_nodes = (cfg.n_nodes / 2).max(20);
    }
}

/// Derives a per-figure-group checkpoint path from the user's
/// `--checkpoint` stem, so binaries that run several sweep groups
/// (fig8/fig9 run three) never interleave two groups in one file.
pub fn group_checkpoint_path(stem: &std::path::Path, fig: &str, axis: &str) -> PathBuf {
    let sanitize = |s: &str| {
        s.chars()
            .map(|c| {
                if c.is_ascii_alphanumeric() {
                    c.to_ascii_lowercase()
                } else {
                    '-'
                }
            })
            .collect::<String>()
            .trim_matches('-')
            .to_string()
    };
    let stem_str = stem.to_string_lossy();
    let base = stem_str.strip_suffix(".jsonl").unwrap_or(&stem_str);
    PathBuf::from(format!("{base}-{}-{}.jsonl", sanitize(fig), sanitize(axis)))
}

/// Runs one sweep group and prints the three paper metrics as markdown
/// tables (optionally writing CSVs).
pub fn run_figure_group(
    fig: &str,
    panel_ids: [&str; 3],
    base: &ScenarioConfig,
    axis: SweepAxis,
    policies: Vec<PolicyKind>,
    cli: &Cli,
) -> Vec<SweepCell> {
    let spec = SweepSpec {
        base: base.clone(),
        axis,
        policies,
        seeds: cli.seeds.clone(),
        validate: cli.validate_cells,
    };
    let xlabel = spec.axis.name().to_string();
    let progress = |p: dtn_sim::sweep::SweepProgress| {
        eprint!(
            "\r{fig}: {}/{} runs done (last: {} @ {})    ",
            p.completed, p.total, p.policy, p.axis_label
        );
        let _ = std::io::stderr().flush();
    };
    // Live progress on stderr (stdout carries the markdown tables).
    let checkpoint = cli.checkpoint.as_ref().map(|stem| SweepCheckpoint {
        path: group_checkpoint_path(stem, fig, &xlabel),
        resume: cli.resume,
    });
    let out = if cli.workers > 0 {
        run_group_fleet(fig, &spec, checkpoint, &progress, cli)
    } else {
        let opts = SweepOptions {
            checkpoint,
            progress: Some(&progress),
            ..SweepOptions::default()
        };
        run_sweep(&spec, &opts)
    };
    eprintln!(
        "\r{fig}: {} runs ({} resumed), {} events ({} delivered, {} dropped, {} contacts)",
        out.cells.iter().map(|c| c.runs).sum::<usize>(),
        out.resumed,
        out.totals.total(),
        out.totals.delivered,
        out.totals.dropped(),
        out.totals.contacts_up,
    );
    if cli.validate_cells && out.violations > 0 {
        eprintln!(
            "{fig}: {} invariant violation(s) across cells",
            out.violations
        );
    }
    for err in &out.errors {
        eprintln!("{fig}: {err}");
    }
    if !out.errors.is_empty() {
        eprintln!(
            "{fig}: {} cell run(s) panicked; their seeds are excluded from the tables",
            out.errors.len()
        );
    }
    let cells = out.cells;
    let mut panels = vec![
        (Metric::DeliveryRatio, panel_ids[0].to_string()),
        (Metric::AvgHopcount, panel_ids[1].to_string()),
        (Metric::OverheadRatio, panel_ids[2].to_string()),
    ];
    if cli.latency {
        // Supplementary panel beyond the paper's three metrics.
        panels.push((Metric::AvgLatency, format!("{}-latency", panel_ids[0])));
    }
    for (metric, panel) in panels {
        let title = format!("{fig}({panel}) {} vs {}", metric.name(), xlabel);
        let table = SeriesTable::from_cells(&title, &xlabel, &cells, metric);
        println!("{}", table.to_markdown());
        if let Some(dir) = &cli.out {
            std::fs::create_dir_all(dir).expect("create out dir");
            let fname = format!("{}_{}.csv", fig.replace(['.', ' '], ""), panel);
            std::fs::write(dir.join(fname), table.to_csv()).expect("write csv");
        }
    }
    cells
}

/// Runs one figure group through the `dtn-fleet` coordinator with
/// subprocess workers instead of in-process threads. Exits non-zero if
/// the worker binary cannot be found or no worker can be spawned —
/// figure regeneration must never silently fall back to a slower mode
/// the operator did not ask for.
fn run_group_fleet(
    fig: &str,
    spec: &SweepSpec,
    checkpoint: Option<SweepCheckpoint>,
    progress: &(dyn Fn(dtn_sim::sweep::SweepProgress) + Sync),
    cli: &Cli,
) -> SweepOutput {
    // One listener for the whole process: fig8/fig9 run three sweep
    // groups back-to-back, and rebinding between them would race
    // `--reconnect` workers dialing the old port. Each group re-arms
    // the blocking accept budget via `expect_workers`.
    static TCP: std::sync::OnceLock<TcpTransport> = std::sync::OnceLock::new();
    let subprocess_holder;
    let transport: &dyn Transport = match cli.transport.as_str() {
        "tcp" => {
            let tcp = TCP.get_or_init(|| {
                let tcp = TcpTransport::bind(&cli.listen)
                    .unwrap_or_else(|e| {
                        eprintln!("{fig}: {e}");
                        std::process::exit(2);
                    })
                    .with_token(cli.token.clone())
                    .with_timeouts(cli.accept_timeout, 30.0);
                eprintln!(
                    "{fig}: listening on {} (token {}); start workers with \
                     `dtn-fleet-worker --connect ADDR --reconnect`",
                    tcp.local_addr(),
                    if cli.token.is_some() {
                        "required"
                    } else {
                        "none"
                    },
                );
                tcp
            });
            tcp.expect_workers(cli.workers);
            tcp
        }
        "subprocess" => {
            let worker_bin = match cli.worker_bin.clone() {
                Some(path) => path,
                None => locate_worker().unwrap_or_else(|e| {
                    eprintln!("{fig}: {e}");
                    std::process::exit(2);
                }),
            };
            let mut transport = SubprocessTransport::new(worker_bin);
            transport.checkpoint = checkpoint.as_ref().map(|ck| ck.path.clone());
            subprocess_holder = transport;
            &subprocess_holder
        }
        other => {
            eprintln!("{fig}: unknown transport {other:?} (subprocess|tcp)");
            std::process::exit(2);
        }
    };
    let opts = FleetOptions {
        workers: cli.workers,
        checkpoint,
        progress: Some(progress),
        ..FleetOptions::default()
    };
    match run_sweep_fleet(spec, transport, &opts) {
        Ok((out, stats)) => {
            eprintln!(
                "\r{fig}: fleet {} workers ({}), {} dispatched, {} retries, {} lost, {:.1}s wall",
                stats.workers,
                stats.transport,
                stats.dispatched,
                stats.retries,
                stats.workers_lost,
                stats.wall_clock_secs,
            );
            out
        }
        Err(e) => {
            eprintln!("{fig}: fleet failed: {e}");
            std::process::exit(2);
        }
    }
}

/// Quick qualitative check used by fig8/fig9: prints whether the
/// paper's headline ordering (SDSRP best delivery, lowest overhead;
/// SAW-C worst delivery) holds on the mean across the sweep.
pub fn print_ordering_summary(cells: &[SweepCell]) {
    use std::collections::HashMap;
    let mut delivery: HashMap<&str, (f64, usize)> = HashMap::new();
    let mut overhead: HashMap<&str, (f64, usize)> = HashMap::new();
    for c in cells {
        let d = delivery.entry(c.policy.as_str()).or_default();
        d.0 += c.delivery_ratio;
        d.1 += 1;
        let o = overhead.entry(c.policy.as_str()).or_default();
        o.0 += c.overhead_ratio;
        o.1 += 1;
    }
    println!("\n#### sweep-mean summary");
    let mut rows: Vec<(&str, f64, f64)> = delivery
        .iter()
        .map(|(&p, &(d, n))| {
            let (o, m) = overhead[&p];
            (p, d / n as f64, o / m as f64)
        })
        .collect();
    rows.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
    for (p, d, o) in &rows {
        println!("  {p:<16} delivery {d:.4}  overhead {o:.2}");
    }
    println!();
}
