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
//! write CSVs. An unknown flag is a usage error (exit 2). `fig8`,
//! `fig9` and `ablations` run their cells through
//! [`dtn_fleet::cli::SweepRunner`], so they take the same fleet flags as
//! `dtn-scenario --sweep` and exit 1 after the last table when a run
//! panicked or broke an invariant.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod ablation;

use dtn_fleet::cli::{progress_printer, report_sweep, SweepRunner, FLEET_USAGE};
use dtn_sim::config::{PolicyKind, ScenarioConfig};
use dtn_sim::output::{Metric, SeriesTable};
use dtn_sim::sweep::{
    ScheduleCache, SweepAxis, SweepCell, SweepCheckpoint, SweepOptions, SweepSpec,
};
use std::path::PathBuf;

/// Parsed common CLI options.
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
    /// Attach the dtn-validate checkers to **every** sweep cell and
    /// fold violation counts into the per-cell results.
    pub validate_cells: bool,
    /// Stream finished sweep cells to a JSONL checkpoint file (`fig8`
    /// and `fig9` write one file per figure group, derived from this
    /// stem).
    pub checkpoint: Option<PathBuf>,
    /// Reload the checkpoint and skip already-completed cells.
    pub resume: bool,
    /// The fleet flags (`--workers N` and the rest), the same set
    /// `dtn-scenario --sweep` reads; with the default `--workers 0`
    /// sweeps run in-process.
    pub runner: SweepRunner,
}

impl Cli {
    /// Parses `std::env::args`. A malformed or unknown flag prints the
    /// usage and exits 2.
    pub fn parse() -> Cli {
        let mut args = std::env::args();
        let program = args.next().unwrap_or_default();
        Cli::parse_from(args).unwrap_or_else(|e| {
            eprintln!(
                "{e}\n\
                 usage: {program} [--quick] [--seeds N] [--out DIR] [--sweep copies|buffer|genrate]\n\
                 \t[--latency] [--validate-cells] [--checkpoint FILE [--resume]]\n\
                 \t{FLEET_USAGE}"
            );
            std::process::exit(2);
        })
    }

    /// Parses `args` (the program name excluded).
    pub fn parse_from(args: impl IntoIterator<Item = String>) -> Result<Cli, String> {
        let mut cli = Cli {
            quick: false,
            seeds: vec![1, 2, 3],
            out: None,
            sweep: None,
            latency: false,
            validate_cells: false,
            checkpoint: None,
            resume: false,
            runner: SweepRunner::default(),
        };
        let mut args = args.into_iter();
        while let Some(flag) = args.next() {
            let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
            match flag.as_str() {
                "--quick" => cli.quick = true,
                "--latency" => cli.latency = true,
                "--validate-cells" => cli.validate_cells = true,
                "--resume" => cli.resume = true,
                "--checkpoint" => cli.checkpoint = Some(value()?.into()),
                "--seeds" => {
                    let n: u64 = value()?
                        .parse()
                        .map_err(|_| "--seeds needs a number".to_string())?;
                    cli.seeds = (1..=n).collect();
                }
                "--out" => cli.out = Some(value()?.into()),
                "--sweep" => cli.sweep = Some(value()?),
                other => {
                    if !cli.runner.parse_flag(other, &mut args)? {
                        return Err(format!("unknown argument {other:?}"));
                    }
                }
            }
        }
        Ok(cli)
    }

    /// Whether a sweep named `name` should run under the `--sweep`
    /// filter.
    fn wants(&self, name: &str) -> bool {
        self.sweep.as_deref().is_none_or(|s| s == name)
    }
}

/// One of the paper's three sweep groups, at full or `--quick` scale.
fn paper_axis(kind: &str, quick: bool) -> SweepAxis {
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
fn group_checkpoint_path(stem: &std::path::Path, fig: &str, axis: &str) -> PathBuf {
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
/// tables (optionally writing CSVs). Returns the cells and whether the
/// group passed (no panicked run, no invariant violation). A fleet that
/// cannot start exits 2: figure regeneration never falls back to a mode
/// the operator did not ask for. In-process cells share contact
/// schedules through `schedules`.
fn run_figure_group(
    fig: &str,
    panel_ids: [&str; 3],
    base: &ScenarioConfig,
    axis: SweepAxis,
    policies: Vec<PolicyKind>,
    cli: &Cli,
    schedules: &ScheduleCache,
) -> (Vec<SweepCell>, bool) {
    let spec = SweepSpec {
        base: base.clone(),
        axis,
        policies,
        seeds: cli.seeds.clone(),
        validate: cli.validate_cells,
    };
    let xlabel = spec.axis.name().to_string();
    // Live progress on stderr (stdout carries the markdown tables).
    let progress = progress_printer(fig);
    let opts = SweepOptions {
        checkpoint: cli.checkpoint.as_ref().map(|stem| SweepCheckpoint {
            path: group_checkpoint_path(stem, fig, &xlabel),
            resume: cli.resume,
        }),
        progress: Some(&progress),
        schedules: Some(schedules),
        ..SweepOptions::default()
    };
    let out = cli.runner.run(&spec, opts).unwrap_or_else(|e| {
        eprintln!("{fig}: fleet failed: {e}");
        std::process::exit(2);
    });
    let passed = report_sweep(fig, &out.jobs);
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
        let table = SeriesTable::from_cells(&title, &xlabel, &out.cells, metric);
        println!("{}", table.to_markdown());
        if let Some(dir) = &cli.out {
            std::fs::create_dir_all(dir).expect("create out dir");
            let fname = format!("{}_{}.csv", fig.replace(['.', ' '], ""), panel);
            std::fs::write(dir.join(fname), table.to_csv()).expect("write csv");
        }
    }
    (out.cells, passed)
}

/// Regenerates a Fig. 8/9 style figure: the copies (a-c), buffer (d-f)
/// and generation-rate (g-i) sweeps of the paper's four policies over
/// `base`, each followed by its sweep-mean ordering summary. Exits 1
/// after the last group if any group failed, 0 otherwise.
pub fn run_paper_figure(fig: &str, heading: &str, mut base: ScenarioConfig) -> ! {
    let cli = Cli::parse();
    apply_quick(&mut base, cli.quick);
    println!(
        "# {heading} ({} nodes, {} s, seeds {:?}{})\n",
        base.n_nodes,
        base.duration_secs,
        cli.seeds,
        if cli.quick { ", QUICK" } else { "" }
    );
    // The three groups share the base mobility and seeds, so each seed's
    // contacts are recorded once for all of them.
    let schedules = ScheduleCache::default();
    let mut passed = true;
    for (kind, panels) in [
        ("copies", ["a", "b", "c"]),
        ("buffer", ["d", "e", "f"]),
        ("genrate", ["g", "h", "i"]),
    ] {
        if cli.wants(kind) {
            let (cells, ok) = run_figure_group(
                fig,
                panels,
                &base,
                paper_axis(kind, cli.quick),
                PolicyKind::paper_four().to_vec(),
                &cli,
                &schedules,
            );
            print_ordering_summary(&cells);
            passed &= ok;
        }
    }
    std::process::exit(if passed { 0 } else { 1 });
}

/// Quick qualitative check used by fig8/fig9: prints whether the
/// paper's headline ordering (SDSRP best delivery, lowest overhead;
/// SAW-C worst delivery) holds on the mean across the sweep.
fn print_ordering_summary(cells: &[SweepCell]) {
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
