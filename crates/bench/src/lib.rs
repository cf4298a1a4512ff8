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
//! Each binary takes only the flags it reads; any other flag, or a
//! malformed value, is a usage error (exit 2). `fig3` and `fig4` take
//! `--out DIR` to also write CSVs, and `fig3` takes `--quick`. `fig8`,
//! `fig9` and `ablations` parse a [`Cli`] (`--quick` for a reduced-scale
//! smoke pass, `--seeds N`, validation and checkpoint flags) and run
//! their cells through [`dtn_fleet::cli::SweepRunner`], so they take the
//! same fleet flags as `dtn-scenario --sweep` and exit 1 after the last
//! table when a run panicked or broke an invariant. `fig8` and `fig9`
//! also take `--out DIR`, `--sweep copies|buffer|genrate` and
//! `--latency`.

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

/// The flags of the sweep binaries (`fig8`, `fig9`, `ablations`).
pub struct Cli {
    /// Reduced-scale run for smoke checks.
    pub quick: bool,
    /// Seeds to average over (`--seeds N` is `1..=N`, N at least 1).
    pub seeds: Vec<u64>,
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

/// The usage of the [`Cli`] flags.
const CLI_USAGE: &str = "[--quick] [--seeds N] [--validate-cells] [--checkpoint FILE [--resume]]";

impl Default for Cli {
    fn default() -> Cli {
        Cli {
            quick: false,
            seeds: vec![1, 2, 3],
            validate_cells: false,
            checkpoint: None,
            resume: false,
            runner: SweepRunner::default(),
        }
    }
}

impl Cli {
    /// Parses `std::env::args`. A malformed or unknown flag prints the
    /// usage and exits 2.
    pub fn parse() -> Cli {
        parse_args(
            &format!("{CLI_USAGE}\n\t{FLEET_USAGE}"),
            Cli::default(),
            Cli::take,
        )
    }

    /// Parses `args` (the program name excluded).
    pub fn parse_from(args: impl IntoIterator<Item = String>) -> Result<Cli, String> {
        parse_flags(args.into_iter(), Cli::default(), Cli::take)
    }

    /// Applies `flag`, reading its value from `args`; `Ok(false)` when
    /// the flag is not one of the [`Cli`] flags.
    fn take(
        &mut self,
        flag: &str,
        args: &mut impl Iterator<Item = String>,
    ) -> Result<bool, String> {
        match flag {
            "--quick" => self.quick = true,
            "--validate-cells" => self.validate_cells = true,
            "--resume" => self.resume = true,
            "--checkpoint" => self.checkpoint = Some(flag_value(flag, args)?.into()),
            "--seeds" => self.seeds = (1..=flag_count(flag, args)?).collect(),
            _ => return self.runner.parse_flag(flag, args),
        }
        Ok(true)
    }
}

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

/// [`parse_args`] over `args` (the program name excluded), returning
/// the error instead of exiting.
fn parse_flags<T, I: Iterator<Item = String>>(
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
/// flag the binary does not read. That flag, or a malformed value, is
/// printed with the binary's `usage` (its flags) and exits 2.
pub fn parse_args<T>(
    usage: &str,
    into: T,
    take: impl FnMut(&mut T, &str, &mut std::env::Args) -> Result<bool, String>,
) -> T {
    let mut args = std::env::args();
    let program = args.next().unwrap_or_default();
    parse_flags(args, into, take).unwrap_or_else(|e| {
        eprintln!("{e}\nusage: {program} {usage}");
        std::process::exit(2);
    })
}

/// `fig8`/`fig9`: the [`Cli`] plus the figure-only flags.
struct FigureCli {
    common: Cli,
    /// Optional CSV output directory.
    out: Option<PathBuf>,
    /// Optional sweep filter (`copies`, `buffer`, `genrate`).
    sweep: Option<String>,
    /// Also print the supplementary delivery-latency panel.
    latency: bool,
}

impl FigureCli {
    fn parse() -> FigureCli {
        let usage = format!(
            "{CLI_USAGE}\n\t[--out DIR] [--sweep copies|buffer|genrate] [--latency]\n\t{FLEET_USAGE}"
        );
        let init = FigureCli {
            common: Cli::default(),
            out: None,
            sweep: None,
            latency: false,
        };
        parse_args(&usage, init, |fig, flag, args| {
            match flag {
                "--out" => fig.out = Some(flag_value(flag, args)?.into()),
                "--sweep" => {
                    let kind = flag_value(flag, args)?;
                    if !["copies", "buffer", "genrate"].contains(&kind.as_str()) {
                        return Err(format!("unknown sweep {kind:?}"));
                    }
                    fig.sweep = Some(kind);
                }
                "--latency" => fig.latency = true,
                _ => return fig.common.take(flag, args),
            }
            Ok(true)
        })
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
    cli: &FigureCli,
    schedules: &ScheduleCache,
) -> (Vec<SweepCell>, bool) {
    let spec = SweepSpec {
        base: base.clone(),
        axis,
        policies,
        seeds: cli.common.seeds.clone(),
        validate: cli.common.validate_cells,
    };
    let xlabel = spec.axis.name().to_string();
    // Live progress on stderr (stdout carries the markdown tables).
    let progress = progress_printer(fig);
    let opts = SweepOptions {
        checkpoint: cli.common.checkpoint.as_ref().map(|stem| SweepCheckpoint {
            path: group_checkpoint_path(stem, fig, &xlabel),
            resume: cli.common.resume,
        }),
        progress: Some(&progress),
        schedules: Some(schedules),
        ..SweepOptions::default()
    };
    let out = cli.common.runner.run(&spec, opts).unwrap_or_else(|e| {
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
    let cli = FigureCli::parse();
    apply_quick(&mut base, cli.common.quick);
    println!(
        "# {heading} ({} nodes, {} s, seeds {:?}{})\n",
        base.n_nodes,
        base.duration_secs,
        cli.common.seeds,
        if cli.common.quick { ", QUICK" } else { "" }
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
                paper_axis(kind, cli.common.quick),
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
