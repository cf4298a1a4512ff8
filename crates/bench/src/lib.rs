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
//! Every binary parses through [`dtn_fleet::cli::parse_args`] and takes
//! only the flags it reads; any other flag, or a malformed value, is a
//! usage error (exit 2). `fig3` and `fig4` take `--out DIR` to also
//! write CSVs, and `fig3` takes `--quick`. `fig8`, `fig9` and
//! `ablations` parse a [`Cli`]: `--quick` for a reduced-scale smoke pass
//! plus [`dtn_fleet::cli::SweepFlags`], the seeds, validation,
//! checkpoint and fleet flags `dtn-scenario --sweep` reads too. They
//! exit 1 after the last table when a run panicked or broke an
//! invariant. `fig8` and `fig9` also take `--out DIR`, `--sweep
//! copies|buffer|genrate` (a paper entry of
//! [`dtn_sim::sweep::NamedSweep`], whose `--quick` points they use) and
//! `--latency`, and print each group through
//! [`dtn_fleet::cli::print_sweep`].

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![warn(rust_2018_idioms)]

pub mod ablation;

use dtn_fleet::cli::{flag_value, parse_args, parse_flags, print_sweep, SweepFlags, SWEEP_USAGE};
use dtn_sim::config::ScenarioConfig;
use dtn_sim::output::Metric;
use dtn_sim::sweep::{NamedSweep, ScheduleCache, SweepCell, SweepOptions};
use std::path::PathBuf;

/// The flags of the sweep binaries (`fig8`, `fig9`, `ablations`).
#[derive(Default)]
pub struct Cli {
    /// Reduced-scale run for smoke checks.
    pub quick: bool,
    /// The sweep flags `dtn-scenario --sweep` reads too: seeds,
    /// validation, checkpoint (`fig8` and `fig9` write one file per
    /// figure group, derived from it) and the fleet flags.
    pub sweep: SweepFlags,
}

impl Cli {
    /// Parses `std::env::args`. A malformed or unknown flag prints the
    /// usage and exits 2.
    pub fn parse() -> Cli {
        parse_args(
            &format!("[--quick] {SWEEP_USAGE}"),
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
        if flag == "--quick" {
            self.quick = true;
            return Ok(true);
        }
        self.sweep.take(flag, args)
    }
}

/// `fig8`/`fig9`: the [`Cli`] plus the figure-only flags.
#[derive(Default)]
struct FigureCli {
    common: Cli,
    /// Optional CSV output directory.
    out: Option<PathBuf>,
    /// Optional filter: the name of the one paper sweep to run.
    sweep: Option<String>,
    /// Also print the supplementary delivery-latency panel.
    latency: bool,
}

impl FigureCli {
    fn parse() -> FigureCli {
        let usage = format!(
            "[--quick] [--out DIR] [--sweep copies|buffer|genrate] [--latency]\n\t{SWEEP_USAGE}"
        );
        parse_args(&usage, FigureCli::default(), |fig, flag, args| {
            match flag {
                "--out" => fig.out = Some(flag_value(flag, args)?.into()),
                "--sweep" => {
                    let kind = flag_value(flag, args)?;
                    if !NamedSweep::find(&kind, false).is_some_and(|s| s.paper) {
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

/// Runs one paper sweep group and prints the three paper metrics as
/// markdown tables (optionally writing CSVs). Returns the cells and
/// whether the group passed (no panicked run, no invariant violation).
/// In-process cells share contact schedules through `schedules`.
fn run_figure_group(
    fig: &str,
    panel_ids: [&str; 3],
    base: &ScenarioConfig,
    sweep: NamedSweep,
    cli: &FigureCli,
    schedules: &ScheduleCache,
) -> (Vec<SweepCell>, bool) {
    let flags = &cli.common.sweep;
    let spec = flags.spec(base.clone(), sweep);
    let xlabel = spec.axis.name();
    let opts = SweepOptions {
        checkpoint: flags.checkpoint_at(|stem| group_checkpoint_path(stem, fig, xlabel)),
        schedules: Some(schedules),
        ..SweepOptions::default()
    };
    let mut panels = vec![
        (Metric::DeliveryRatio, panel_ids[0].to_string()),
        (Metric::AvgHopcount, panel_ids[1].to_string()),
        (Metric::OverheadRatio, panel_ids[2].to_string()),
    ];
    if cli.latency {
        // Supplementary panel beyond the paper's three metrics.
        panels.push((Metric::AvgLatency, format!("{}-latency", panel_ids[0])));
    }
    let tables = panels
        .into_iter()
        .map(|(metric, panel)| {
            let title = format!("{fig}({panel}) {} vs {xlabel}", metric.name());
            let csv = cli
                .out
                .as_ref()
                .map(|dir| dir.join(format!("{}_{panel}.csv", fig.replace(['.', ' '], ""))));
            (metric, title, csv)
        })
        .collect();
    print_sweep(fig, &flags.runner, &spec, opts, tables)
}

/// Regenerates a Fig. 8/9 style figure: the copies (a-c), buffer (d-f)
/// and generation-rate (g-i) sweeps of the paper's four policies over
/// `base`, each followed by its sweep-mean ordering summary. Exits 1
/// after the last group if any group failed, 0 otherwise.
pub fn run_paper_figure(fig: &str, heading: &str, mut base: ScenarioConfig) -> ! {
    let cli = FigureCli::parse();
    let quick = cli.common.quick;
    apply_quick(&mut base, quick);
    println!(
        "# {heading} ({} nodes, {} s, seeds {:?}{})\n",
        base.n_nodes,
        base.duration_secs,
        cli.common.sweep.seeds,
        if quick { ", QUICK" } else { "" }
    );
    // The three groups share the base mobility and seeds, so each seed's
    // contacts are recorded once for all of them.
    let schedules = ScheduleCache::default();
    let mut passed = true;
    let groups = NamedSweep::all(quick).into_iter().filter(|s| s.paper);
    for (sweep, panels) in groups.zip([["a", "b", "c"], ["d", "e", "f"], ["g", "h", "i"]]) {
        if cli.sweep.as_deref().is_none_or(|s| s == sweep.name) {
            let (cells, ok) = run_figure_group(fig, panels, &base, sweep, &cli, &schedules);
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
