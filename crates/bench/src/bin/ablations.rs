//! Ablation experiments beyond the paper's figures — each isolates one
//! design choice called out in DESIGN.md. All run at the paper's centre
//! operating point (Table II, L = 32, buffer 2.5 MB, one message per
//! 25-35 s) averaged over the `--seeds` seeds.
//!
//! 1. **λ source** — online estimation (the paper's deployable setting)
//!    vs oracle rates, quantifying estimator error.
//! 2. **Dropped-list gossip** — with vs without record exchange (without
//!    it `d_i` only counts local drops) and with vs without the
//!    receive-reject rule.
//! 3. **Taylor truncation** — Eq. 13 with k = 1/3/8 terms vs the exact
//!    Eq. 10 closed form.
//! 4. **Global knowledge** — SDSRP fed perfect `m_i`/`n_i` by the
//!    simulator (GBSD-style upper bound) vs distributed estimation.
//! 5. **Extra drop policies** — MOFO, SHLI, LIFO and Random against the
//!    paper's four.
//! 6. **Routing substrate** — binary vs source spray, Spray-and-Focus
//!    and Epidemic under both FIFO and SDSRP buffers.
//! 10. **Congestion-adaptive admission** — occupancy-gated acceptance
//!     and tiered retention against the paper's four under buffer
//!     pressure.
//!
//! The rows run as one job list through the shared sweep runner, with
//! `fig8`'s validation, checkpoint and fleet flags and exit status.
//!
//! ```text
//! cargo run -p dtn-bench --release --bin ablations [-- --quick] [--seeds N]
//!     [--validate-cells] [--checkpoint FILE [--resume]] [--workers N ...]
//! ```

use dtn_bench::ablation::{ablation_rows, run_ablation_rows};
use dtn_bench::{apply_quick, Cli};
use dtn_fleet::cli::{progress_printer, report_sweep};
use dtn_sim::config::presets;
use dtn_sim::sweep::SweepOptions;
use std::path::Path;

fn main() {
    let cli = Cli::parse();
    let mut base = presets::random_waypoint_paper();
    apply_quick(&mut base, cli.quick);
    println!(
        "# SDSRP ablations (RWP, {} nodes, {} s, seeds {:?})",
        base.n_nodes, base.duration_secs, cli.sweep.seeds
    );

    let rows = ablation_rows(&base);
    let progress = progress_printer("ablations");
    let flags = &cli.sweep;
    let opts = SweepOptions {
        validate: flags.validate_cells,
        checkpoint: flags.checkpoint_at(Path::to_path_buf),
        progress: Some(&progress),
        ..SweepOptions::default()
    };
    let (means, out) =
        run_ablation_rows(&rows, &flags.seeds, &flags.runner, opts).unwrap_or_else(|e| {
            eprintln!("ablations: fleet failed: {e}");
            std::process::exit(2);
        });
    let mut section = "";
    for (row, [d, h, o]) in rows.iter().zip(means) {
        if row.section != section {
            section = row.section;
            println!("\n### {section}\n");
            println!("| variant | delivery | hops | overhead |");
            println!("|---|---|---|---|");
        }
        println!("| {} | {d:.4} | {h:.2} | {o:.2} |", row.label);
    }
    let passed = report_sweep("ablations", &out);
    std::process::exit(if passed { 0 } else { 1 });
}
