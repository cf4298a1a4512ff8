//! The ablation tables run through the shared sweep runner: rows fold
//! exactly what direct runs give, rows with one config share its runs,
//! and the command line keeps a single validation flag and only the
//! flags `ablations` reads.

use dtn_bench::ablation::{ablation_rows, run_ablation_rows, AblationRow};
use dtn_bench::Cli;
use dtn_core::stats::OnlineStats;
use dtn_fleet::cli::SweepRunner;
use dtn_sim::config::presets;
use dtn_sim::sweep::SweepOptions;
use dtn_sim::world::World;

fn args(list: &[&str]) -> Vec<String> {
    list.iter().map(|s| s.to_string()).collect()
}

/// The folded means of `row` over `seeds`, each seed a direct
/// `World::build(cfg).finish()`.
fn direct_means(row: &AblationRow, seeds: &[u64]) -> [f64; 3] {
    let mut stats = [OnlineStats::new(), OnlineStats::new(), OnlineStats::new()];
    for &seed in seeds {
        let mut cfg = row.cfg.clone();
        cfg.seed = seed;
        let r = World::build(&cfg).finish().report;
        for (s, x) in
            stats
                .iter_mut()
                .zip([r.delivery_ratio(), r.avg_hopcount(), r.overhead_ratio()])
        {
            s.push(x);
        }
    }
    stats.map(|s| s.mean().unwrap_or(0.0))
}

#[test]
fn runner_rows_fold_the_direct_runs_bit_for_bit() {
    let mut base = presets::smoke();
    base.n_nodes = 20;
    base.duration_secs = 900.0;
    // Two rows with one config, the oracle row and a clustered-mobility
    // row (a second contact key), in print order.
    let labels = [
        "online (paper)",
        "gossip + reject (paper)",
        "oracle m_i/n_i",
        "per-destination λ (SDSRP-H)",
    ];
    let rows: Vec<AblationRow> = ablation_rows(&base)
        .into_iter()
        .filter(|row| labels.contains(&row.label.as_str()))
        .collect();
    let kept: Vec<&str> = rows.iter().map(|row| row.label.as_str()).collect();
    assert_eq!(kept, labels);
    let seeds = [1, 2];
    let opts = SweepOptions {
        threads: 2,
        ..SweepOptions::default()
    };
    let (means, out) =
        run_ablation_rows(&rows, &seeds, &SweepRunner::default(), opts).expect("in-process run");
    assert!(out.errors.is_empty(), "{:?}", out.errors);
    // Three distinct configs, each run once per seed.
    assert_eq!(out.runs.len(), 3 * seeds.len());
    for (row, got) in rows.iter().zip(&means) {
        let want = direct_means(row, &seeds);
        assert_eq!(
            got.map(f64::to_bits),
            want.map(f64::to_bits),
            "{}",
            row.label
        );
    }
    assert_eq!(means[0].map(f64::to_bits), means[1].map(f64::to_bits));
}

#[test]
fn cli_keeps_one_validation_flag() {
    let err = Cli::parse_from(args(&["--validate"]))
        .err()
        .expect("rejected");
    assert_eq!(err, "unknown argument \"--validate\"");
    let cli = Cli::parse_from(args(&[
        "--validate-cells",
        "--workers",
        "2",
        "--retries",
        "1",
        "--checkpoint",
        "ck.jsonl",
        "--resume",
    ]))
    .unwrap_or_else(|e| panic!("{e}"));
    assert!(cli.sweep.validate_cells && cli.sweep.resume);
    assert_eq!(cli.sweep.checkpoint.as_deref(), Some("ck.jsonl".as_ref()));
}

#[test]
fn cli_rejects_flags_ablations_do_not_read_and_zero_seeds() {
    for (list, want) in [
        (&["--out", "o"][..], "unknown argument \"--out\""),
        (&["--sweep", "copies"], "unknown argument \"--sweep\""),
        (&["--latency"], "unknown argument \"--latency\""),
        (&["--seeds", "0"], "--seeds needs a positive number"),
    ] {
        let err = Cli::parse_from(args(list)).err().expect("rejected");
        assert_eq!(err, want, "{list:?}");
    }
    let cli = Cli::parse_from(args(&["--quick", "--seeds", "2"])).unwrap_or_else(|e| panic!("{e}"));
    assert!(cli.quick);
    assert_eq!(cli.sweep.seeds, [1, 2]);
}
