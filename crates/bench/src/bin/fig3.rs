//! Regenerates paper Fig. 3: the distribution of intermeeting times
//! under (a) random waypoint and (b) the taxi-trace substitute, with the
//! exponential fit `f(x) = λ e^{-λx}` the SDSRP model assumes.
//!
//! For each scenario the binary prints the fitted λ (and `E(I)`), the
//! coefficient of variation (1.0 for a true exponential), the
//! Kolmogorov–Smirnov distance, the implied `E(I_min) = E(I)/(N-1)`
//! (Eq. 3), and a binned empirical-vs-fitted density table.
//!
//! ```text
//! cargo run -p dtn-bench --release --bin fig3 [-- --quick] [--out DIR]
//! ```

use dtn_analysis::fit::{density_table, fit_exponential, ks_distance_exponential};
use dtn_fleet::cli::{flag_value, parse_args};
use dtn_sim::config::presets;
use dtn_sim::world::World;
use std::fmt::Write as _;

fn main() {
    let (quick, out) = parse_args(
        "[--quick] [--out DIR]",
        (false, None),
        |(quick, out), flag, args| {
            match flag {
                "--quick" => *quick = true,
                "--out" => *out = Some(std::path::PathBuf::from(flag_value(flag, args)?)),
                _ => return Ok(false),
            }
            Ok(true)
        },
    );

    let clustered = {
        let mut cfg = presets::random_waypoint_paper();
        cfg.name = "clustered-communities".into();
        cfg.mobility = dtn_mobility::MobilityConfig::ClusteredWaypoint(
            dtn_mobility::clustered::ClusteredWaypointConfig::default_communities(),
        );
        cfg
    };
    for (panel, mut cfg) in [
        ("a: random-waypoint", presets::random_waypoint_paper()),
        ("b: EPFL taxi substitute", presets::epfl_paper()),
        ("extension: clustered communities", clustered),
    ] {
        if quick {
            cfg.duration_secs = 6_000.0;
        } else {
            // Pure mobility is cheap: observe for 2x the scenario length
            // so fewer long intermeeting gaps are right-censored by the
            // window (the censoring is what pushes the RWP CV below 1).
            cfg.duration_secs *= 2.0;
        }
        // Traffic is irrelevant for contact statistics; generate almost
        // nothing so the run is pure mobility.
        cfg.gen_interval = (cfg.duration_secs, cfg.duration_secs);
        let n_nodes = cfg.n_nodes;

        let mut world = World::build(&cfg);
        world.enable_contact_recording();
        let trace = world.finish().contacts.expect("recording enabled");

        let mut gaps = trace.intermeeting_times();
        let min_gaps = trace.min_intermeeting_times(n_nodes);
        println!("## Fig. 3({panel})");
        println!(
            "contacts: {}   intermeeting samples: {}   min-intermeeting samples: {}",
            trace.len(),
            gaps.len(),
            min_gaps.len()
        );
        let Some(fit) = fit_exponential(&gaps) else {
            println!("not enough samples for a fit\n");
            continue;
        };
        let ks = ks_distance_exponential(&mut gaps, fit.lambda);
        let e_i = fit.mean;
        let e_i_min_eq3 = e_i / (n_nodes as f64 - 1.0);
        let e_i_min_measured = if min_gaps.is_empty() {
            f64::NAN
        } else {
            min_gaps.iter().sum::<f64>() / min_gaps.len() as f64
        };
        println!(
            "E(I) = {e_i:.1} s   lambda = {:.6}/s   CV = {:.3}   KS = {ks:.4}",
            fit.lambda, fit.cv
        );
        println!("E(I_min): Eq. 3 predicts {e_i_min_eq3:.1} s, measured {e_i_min_measured:.1} s");

        let x_max = e_i * 4.0;
        let rows = density_table(&gaps, &fit, x_max, 16);
        let mut table = String::new();
        let _ = writeln!(table, "\n| x (s) | empirical density | fitted λe^-λx |");
        let _ = writeln!(table, "|---|---|---|");
        for r in &rows {
            let _ = writeln!(
                table,
                "| {:.0} | {:.3e} | {:.3e} |",
                r.x, r.empirical, r.fitted
            );
        }
        println!("{table}");

        if let Some(dir) = &out {
            std::fs::create_dir_all(dir).expect("create out dir");
            let mut csv = String::from("x,empirical,fitted\n");
            for r in &rows {
                let _ = writeln!(csv, "{},{},{}", r.x, r.empirical, r.fitted);
            }
            let name = format!("fig3_{}.csv", panel.chars().next().unwrap());
            std::fs::write(dir.join(name), csv).expect("write csv");
        }
    }
}
