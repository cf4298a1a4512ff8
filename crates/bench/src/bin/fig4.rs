//! Regenerates paper Fig. 4: the functional relationship between the
//! priority `U_i` and `P(R_i)` — the idealised Eq. 11 curve with its
//! peak at `P(R) = 1 - 1/e`, and the Eq. 13 Taylor truncations (k = 1,
//! 2, 5, 20) converging towards it.
//!
//! ```text
//! cargo run -p dtn-bench --release --bin fig4 [-- --out DIR]
//! ```

use dtn_fleet::cli::{flag_value, parse_args};
use sdsrp_core::priority::{PriorityModel, PEAK_PR};
use std::fmt::Write as _;

fn main() {
    let out = parse_args("[--out DIR]", None, |out, flag, args| {
        if flag != "--out" {
            return Ok(false);
        }
        *out = Some(std::path::PathBuf::from(flag_value(flag, args)?));
        Ok(true)
    });
    let ks = [1usize, 2, 5, 20];
    let pt = 0.0;
    let holders = 1;

    println!("# Fig. 4 — U_i as a function of P(R_i)  (P(T)=0, n_i=1)\n");
    println!("peak of the idealisation: P(R) = 1 - 1/e = {PEAK_PR:.6}\n");

    let mut md = String::from("| P(R) | idealization |");
    for k in ks {
        let _ = write!(md, " k={k} |");
    }
    md.push('\n');
    md.push_str("|---|---|");
    for _ in ks {
        md.push_str("---|");
    }
    md.push('\n');

    let mut csv = String::from("pr,ideal");
    for k in ks {
        let _ = write!(csv, ",k{k}");
    }
    csv.push('\n');

    let mut argmax = (0.0f64, f64::NEG_INFINITY);
    for i in 0..=40 {
        let pr = i as f64 / 40.0;
        let ideal = PriorityModel::priority_from_probabilities(pt, pr, holders);
        if ideal > argmax.1 {
            argmax = (pr, ideal);
        }
        let _ = write!(md, "| {pr:.3} | {ideal:.4} |");
        let _ = write!(csv, "{pr},{ideal}");
        for k in ks {
            let v = PriorityModel::priority_taylor(pt, pr, holders, k);
            let _ = write!(md, " {v:.4} |");
            let _ = write!(csv, ",{v}");
        }
        md.push('\n');
        csv.push('\n');
    }
    println!("{md}");
    println!(
        "grid argmax at P(R) = {:.3} (expected near {PEAK_PR:.3})",
        argmax.0
    );

    if let Some(dir) = &out {
        std::fs::create_dir_all(dir).expect("create out dir");
        std::fs::write(dir.join("fig4.csv"), csv).expect("write csv");
    }
}
