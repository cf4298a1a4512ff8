//! Regenerates paper Fig. 8 (a-i): delivery ratio, average hopcounts and
//! overhead ratio as functions of initial copies (a-c; buffer 2.5 MB,
//! gen 25-35 s), buffer size (d-f; L = 32, gen 25-35 s) and message
//! generation rate (g-i; L = 32, buffer 2.5 MB) under the
//! random-waypoint mobility pattern (Table II parameters).
//!
//! Usage:
//!
//! ```text
//! cargo run -p dtn-bench --release --bin fig8 [-- --quick] [--seeds N]
//!     [--sweep copies|buffer|genrate] [--out results/] [--workers N ...]
//! ```

use dtn_sim::config::presets;

fn main() {
    dtn_bench::run_paper_figure(
        "Fig.8",
        "Fig. 8 — random waypoint",
        presets::random_waypoint_paper(),
    );
}
