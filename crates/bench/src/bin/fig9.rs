//! Regenerates paper Fig. 9 (a-i): the three sweeps of Fig. 8 under the
//! real-world-trace scenario — here the EPFL/CRAWDAD San-Francisco taxi
//! data is replaced by the `HotspotTaxi` synthetic substitute (200
//! taxis, hotspot city; see DESIGN.md for the substitution argument).
//!
//! Usage mirrors `fig8`:
//!
//! ```text
//! cargo run -p dtn-bench --release --bin fig9 [-- --quick] [--seeds N]
//!     [--sweep copies|buffer|genrate] [--out results/] [--workers N ...]
//! ```

use dtn_sim::config::presets;

fn main() {
    dtn_bench::run_paper_figure(
        "Fig.9",
        "Fig. 9 — EPFL taxi substitute",
        presets::epfl_paper(),
    );
}
