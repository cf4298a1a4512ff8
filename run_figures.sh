#!/bin/bash
# Regenerates the committed results/ from release builds of the figure
# binaries (cargo build --workspace --release first). Only stdout goes
# into the tables: progress and run summaries stay on stderr.
set -ex
cd "$(dirname "$0")"
echo "=== fig3 (full) ==="; ./target/release/fig3 --out results > results/fig3.md
echo "=== fig4 ==="; ./target/release/fig4 --out results > results/fig4.md
echo "=== fig8 (full, 2 seeds) ==="; ./target/release/fig8 --seeds 2 --out results > results/fig8.md
echo "=== ablations (3 seeds) ==="; ./target/release/ablations > results/ablations.md
echo "=== fig9 (full, 1 seed) ==="; ./target/release/fig9 --seeds 1 --out results > results/fig9.md
echo "ALL_FIGURES_DONE"
