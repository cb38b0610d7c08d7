#!/usr/bin/env bash
# Builds the benchmark and the revel_serve binary it drives, then runs it.
# Run from the repository root:
#   bash revelbench/run.sh --workload serve_warm --seed 1 --seconds 12 --trace 0
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path revelbench/Cargo.toml
cargo build --release --offline --quiet -p revel-serve --bin revel_serve
exec "$CARGO_TARGET_DIR/release/revelbench" "$@"
