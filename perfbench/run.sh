#!/usr/bin/env bash
# Builds the `tgp` server and the benchmark from source, then runs one
# workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload small-mix --seed 1 --seconds 10 --trace 0
#
# Build output goes to stderr; the last stdout line is the JSON result.
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"

cargo build --release --offline --quiet -p tgp-cli --bin tgp >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2

exec "$CARGO_TARGET_DIR/release/perfbench" --server "$CARGO_TARGET_DIR/release/tgp" "$@"
