#!/usr/bin/env bash
# Build `jitspmm-serve` and the benchmark harness from source, then run one
# workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload serve-open-loop --seed 1 --seconds 20 --trace 0
#
# Build output goes to stderr; the last stdout line is the JSON result.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet -p jitspmm-bench --bin jitspmm-serve >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" --serve-bin "$CARGO_TARGET_DIR/release/jitspmm-serve" "$@"
