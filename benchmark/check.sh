#!/usr/bin/env bash
# Builds the benchmark and runs every workload, untraced and traced, at 1/16
# size on seed 1 and on seed 2 (a seed nobody tuned against). `ringbench`
# itself checks every sample against the graph, compares the digests of the
# three epoch_skew_* workloads, and compares the workload and metric names
# and units it emits with BENCHMARK.json; any failure exits non-zero.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-benchmark/target}"
cargo build --release --offline --manifest-path benchmark/Cargo.toml --bin ringbench
for seed in 1 2; do
    "$CARGO_TARGET_DIR/release/ringbench" --quick --trace 1 --seed "$seed"
done
echo "check.sh: ok"
