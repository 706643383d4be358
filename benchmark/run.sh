#!/usr/bin/env bash
# The repository benchmark's one command (see benchmark/README.md).
#
#   benchmark/run.sh [--seed N] [--repeats R] [--smoke] [--out FILE]
#       all four workloads: end-to-end + per-layer metrics + traced run
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       one workload (the form BENCHMARK.json's driver uses)
#   benchmark/run.sh compare A.json B.json
#
# Builds the benchmark package from source (offline: path crates only) and
# runs it from the repository root.
set -euo pipefail
cd "$(dirname "$0")/.."
exec cargo run --quiet --release --offline --manifest-path benchmark/Cargo.toml -- "$@"
