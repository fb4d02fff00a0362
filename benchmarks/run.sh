#!/usr/bin/env bash
# Run the whole benchmark from the repo root: all six workloads, each in a
# fresh process, every metric printed by name and unit with host metadata.
# Exits non-zero if any operation failed or (with --sets N) a spread
# exceeded its bound.
#
#   benchmarks/run.sh                      end-to-end metrics, one set
#   benchmarks/run.sh --traced             plus the per-layer rows and span files
#   benchmarks/run.sh --sets 2             repeatability self-check -> results/repeatability.json
#   benchmarks/run.sh --sets 3 --traced --baseline   refresh results/baseline_{e2e,layers}.json
#   benchmarks/run.sh --quick --traced     2k-row smoke of every code path
set -euo pipefail
cd "$(dirname "$0")/.."
exec cargo run --release --offline --quiet --manifest-path benchmarks/Cargo.toml --bin spine -- --all "$@"
