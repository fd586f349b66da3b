#!/usr/bin/env bash
# Repeatability check: runs the end-to-end set N times (default 2) back
# to back with the same seed and prints, per workload and metric, every
# value, the largest relative difference and the bound from
# BENCHMARK.json. Exits non-zero if a difference exceeds its bound.
#
#   benchmarks/repeat.sh [N] [extra e2e flags, e.g. --seed 2]
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
n="${1:-2}"
shift || true
exec bash "$here/run.sh" --workload all --repeat "$n" --bounds "$(dirname "$here")/BENCHMARK.json" "$@"
