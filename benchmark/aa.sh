#!/usr/bin/env bash
# A/A check: runs the full set of workloads N times on this commit (default
# 2; use 5 when deriving bounds) and holds each end-to-end metric's
# run-to-run spread against its bound in BENCHMARK.json. Exits non-zero on a
# breach, on any failed output check and on any run marked invalid.
#
#   benchmark/aa.sh            two sets
#   benchmark/aa.sh 5          five sets
#   benchmark/aa.sh 5 --derive five sets, then write bounds = max(floor, 2 x
#                              widest spread) into BENCHMARK.json
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
runs=2
if [ "$#" -gt 0 ] && [[ "$1" =~ ^[0-9]+$ ]]; then
  runs="$1"
  shift
fi
exec "$here/run.sh" aa --runs "$runs" "$@"
