#!/usr/bin/env bash
# Builds the benchmark (release, offline) and runs it.
#
#   benchmark/run.sh all --seed 1            every workload, untraced pass
#   benchmark/run.sh all --seed 1 --trace    ... plus the traced per-layer pass
#   benchmark/run.sh --workload serve_mix --seed 1 --seconds 10 --trace 0
#                                            one workload, the contract's form
#
# With no arguments it runs `all`. The build goes to $CARGO_TARGET_DIR when
# set, else to benchmark/target; span files go to benchmark/out.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
if [ "$#" -eq 0 ]; then
  set -- all
fi
exec cargo run --release --offline --quiet --manifest-path "$here/Cargo.toml" -- \
  --out "$here/out" --root "$here/.." "$@"
