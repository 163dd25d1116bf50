#!/usr/bin/env bash
# Builds the benchmark and catt_d from this checkout, then runs one
# workload:
#   bash perfbench/run.sh --workload grid-cold --seed 1 --seconds 10 --trace 0
# Build output goes to stderr; the last line of stdout is the JSON result.
set -euo pipefail
cd "$(dirname "$0")/.."
# keep every build artefact inside the checkout
export DUNE_CACHE=disabled
dune build --root . \
  ./perfbench/bench.exe ./bin/catt_d.exe 1>&2
exec ./_build/default/perfbench/bench.exe "$@"
