#!/usr/bin/env bash
# Build gmtc and the benchmark from source in this checkout, then run
# the benchmark with the caller's arguments, e.g.
#   bash perfbench/run.sh --workload matrix --seed 1 --seconds 20 --trace 0
set -euo pipefail
export DUNE_CACHE=disabled
dune build --root . --display quiet bin/gmtc.exe perfbench/gmtbench.exe 1>&2
exec ./_build/default/perfbench/gmtbench.exe --gmtc ./_build/default/bin/gmtc.exe "$@"
