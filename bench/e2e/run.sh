#!/usr/bin/env bash
# Builds the benchmark, and the lion CLI its sweep workload runs, from
# source, then runs it with the given arguments. Run from the root of
# the repository, e.g.
#
#   bash bench/e2e/run.sh --workload ycsb-lion --seed 1 --seconds 20 --trace 0
#
# Build output goes to stderr, so the last line on stdout is the
# benchmark's JSON result. Fails without a result when the simulator's
# sources are not there to build.
set -euo pipefail
dune build --root . ./bench/e2e/lionbench.exe 1>&2
exec ./_build/default/bench/e2e/lionbench.exe "$@"
