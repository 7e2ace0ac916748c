#!/bin/sh
# Build the phoenix CLI and the benchmark from source, then run one
# workload:  bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Run from the root of a checkout.  Build output goes to stderr so the
# last line of stdout is the result.
set -e
cd "$(dirname "$0")/.."
dune build --root . ./bin/main.exe ./perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe --phoenix ./_build/default/bin/main.exe "$@"
