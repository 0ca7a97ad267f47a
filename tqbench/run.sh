#!/usr/bin/env bash
# Build the benchmark from this checkout's sources, then run it.
#
#   bash tqbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Run from the repository root.  Build output goes to stderr, so the
# last line of stdout is always the benchmark's result JSON.  Without
# the library sources next to it the build fails and the script exits
# non-zero before printing anything.
set -euo pipefail
cd "$(dirname "$0")/.."
if ! command -v dune > /dev/null && command -v opam > /dev/null; then
  eval "$(opam env)"
fi
dune build --root . ./tqbench/main.exe 1>&2
exec ./_build/default/tqbench/main.exe "$@"
