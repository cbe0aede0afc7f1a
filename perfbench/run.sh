#!/bin/sh
# Build the benchmark and the skipflow CLI from the sources of this
# checkout, then run the benchmark with the given arguments.  Run from
# anywhere; see perfbench/README.md for the verbs and flags.
set -e
cd "$(dirname "$0")/.."
dune build --root . --display quiet --cache=disabled \
  ./perfbench/main.exe ./bin/skipflow.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
