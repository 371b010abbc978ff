#!/usr/bin/env bash
# Build the hotpath library, the `hotpath` binary and the benchmark from
# source, then make one benchmark run:
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# NAME is replay-mmap, serve-mix or figures-suite.  Run it from the
# repository root.  Build output goes to stderr; the last line of
# standard output is the run's JSON result.
set -euo pipefail
cd "$(dirname "$0")/.."
# Keep every build artefact inside the checkout.
export DUNE_CACHE=disabled
dune build --root . perfbench/main.exe bin/hotpath_cli.exe 1>&2
exec _build/default/perfbench/main.exe --hotpath _build/default/bin/hotpath_cli.exe "$@"
