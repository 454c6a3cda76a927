#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run in and
# runs it with the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload serve-mix --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write goes under .bench_build/ in the
# current directory.
set -euo pipefail

if [[ ! -f go.mod || ! -f perfbench/go.mod || ! -d internal/server ]]; then
	echo "perfbench: run from the repository root (no kplexd sources here)" >&2
	exit 2
fi
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOWORK=off GOPROXY=off
(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
