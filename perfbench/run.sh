#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload grade_serve --seed 3 --seconds 10 --trace 0
#
# Everything the build writes (Go build cache, temporary files, the
# binary) and the spans of traced runs stay under .bench_build/ in the
# checkout root. A checkout without the module's sources fails the build
# and exits non-zero before any result is printed.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
cd "$root"
out=$root/.bench_build
mkdir -p "$out/tmp"
export GOCACHE=$out/gocache GOTMPDIR=$out/tmp GOPATH=$out/gopath \
	XDG_CONFIG_HOME=$out/config GOTOOLCHAIN=local GOFLAGS=-mod=readonly
go -C perfbench build -o "$out/perfbench" . >&2
exec "$out/perfbench" "$@"
