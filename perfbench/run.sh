#!/usr/bin/env bash
# Builds the benchmark and the bfsd daemon from this checkout, then runs
# one workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload serve-st --seed 1 --seconds 40 --trace 0
#
# Everything the build and the run write (Go build cache, binaries,
# generated inputs, reports, traces) stays under .bench_build/perfbench.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/bfsd" ]]; then
	echo "perfbench: run from the repository root (no go.mod or cmd/bfsd here)" >&2
	exit 2
fi
work="$root/.bench_build/perfbench"
mkdir -p "$work/gocache" "$work/tmp" "$work/home" "$work/bin"
export GOCACHE="$work/gocache" GOTMPDIR="$work/tmp" TMPDIR="$work/tmp" \
	GOPATH="$work/gopath" HOME="$work/home" XDG_CONFIG_HOME="$work/home" \
	GOTOOLCHAIN=local GOPROXY=off GOENV=off

go build -o "$work/bin/bfsd" ./cmd/bfsd
(cd perfbench && go build -o "$work/bin/perfbench" .)
exec "$work/bin/perfbench" -work "$work" -bfsd "$work/bin/bfsd" "$@"
