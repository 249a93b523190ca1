#!/usr/bin/env bash
# Builds nmserve and the benchmark from this checkout, then runs one
# workload. Run from the repository root:
#
#   bash nmperf/run.sh --workload fw1-10k-churn --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the Go build cache, the binaries, artifacts and spans.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/nmserve" || ! -f "$root/nmperf/go.mod" ]]; then
	echo "nmperf: run from the root of a nuevomatch checkout" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTOOLCHAIN=local GOFLAGS= GOENV=off GOWORK=off
go build -o "$out/bin/nmserve" ./cmd/nmserve
(cd "$root/nmperf" && go build -o "$out/bin/nmperf" .)
exec "$out/bin/nmperf" -nmserve "$out/bin/nmserve" -work "$out/work" "$@"
