#!/usr/bin/env bash
# Builds the benchmark and cmd/lrmserve from the checkout it sits in, then
# runs one workload:
#
#   bash perfbench/run.sh --workload precond --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write goes to .bench_build/ at the root
# of the checkout.
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/lrmserve" ] || [ ! -d "$root/internal" ]; then
	echo "perfbench: $root does not hold the lrm source tree" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS= GOENV=off

cd "$root"
go build -o "$out/lrmserve" ./cmd/lrmserve
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -root "$root" -lrmserve "$out/lrmserve" "$@"
