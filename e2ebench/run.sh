#!/usr/bin/env bash
# Builds the end-to-end benchmark and chortled from this checkout, then
# runs the benchmark with the given arguments, e.g.
#
#   bash e2ebench/run.sh --workload paper_tree --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Everything it builds or writes stays
# under .bench_build/ in the current directory.
set -euo pipefail

out="$(pwd)/.bench_build"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOTMPDIR="$out/tmp" GOENV=off GOWORK=off
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off GOTELEMETRY=off
mkdir -p "$out/bin" "$out/tmp"
(cd e2ebench && go build -o "$out/bin/e2ebench" . && go build -o "$out/bin/chortled" chortle/cmd/chortled) >&2
exec "$out/bin/e2ebench" -chortled "$out/bin/chortled" "$@"
