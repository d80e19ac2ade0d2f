#!/usr/bin/env bash
# Builds genalgd and the perfbench binary from this checkout, then runs
# perfbench with the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload point_lookup --seed 1 --seconds 10 --trace 0
#
# Build outputs and the Go build cache live under .bench_build/ in the
# checkout, so nothing is written outside it.
set -euo pipefail

root=$(pwd)
if [[ ! -f go.mod || ! -d cmd/genalgd ]]; then
	echo "run.sh: no genalg sources (go.mod, cmd/genalgd) in $root; run it from the repository root" >&2
	exit 1
fi
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config/go/telemetry"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOFLAGS=-mod=mod \
	GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
# With telemetry in its default "local" mode every go command forks a
# detached sidecar process that outlives it. Turning telemetry off in the
# private config directory stops go from starting one.
echo off >"$out/config/go/telemetry/mode"

go build -o "$out/genalgd" ./cmd/genalgd
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -genalgd "$out/genalgd" -workdir "$out/runs" "$@"
