#!/usr/bin/env bash
# Builds the benchmark and the trsparsed server from source, then runs one
# workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload build-circuit --seed 1 --seconds 15 --trace 0
#
# Every build output, the Go build cache and span files stay under
# .bench_build/ in the repository root.
set -euo pipefail

if [[ ! -f go.mod || ! -d internal || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root (go.mod, internal/ and perfbench/ are needed)" >&2
	exit 2
fi

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOTELEMETRY=off

(cd perfbench && go build -o "$out/perfbench" .) >&2
go build -o "$out/trsparsed" ./cmd/trsparsed >&2

exec "$out/perfbench" -server "$out/trsparsed" -trace-out "$out/traces" "$@"
