#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload suite-resyn --seed 1 --seconds 15 --trace 0
#
# Run it from the repository root. Every build product and scratch file of
# the go command (build and module caches, temporary work directories,
# telemetry counters, the binary) stays under .bench_build/ there, and the
# toolchain is pinned to the local one with the module proxy off, so a run
# never touches the network or the user's caches.
set -euo pipefail

out="$(pwd)/.bench_build"
export GOCACHE="$out/go-cache" GOMODCACHE="$out/go-mod" GOPATH="$out/go-path"
export GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS="-mod=readonly -buildvcs=false"
mkdir -p "$GOTMPDIR"
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
