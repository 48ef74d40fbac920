#!/usr/bin/env bash
# Builds the system's binaries and the benchmark harness from source,
# outside any timing, then runs the harness. Run from the repository
# root; every argument is passed to the harness (see perfbench/README.md):
#
#   bash perfbench/bench.sh --workload service --seed 7 --seconds 30 --trace 0
#
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/home" "$out/tmp"

# Keep the Go toolchain's caches, config, telemetry and temporary files
# inside the checkout, and never let it fetch anything.
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export TMPDIR="$out/tmp" GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache"
export GOENV=off GOTOOLCHAIN=local GOFLAGS= GOPROXY=off GOWORK=off

# With telemetry on or local, the go command starts a detached
# (setsid) process that outlives the build; turn it off in the config
# directory above before the first go command runs.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
echo off > "$XDG_CONFIG_HOME/go/telemetry/mode"

cd "$root"
go build -o "$out/bin/" ./cmd/experiments ./cmd/triaged ./cmd/triageworker
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -root "$root" "$@"
