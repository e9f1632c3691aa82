#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments. Run it from the repository root, for example
#
#   bash perfbench/run.sh --workload ctqo-sync --seed 1 --seconds 30 --trace 0
#
# The binary, the Go build cache and every other file the build writes
# stay under .bench_build/ in that directory.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go -C "$here" build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
