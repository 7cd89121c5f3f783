#!/usr/bin/env bash
# Builds predis-perf from source inside the checkout and runs it with the
# given arguments; BENCHMARK.json names this script as the command. The
# Go build cache, temporary files and the binary all live under
# .bench_build/ in the working directory, so a run reads and writes only
# inside its checkout. Run it from the repository root.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOFLAGS=-buildvcs=false
go build -o "$out/predis-perf" ./cmd/predis-perf
exec "$out/predis-perf" "$@"
