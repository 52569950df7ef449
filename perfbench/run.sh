#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs one workload:
#
#   bash perfbench/run.sh --workload stream_select_1e6 --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Everything it writes (Go build cache,
# binary, generated inputs, traces) stays under .bench_build/ there.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOPATH="$out/gopath" GOENV=off GOFLAGS= GOPROXY=off GOWORK=off GOTOOLCHAIN=local

# The benchmark is a module of its own that builds against the
# repository one directory up; without the repository it fails here.
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" --workdir "$out" "$@"
