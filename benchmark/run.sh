#!/usr/bin/env bash
# Entry point named by BENCHMARK.json. Builds the harness and the unmodified
# ./cmd/volleyd from the checkout's source into .bench_build/ (build cache
# included, so nothing outside the checkout is written), then runs the
# harness with the caller's arguments from the checkout root.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local
(cd "$root" && go build -o "$out/volleyd" ./cmd/volleyd)
(cd "$root/benchmark" && go build -o "$out/volleybench-e2e" .)
cd "$root"
exec "$out/volleybench-e2e" -volleyd "$out/volleyd" "$@"
