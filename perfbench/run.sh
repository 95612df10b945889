#!/usr/bin/env bash
# Builds the benchmark from source in this checkout and runs it:
#
#   bash perfbench/run.sh --workload verify-large --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Everything the build writes (binary, Go
# build cache, spill files) stays under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOFLAGS=
export GOENV=off
export CGO_ENABLED=0

(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
