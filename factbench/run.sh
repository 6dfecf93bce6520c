#!/usr/bin/env bash
# Builds the FACT service benchmark from source and runs it with the
# given arguments, e.g.
#
#   bash factbench/run.sh --workload audit-inline-2k --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. Everything the build and the runs
# leave behind (Go build cache, binary, trace files) goes to
# .bench_build/ under the current directory.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=
export GOWORK=off
(cd "$root/factbench" && go build -o "$out/factbench" .)
exec "$out/factbench" "$@"
