#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it. Everything the
# build and the run leave behind (go build cache, binaries, emitted
# sources, traces) goes under .bench_build/ at the root of the checkout.
#
#   benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#   benchmark/run.sh -runs 10 -out a.json | -compare a.json b.json | -update-golden
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" # the go command keeps its counters there
export GOFLAGS= GOTOOLCHAIN=local GOPROXY=off
# The traced pass is its own binary, which the driver starts for
# --trace 1: it calls into the internal packages of every layer, so a
# change there may stop it from building without stopping the
# end-to-end numbers.
go -C "$here" build -o "$build/bench" .
go -C "$here" build -o "$build/layers" ./layers || rm -f "$build/layers"
exec "$build/bench" "$@"
