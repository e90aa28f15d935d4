#!/usr/bin/env bash
# Builds the serving daemon and the benchmark program from the sources of
# the checkout it is run in, then runs one benchmark workload:
#
#   bash perfbench/run.sh --workload serve-inline --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Every build and run artefact stays
# under .bench_build/ in that directory.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=mod CGO_ENABLED=0
mkdir -p "$build/bin"

go build -o "$build/bin/serve" ./cmd/serve >&2
(cd perfbench && go build -o "$build/bin/perfbench" .) >&2
exec "$build/bin/perfbench" -serve-bin "$build/bin/serve" -work "$build/work" "$@"
