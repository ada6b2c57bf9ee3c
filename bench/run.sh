#!/usr/bin/env bash
# Builds the benchmark and runs it with the given arguments. Everything
# the build writes (Go's build cache included) stays inside the checkout,
# under .bench_build/ next to this directory; the run itself writes only
# under bench/out/. Needs the repository around it: bench/ is its own
# module that replaces "repro" with "../".
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")"
build="$(cd .. && pwd)/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOWORK=off
go build -o "$build/bench" .
exec "$build/bench" "$@"
