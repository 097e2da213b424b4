#!/usr/bin/env bash
# Entry point of the benchmark: builds the harness and cbvr-server from
# source into .bench_build/ in the checkout (cheap once built), then runs
# the harness with the arguments given. Everything it writes, Go's build
# cache and the stores' temp dirs included, stays under .bench_build/.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOENV=off TMPDIR="$build/tmp"
go build -o "$build/cbvr-server" ./cmd/cbvr-server >&2
(cd bench && go build -o "$build/bench" .) >&2
exec "$build/bench" -server "$build/cbvr-server" -manifest "$root/BENCHMARK.json" "$@"
