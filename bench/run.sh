#!/bin/bash
# run.sh — the benchmark's one command: builds the harness from this
# directory and runs it with the arguments given (see main.go). The Go
# build cache and every build product stay inside the checkout, under
# .bench_build, so a run reads and writes nothing outside it and needs
# no network.
set -eu
root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOENV=off \
	GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$root/bench" && go build -o "$build/bin/ecsbench" .)
exec "$build/bin/ecsbench" -root "$root" "$@"
