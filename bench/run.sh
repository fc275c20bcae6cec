#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments. Run from the root of the checkout. Everything the build
# and the run write (Go build cache, Go's config and telemetry, temporary
# files, WAL directories, span files) stays under .bench_build/ in the
# checkout, and the build never reaches for the network.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/config" "$out/tmp"
export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=

go build -C bench -o "$out/osprey-bench" .
exec "$out/osprey-bench" "$@"
