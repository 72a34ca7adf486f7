#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it. Run it from
# the repository root; its arguments go to the benchmark, e.g.
#
#   bash e2ebench/run.sh --workload grayfail-week --seed 1 --seconds 30 --trace 0
#
# Everything the build writes (Go build cache, temporary files, the
# binary) stays under .bench_build/ in the current directory.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	HOME="$out/home" XDG_CONFIG_HOME="$out/home" XDG_CACHE_HOME="$out/home" \
	GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go build -C e2ebench -o "$out/e2ebench" .
exec "$out/e2ebench" "$@"
