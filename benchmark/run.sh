#!/bin/sh
# Builds the Eden benchmark from this checkout's sources and runs it.
# Usage (from the repository root):
#   sh benchmark/run.sh --workload udp-raw --seed 1 --seconds 10 --trace 0
#   sh benchmark/run.sh --workload all --seed 1 --seconds 10
#   sh benchmark/run.sh compare PARENT.jsonl CHANGE.jsonl
# Build products and the Go build cache stay under .bench_build/.
set -eu
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off XDG_CONFIG_HOME="$out/config"
if ! (cd "$root/benchmark" && go build -o "$out/eden-bench" .) >&2; then
	echo "benchmark: build failed" >&2
	exit 2
fi
exec "$out/eden-bench" "$@"
