#!/bin/bash
# Builds and runs the repository benchmark from the root of a checkout:
#
#	bash hp4perf/run.sh --workload slices-chan --seed 1 --seconds 15 --trace 0
#
# Build outputs, the Go build cache and run scratch files all stay under
# .bench_build/ in the checkout. The build fails (non-zero exit, no result)
# when the checkout has no HyPer4 sources next to hp4perf/.
set -eu
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOENV=off
(cd "$root/hp4perf" && go build -o "$out/hp4perf" .) >&2
exec "$out/hp4perf" --scratch "$out/scratch" "$@"
