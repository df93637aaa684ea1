#!/usr/bin/env bash
# The driver's entry point (BENCHMARK.json "command"): build the
# benchmark from the checkout's sources, then run it with the driver's
# arguments. Run from the root of a checkout.
#
# Everything the build leaves behind stays inside the checkout, in
# .bench_build: the binary, the Go build cache and the compiler's
# temporary files. The first build in a checkout compiles the standard
# library into that cache (about half a minute on two cores); later
# runs only check that the binary is up to date.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local

go build -o "$build/ntpscan-benchmark" ./benchmark
exec "$build/ntpscan-benchmark" "$@"
