#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the root of a
# checkout:
#
#   bash benchmark/run.sh --workload ingest-ring --seed 1 --seconds 10 --trace 0
#
# Everything this writes — Go's build cache, the binary, the run's scratch
# directory — stays under the checkout, in .bench_build/ and .bench-run-*.
set -euo pipefail

# The benchmark imports the module's internal packages: without the
# module around it there is nothing to measure.
if [ ! -f go.mod ] || [ ! -d internal ]; then
	echo "benchmark/run.sh: run from the root of a checkout of the repository" >&2
	exit 2
fi

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
# HOME moves Go's env file and telemetry directory along with the caches;
# GOTOOLCHAIN=local keeps the go command from fetching another toolchain.
env HOME="$build/home" GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	GOTOOLCHAIN=local \
	go build -o "$build/benchmark" ./benchmark
exec "$build/benchmark" "$@"
