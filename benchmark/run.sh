#!/usr/bin/env bash
# The BENCHMARK.json command: build scbench once, then become it.
#
# `go build` (never `go run`, whose child outlives a killed parent) writes
# the binary under benchmark/out/; later calls find it up to date in the
# build cache. `exec` replaces this shell, so the benchmark is one OS
# process with no children: a signal sent to the command reaches scbench
# itself, which unwinds and removes its temporary root.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d benchmark/cmd/scbench ]; then
	echo "scbench: run from the root of a repository checkout (no go.mod here to build against)" >&2
	exit 2
fi

# Everything the build writes stays inside the checkout.
export GOCACHE="$PWD/.bench_build/go-cache"
export GOPATH="$PWD/.bench_build/gopath"
export GOTOOLCHAIN=local
export GOFLAGS="-buildvcs=false"

go build -o benchmark/out/scbench ./benchmark/cmd/scbench
exec benchmark/out/scbench "$@"
