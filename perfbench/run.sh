#!/usr/bin/env bash
# Entry point of the repository benchmark. Run it from the repository root:
#
#   bash perfbench/run.sh --workload paper-eval --seed 1 --seconds 10 --trace 0
#
# It builds the benchmark program and its launcher from source into the
# build directory ($CARGO_TARGET_DIR, default .bench_build), with the Go
# build cache kept there too, then runs the benchmark, which builds the
# tools under test the same way. See perfbench/README.md.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d cmd/experiments ] || [ ! -d cmd/facd ] || [ ! -d cmd/faclint ] || [ ! -d internal ]; then
    echo "perfbench: run from the repository root; go.mod, cmd/ and internal/ are missing here" >&2
    exit 2
fi

build="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build"
build="$(cd "$build" && pwd)"
mkdir -p "$build/gocache" "$build/tmp" "$build/gopath" "$build/config"

# Keep every file the Go toolchain writes inside the build directory.
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS=
export BENCH_BUILD="$build"

go build -C perfbench -o "$build/perfbench" .
go build -C perfbench -o "$build/perfbench-launch" ./launch
exec "$build/perfbench" "$@"
