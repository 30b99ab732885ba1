#!/usr/bin/env bash
# Entry point of the energybench benchmark. Run from the repository root:
#
#   bash perfbench/run.sh --workload sweep-inproc --seed 1 --seconds 15 --trace 0
#
# Builds the benchmark driver, its process launcher, the energybench CLI and
# the externstress workload from source into .bench_build/ (with the Go build
# cache kept there too, so nothing is written outside the checkout), then
# hands every argument to the driver. The driver prints one JSON result
# object as its last line.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/energybench" ] || [ ! -d "$root/perfbench" ]; then
	echo "perfbench: run from the root of an energybench checkout" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/config" "$build/gopath"
export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOTMPDIR="$build/gotmp"
export XDG_CONFIG_HOME="$build/config"
export GOFLAGS=-buildvcs=false
export GOTOOLCHAIN=local
export GOPROXY=off

go build -o "$build/energybench" ./cmd/energybench
go build -o "$build/externstress" ./cmd/externstress
(cd "$root/perfbench" && go build -o "$build/perfbench" . && go build -o "$build/launch" ./launch)

exec "$build/perfbench" "$@"
