#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments, from the root of the checkout:
#
#   bash perfbench/run.sh --workload read-hot --seed 1 --seconds 10 --trace 0
#
# Every build and run artifact stays under .bench_build (or
# $CARGO_TARGET_DIR when set): the Go build cache, the binary, node data
# and trace files.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/home"

(
	cd perfbench
	HOME=$build/home XDG_CONFIG_HOME=$build/home XDG_CACHE_HOME=$build/home \
		GOCACHE=$build/gocache GOPATH=$build/gopath GOTOOLCHAIN=local \
		GOPROXY=off GOFLAGS=-mod=mod \
		go build -o "$build/perfbench" .
)
exec "$build/perfbench" --dir "$build" "$@"
