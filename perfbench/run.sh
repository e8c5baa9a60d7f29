#!/usr/bin/env bash
# Builds the serving benchmark and runs it with the given flags, e.g.
#   bash perfbench/run.sh --workload tinycnn-single --seed 1 --seconds 10 --trace 0
# Run it from the repository root. The Go build cache, temporary files
# and the binary stay under .bench_build in the current directory.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/go-cache" GOPATH="$out/go-path" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
