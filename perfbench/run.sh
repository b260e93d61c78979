#!/usr/bin/env bash
# Builds netartd and the benchmark from this checkout, then runs the
# benchmark with the given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload cold-mid --seed 1 --seconds 15 --trace 0
#
# Everything it builds or writes stays under .bench_build/ (or
# $CARGO_TARGET_DIR when set): the Go build cache included.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$out/bin" "$out/tmp"
out=$(cd "$out" && pwd)
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off CGO_ENABLED=0

go build -o "$out/bin/netartd" ./cmd/netartd
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" --netartd "$out/bin/netartd" --out "$out" "$@"
