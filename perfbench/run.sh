#!/usr/bin/env bash
# Builds the benchmark and the trace analyzer from source, then runs the
# benchmark with the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload warm-read --seed 1 --seconds 15 --trace 0
#
# Build outputs and the Go build cache live under .bench_build (or
# $CARGO_TARGET_DIR when set), so nothing is written outside the checkout.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out"

# Keep the toolchain's caches, settings and telemetry inside the checkout.
export HOME=$out/home XDG_CONFIG_HOME=$out/home/.config GOPATH=$out/home/go
export GOCACHE=$out/gocache GOTOOLCHAIN=local GOWORK=off GOFLAGS=
export PPROF_TMPDIR=$out/pprof

go -C perfbench build -o "$out/perfbench" .
go build -o "$out/tracestat" ./cmd/tracestat
exec "$out/perfbench" --workdir "$out" --tracestat "$out/tracestat" "$@"
