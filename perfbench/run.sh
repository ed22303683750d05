#!/usr/bin/env bash
# Builds the benchmark from source inside the current checkout and runs one
# workload. Run it from the repository root:
#
#   bash perfbench/run.sh --workload sim-diurnal --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache, temporary files and traced spans go
# under $CARGO_TARGET_DIR (default .bench_build), so nothing is written
# outside the checkout.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/tmp"

export GOCACHE=$out/go-cache
export GOTMPDIR=$out/tmp TMPDIR=$out/tmp
export GOPATH=$out/go-path
export GOMODCACHE=$out/go-path/pkg/mod
export XDG_CONFIG_HOME=$out/config
export GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOPROXY=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" --out-dir "$out" "$@"
