#!/usr/bin/env bash
# Builds the benchmark command from source and runs it with the given
# arguments, from the root of a checkout:
#
#   bash perfbench/run.sh --workload metro --seed 1 --seconds 20 --trace 0
#
# The binary, CPU profiles and the Go build cache stay inside the checkout,
# under $CARGO_TARGET_DIR (default .bench_build).
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" PPROF_TMPDIR="$out" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$here" && go build -o "$out/jababench" .)
exec "$out/jababench" --workdir "$out" "$@"
