#!/usr/bin/env bash
# Builds and runs the end-to-end serving benchmark (see main.go).
#
#   bash perfbench/run.sh --workload interact --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh --steady 10 --workload all --seconds 20
#
# Run from the repository root. Everything the build and the runs write
# (Go build cache, binaries, server stores, span files) goes under
# .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/perfbench/go.mod" ]]; then
	echo "run.sh: run from the repository root" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=

(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" "$@"
