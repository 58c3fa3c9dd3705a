#!/usr/bin/env bash
# Builds dcsd and the benchmark program from this checkout, then runs one
# workload:
#
#   bash perfbench/run.sh --workload query-mix --seed 1 --seconds 40 --trace 0
#
# Run it from the repository root. Everything it builds or writes (Go build
# cache, binaries, dcsd data directories, results, spans) stays under
# .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/dcsd" ] || [ ! -f "$root/perfbench/go.mod" ]; then
	echo "perfbench: run from the repository root: go.mod, cmd/dcsd or perfbench/go.mod is missing" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/gotmp" "$out/config" "$out/tmp" "$out/results"
export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gopath/pkg/mod"
export GOPATH="$out/gopath"
export GOTMPDIR="$out/gotmp"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=

go build -o "$out/bin/dcsd" ./cmd/dcsd
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .)

exec "$out/bin/perfbench" -dcsd "$out/bin/dcsd" -work "$out" -root "$root" "$@"
