#!/usr/bin/env bash
# Builds the round benchmark from the sources of this checkout and runs it
# with the given flags, e.g.
#
#	bash perfbench/run.sh --workload flat-cold --seed 1 --seconds 30 --trace 0
#
# Everything the build writes (Go build cache, binary, trace files) stays
# under .bench_build/ at the root of the checkout.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOENV=off
# HOME and XDG_CONFIG_HOME point into the checkout too, so the go command
# keeps its configuration and telemetry files there.
(cd "$root/perfbench" && HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" \
	go build -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" "$@"
