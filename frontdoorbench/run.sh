#!/usr/bin/env bash
# Builds the front-door serving benchmark from source and runs it.
# Run from the repository root:
#
#   bash frontdoorbench/run.sh --workload fresh --seed 1 --seconds 10 --trace 0
#
# Everything it writes (Go build cache, binary, payload cache, journals,
# trace spans) stays under .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
# The go command keeps its telemetry counters under the user config dir.
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$root/frontdoorbench" && go build -o "$out/frontdoorbench" .)
exec "$out/frontdoorbench" --work "$out/frontdoor" "$@"
