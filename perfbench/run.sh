#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the root of a
# checkout:
#
#   bash perfbench/run.sh --workload metro|city|serve --seed N --seconds S --trace 0|1
#
# Everything the build and the run write (Go build cache, binary,
# profiles, spans, the serve workload's state directories) stays under
# .bench_build/ at the checkout root.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
# The go command's telemetry counters live under the user config dir.
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOENV=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
cd "$root"
exec "$out/perfbench" "$@"
