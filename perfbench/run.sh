#!/usr/bin/env bash
# Builds and runs the repository benchmark from the checkout root:
#
#   bash perfbench/run.sh --workload edit-session --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the working directory: the Go build and module caches (shared with
# the compile backend's go builds), Go's own configuration and
# telemetry directory, temporary files and the benchmark binary.
set -euo pipefail

root="$(pwd)"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CACHE_HOME="$out/cache" XDG_CONFIG_HOME="$out/config"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off

(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
