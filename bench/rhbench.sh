#!/usr/bin/env bash
# Builds the rhbench harness from this checkout's source and runs it with
# the given arguments, from the checkout root:
#
#   bash bench/rhbench.sh --workload mitigation-sweep --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under bench/.bench_build/:
# the Go build cache, temporary files, the harness binary, result stores
# and span traces. The build fails, and the script exits non-zero without
# running anything, when the repository's source is not next to bench/.
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
out="$root/bench/.bench_build"
mkdir -p "$out/tmp" "$out/config"

export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export GOENV=off
export GOFLAGS=
export GOWORK=off
export GOPROXY=off
export GOTOOLCHAIN=local
export CGO_ENABLED=0

go -C "$root/bench" build -o "$out/bin/rhbench" ./rhbench
cd "$root"
exec "$out/bin/rhbench" "$@"
