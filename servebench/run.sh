#!/usr/bin/env bash
# Builds the served-ring benchmark from this checkout's sources and runs
# it from the repository root with the given arguments, for example:
#
#   bash servebench/run.sh --workload hot-mix --seed 1 --seconds 40 --trace 0
#   bash servebench/run.sh --workload cold-scan --seconds 40 --repeat 10
#
# Build outputs, the Go build and module caches and run records go under
# .bench_build/ at the repository root. Without the repository's
# sources next to servebench/ the build fails and so does this script.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
out="$root/.bench_build/servebench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOWORK=off GOTOOLCHAIN=local GOFLAGS=
(cd "$root/servebench" && go build -o "$out/servebench" .)
cd "$root"
exec "$out/servebench" "$@"
