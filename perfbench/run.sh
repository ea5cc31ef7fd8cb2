#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Run from the
# repository root:
#
#	bash perfbench/run.sh --workload customer_mix --seed 1 --seconds 15 --trace 0
#
# Build outputs and the Go build cache stay under .bench_build/ in the
# current directory. The build needs the repository's own module one level
# up; without it the build fails and the script exits non-zero before
# printing anything on standard output.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOPROXY=off
(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
