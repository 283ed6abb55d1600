#!/usr/bin/env bash
# Builds the cycle-job benchmark from this checkout's sources and runs
# it. Run from the repository root:
#
#	bash cyclebench/run.sh --workload cycle-deep --seed 1 --seconds 35 --trace 0
#
# Everything the build and the run write (Go build cache, binary, run
# directories, span files) stays under .bench_build/ in the checkout.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root/cyclebench" && go build -o "$out/cyclebench" .) >&2
exec "$out/cyclebench" "$@"
