#!/usr/bin/env bash
# Builds the benchmark harness and the binaries it drives (cmd/paper,
# cmd/regsimd, cmd/regsim-router) from this checkout's sources, then runs the
# harness with the given arguments. Run it from the repository root:
#
#   bash regbench/run.sh --workload fig6-session --seed 1 --seconds 20 --trace 0
#   bash regbench/run.sh --compare base.jsonl new.jsonl
#
# Everything it builds or writes — binaries, the Go build cache, scratch
# stores, traces — lands under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=-buildvcs=false

go build -o "$out/bin/" ./cmd/paper ./cmd/regsimd ./cmd/regsim-router
(cd regbench && go build -o "$out/bin/regbench" .)
exec "$out/bin/regbench" -root "$root" -bin "$out/bin" "$@"
