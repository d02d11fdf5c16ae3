#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run it from the repository root:
#
#   bash cmd/bench/run.sh --workload paper_matrix --seed 1 --seconds 20 --trace 0
#
# Every file the build and the run write lands under .bench_build/ in the
# current directory: the Go build cache, temporary files, the binary,
# journals and trace files.
set -euo pipefail

root=$(pwd)
src=$(cd "$(dirname "$0")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=
export GOWORK=off

# VCS stamping needs a usable git checkout; fall back to an unstamped build
# when there is none (the host record then says the revision is unknown).
(cd "$src" && { go build -o "$out/bench" . 2>/dev/null || go build -buildvcs=false -o "$out/bench" .; }) >&2

exec "$out/bench" -workdir .bench_build "$@"
