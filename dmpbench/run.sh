#!/usr/bin/env bash
# Builds the benchmark into the build directory and runs it with the
# arguments given, from the repository root:
#
#   bash dmpbench/run.sh --workload core-exact --seed 1 --seconds 15 --trace 0
#
# The build directory is $CARGO_TARGET_DIR if set, else .bench_build; the
# Go build cache and every other file the run writes stay inside it.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build/home"

export HOME="$build/home" XDG_CONFIG_HOME="$build/home" XDG_CACHE_HOME="$build/home"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root/dmpbench" && go build -buildvcs=false -o "$build/dmpbench" .)

commit="$(GIT_CEILING_DIRECTORIES="$(dirname "$root")" git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
cd "$root"
DMPBENCH_COMMIT="$commit" DMPBENCH_WORK="$build" exec "$build/dmpbench" "$@"
