#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root:
#
#   bash perfbench/run.sh --workload graph-takedown --seed 1 --seconds 26 --trace 0
#   bash perfbench/run.sh compare base/ new/
#
# Everything the build writes (Go build cache, temporary files, the Go
# config and telemetry directory, the binary) stays under .bench_build
# in the current directory.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
if [[ ! -f "$root/go.mod" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (go.mod and perfbench/go.mod not found)" >&2
	exit 2
fi
mkdir -p "$build/gocache" "$build/gotmp" "$build/gopath" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=-buildvcs=false CGO_ENABLED=0
# Figures must not depend on the caller's Go settings: GOGC, GOMEMLIMIT
# and GOMAXPROCS change what is measured, GODEBUG can override the
# module's own godebug line, and the others change what is built.
unset GODEBUG GOFIPS140 GOEXPERIMENT GOGC GOMEMLIMIT GOMAXPROCS GOOS GOARCH GOAMD64
PERFBENCH_COMMIT=unknown
if [[ -e "$root/.git" ]]; then
	PERFBENCH_COMMIT=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
fi
export PERFBENCH_COMMIT
(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" "$@"
