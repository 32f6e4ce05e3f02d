#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it.
#
#   bash perfbench/run.sh --workload paper-device --seed 1 --seconds 30 --trace 0
#   bash perfbench/run.sh compare BASE_DIR CHANGE_DIR
#
# Everything the Go toolchain writes (build cache, module cache,
# temporary files, telemetry) and the benchmark's own output stay under
# .bench_build at the repository root.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOPATH="$build/go-path" GOMODCACHE="$build/go-path/pkg/mod"
export XDG_CONFIG_HOME="$build/config" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOFLAGS=-buildvcs=false GOPROXY=off
(cd "$root/perfbench" && go build -o "$build/bin/perfbench" .) >&2
cd "$root"
exec "$build/bin/perfbench" "$@"
