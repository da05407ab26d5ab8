#!/usr/bin/env bash
# Builds bmcast-bench from source and runs it with the given arguments.
# Run it from the root of the repository:
#
#   bash cmd/bmcast-bench/run.sh --workload fleet32 --seed 1 --seconds 15
#
# Everything the build and the run write lands in .bench_build/ under the
# current directory: the Go build cache, temporary files, the binary and
# the -trace 1 artifacts. The build fails, and nothing is run, when the
# repository around the benchmark is missing.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
# The go command keeps its telemetry under the user config directory.
export XDG_CONFIG_HOME="$out/config"
# Never download a toolchain or a module: the benchmark is stdlib-only.
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

go -C "$here" build -o "$out/bmcast-bench" .
exec "$out/bmcast-bench" "$@"
