#!/usr/bin/env bash
# Builds the benchmark program and runs it from the checkout's root. Every
# file the Go toolchain and the benchmark write stays under .bench_build/ in
# the checkout (it is in .gitignore): the build cache, the binaries, scratch
# models and traces.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
if ! grep -qx 'module drainnas' "$root/go.mod" 2>/dev/null; then
	echo "bench: $root is not a checkout of module drainnas; the benchmark builds and measures the code above bench/" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" GOFLAGS= GOWORK=off
(cd "$root/bench" && go build -o "$build/bin/bench" .)
cd "$root"
exec "$build/bin/bench" "$@"
