#!/bin/bash
# Builds the benchmark from source and runs it with the arguments given.
# Everything the build leaves behind stays inside the checkout: the Go build
# cache, the compiler's scratch files, the go command's own counters (it keeps
# them under the user's config directory) and the binary go under
# .bench_build/ at the repository root.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
build="$root/.bench_build"
mkdir -p "$build/tmp"
(cd "$here" && GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local GOWORK=off go build -o "$build/benchmark" .)
exec "$build/benchmark" "$@"
