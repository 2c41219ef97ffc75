#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Everything the build leaves
# behind (binary, Go build cache, temp files) stays in .bench_build at the
# root of the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/livo-benchmark" .)
exec "$build/livo-benchmark" "$@"
