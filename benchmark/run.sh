#!/usr/bin/env bash
# BENCHMARK.json's command: build the benchmark from this checkout's
# sources and run it from the checkout root. Everything the build and the
# run write (Go build cache, binary, durable data dir) stays under
# .bench_build/ in the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/go-cache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOWORK=off
go -C "$here" build -o "$out/ops5bench" . >&2
cd "$root"
exec "$out/ops5bench" -data-dir "$out/data" "$@"
