#!/usr/bin/env bash
# Builds citybench from this checkout's source and runs it with the given
# arguments, from the checkout root. Build products and Go's caches stay
# under .bench_build/ inside the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/go-cache" GOMODCACHE="$out/go-mod" GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOFLAGS= GOTOOLCHAIN=local
(cd "$root/citybench" && go build -o "$out/citybench" .)
exec "$out/citybench" "$@"
