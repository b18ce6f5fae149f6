#!/usr/bin/env bash
# Builds the benchmark from source into bench/out/ and runs it with the
# caller's flags.  Everything the build writes (binary, Go build cache) stays
# under bench/out/, so a run reads and writes only inside its checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$here/out"
mkdir -p "$out"
# No module is ever downloaded (the only dependency is the repository itself),
# but the go command insists on knowing where its caches would live.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOWORK=off
(cd "$here" && go build -o "$out/bench" .)
exec "$out/bench" -out "$out" "$@"
