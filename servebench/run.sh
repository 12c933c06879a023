#!/usr/bin/env bash
# Builds the service benchmark from the checkout's sources and runs it
# from the checkout root. Every build artifact, cache and temporary file
# stays under .bench_build/ so the run touches nothing outside the
# checkout; without the repository's sources beside it the build fails
# and the script exits non-zero.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/.." && pwd)"
out="$root/.bench_build/servebench"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$here" && go build -o "$out/servebench" .)
cd "$root"
exec "$out/servebench" "$@"
