#!/usr/bin/env bash
# Builds frontbench from this checkout's source and runs it with the
# given arguments, e.g.
#
#   bash frontbench/run.sh --workload zipf-read --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Everything the build and the run write
# stays under .bench_build/ in the checkout: the Go build cache, the
# binary, shard files (removed when the run ends) and trace files.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/home"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod" GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off
export GOWORK=off

# The go command keeps its own settings and telemetry under the user's
# config directory; point that into the checkout too.
(cd "$root/frontbench" && HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" \
	go build -o "$out/frontbench" .) >&2
exec "$out/frontbench" "$@"
