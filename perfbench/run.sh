#!/usr/bin/env bash
# Builds and runs the repository benchmark from the root of a checkout:
#
#   bash perfbench/run.sh --workload hot-fleet --seed 1 --seconds 20 --trace 0
#
# Everything the run builds or writes (Go build cache, serving binaries,
# the trained artifact fixture, per-run inputs and logs) goes under
# $CARGO_TARGET_DIR, default .bench_build, inside the checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f go.mod || ! -d cmd/serve || ! -d internal ]]; then
	echo "perfbench: $root is not a stochroute checkout (no go.mod, cmd/serve or internal/)" >&2
	exit 2
fi

build=${CARGO_TARGET_DIR:-.bench_build}
[[ $build == /* ]] || build=$root/$build
mkdir -p "$build/tmp" "$build/config"

# Keep the Go toolchain's caches, temporary files and settings inside
# the build directory, and never let it reach for the network.
export GOCACHE=$build/gocache GOMODCACHE=$build/gomodcache GOTMPDIR=$build/tmp \
	TMPDIR=$build/tmp XDG_CONFIG_HOME=$build/config \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

go -C perfbench build -o "$build/perfbench" .
exec "$build/perfbench" -root "$root" -build "$build" "$@"
