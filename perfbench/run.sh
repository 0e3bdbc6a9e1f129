#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root with the benchmark's flags, for example:
#
#   bash perfbench/run.sh --workload fig4 --seed 1 --seconds 30 --trace 0
#
# Build outputs, the Go build cache and the traced runs' files go under
# $CARGO_TARGET_DIR (default .bench_build), inside the checkout.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build"

# Keep the go command's caches, temporary files and telemetry inside the
# checkout, and keep it offline: the benchmark depends only on the
# standard library and the repository's own module.
mkdir -p "$build/tmp" "$build/config"
export GOCACHE=$build/gocache GOPATH=$build/gopath GOMODCACHE=$build/gopath/pkg/mod
export TMPDIR=$build/tmp GOTMPDIR=$build/tmp XDG_CONFIG_HOME=$build/config
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" --out "$build/trace" "$@"
