#!/usr/bin/env bash
# Builds the service benchmark from source and runs it from the root of
# the repository, passing its arguments through (see bench/README.md).
# Build outputs, the Go build cache and scratch files stay in
# .bench_build at the repository root.
#
# BENCHMARK.json's command runs this script with --trace 0 or --trace 1.
# 0 is an untraced run; 1 is a traced run whose spans go to
# .bench_build/spans.json. Any other value is the file the spans go to.
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/go-cache" GOMODCACHE="$out/go-mod" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOENV=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off
(cd bench && go build -o "$out/bench" .)
args=()
while [ $# -gt 0 ]; do
	case "$1" in
	-trace | --trace)
		case "${2-}" in
		0) ;;
		1) args+=(-trace "$out/spans.json") ;;
		*) args+=(-trace "${2-}") ;;
		esac
		shift $(($# < 2 ? 1 : 2))
		;;
	*)
		args+=("$1")
		shift
		;;
	esac
done
exec "$out/bench" "${args[@]}"
