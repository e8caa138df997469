#!/usr/bin/env bash
# Builds the harness from source inside the checkout and runs it with the
# arguments given. Nothing is read or written outside the checkout: the Go
# build cache, Go's temporary and per-user files and the binary live in
# .bench_build/, traces and scratch data in benchmark/out/ (both are in
# .gitignore).
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/home"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" XDG_CACHE_HOME="$build/home/.cache"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOENV=off GOFLAGS=-mod=mod GOTOOLCHAIN=local GOWORK=off
(cd "$root/benchmark" && go build -o "$build/seedb-benchmark" .)
cd "$root"
exec "$build/seedb-benchmark" "$@"
