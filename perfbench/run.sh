#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments. Every file the Go toolchain writes (build cache,
# module cache, the binary) stays under .bench_build in the checkout.
set -euo pipefail
root=$(pwd)
build="${root}/.bench_build"
mkdir -p "${build}/home"
export HOME="${build}/home"
export GOCACHE="${build}/gocache"
export GOPATH="${build}/gopath"
export GOMODCACHE="${build}/gopath/pkg/mod"
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOFLAGS= GOENV=off
go -C perfbench build -o "${build}/perfbench" . >&2
exec "${build}/perfbench" "$@"
