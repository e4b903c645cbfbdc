#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the root of a
# checkout: bash perfbench/run.sh --workload <name> --seed <n>
# --seconds <s> --trace <0|1>. Build caches, stores, journals and trace
# files all live under $CARGO_TARGET_DIR (default .bench_build) inside
# the checkout.
set -euo pipefail
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gomod"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomod"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" --workdir "$out" "$@"
