#!/usr/bin/env bash
# Copyright 2026 The SPLASH Reproduction Authors.
#
# Builds and runs the system benchmark for one workload, from the root of a
# source checkout:
#
#   bash benchmark/run.sh --workload <replay|ingest|ingest_durable|query_wide> \
#                         --seed <n> --seconds <s> --trace <0|1>
#
# Each invocation is its own process, so memory and thread-pool state never
# carry over between workloads. The build goes to $CARGO_TARGET_DIR (default
# .bench_build) and is incremental; its log goes to stderr, so stdout ends
# with the result line. Set-up is pinned: SPLASH_THREADS=1 (the gated phases
# run the whole process on one CPU, where a larger pool would only
# time-slice), no -march=native, and kernel dispatch, GEMM packing and
# replica precision at their production defaults. Exits non-zero when the
# build fails or a correctness check fails.
set -euo pipefail

root=$(pwd -P)
build=${CARGO_TARGET_DIR:-.bench_build}
case "$build" in
  /*) ;;
  *) build="$root/$build" ;;
esac
mkdir -p "$build/tmp"
# The compiler's temporary files stay inside the build directory too.
export TMPDIR="$build/tmp"

{
  cmake -S "$root/benchmark" -B "$build/cmake" -DCMAKE_BUILD_TYPE=Release
  cmake --build "$build/cmake" --target splash_bench -j 4
} 1>&2

# Provenance: git identity when this directory is the top of a git checkout
# (not merely inside some other repository), and always a hash of the
# sources the binary was built from.
if [ "$(git -C "$root" rev-parse --show-toplevel 2>/dev/null)" = "$root" ]; then
  SPLASH_BENCH_GIT_SHA=$(git -C "$root" rev-parse HEAD)
  if [ -z "$(git -C "$root" status --porcelain)" ]; then
    SPLASH_BENCH_GIT_DIRTY=0
  else
    SPLASH_BENCH_GIT_DIRTY=1
  fi
else
  SPLASH_BENCH_GIT_SHA=none
  SPLASH_BENCH_GIT_DIRTY=unknown
fi
SPLASH_BENCH_SOURCE_HASH=$(cd "$root" && find . -path ./.git -prune \
  -o -path "./${build#"$root"/}" -prune \
  -o -type f \( -name '*.cc' -o -name '*.h' -o -name CMakeLists.txt \) -print \
  | LC_ALL=C sort | xargs sha256sum | sha256sum | cut -c1-16)
export SPLASH_BENCH_GIT_SHA SPLASH_BENCH_GIT_DIRTY SPLASH_BENCH_SOURCE_HASH

export SPLASH_THREADS=1
export SPLASH_BENCH_DIR="$build"
unset SPLASH_KERNEL SPLASH_GEMM_PACK SPLASH_REPLICA_PRECISION SPLASH_CRASH_POINT
exec "$build/cmake/splash_bench" "$@"
