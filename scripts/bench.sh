#!/usr/bin/env bash
# Builds Release and snapshots the substrate microbenchmarks to
# BENCH_micro.json at the repo root. Future perf PRs diff against this file
# to prove hot-path regressions/improvements (see DESIGN.md §4).
#
# CI re-runs the pinned rows on every push and diffs cpu_time against the
# committed snapshot via scripts/check_bench_regression.py.
#
# Kernel backends (DESIGN.md §6): the committed snapshot is pinned to
# SPLASH_KERNEL=scalar so the regression history stays comparable across
# hosts and PRs (the scalar backend is the reference codegen). When the
# host supports the AVX2/FMA or AVX-512 backend, filtered side-runs record
# their cpu_times for the pinned kernel rows and embed them (plus the
# speedup ratios) side-by-side in the JSON context — the perf trajectory of
# the SIMD layer without forking the baseline. The binary itself stamps
# kernel_backend + cpu_features + cache_topology into the context, so a
# snapshot says which backend and which cache hierarchy it was recorded on
# (check_bench_regression.py refuses a kernel_backend mismatch).
#
# Usage: scripts/bench.sh [build-dir]   (default: build-bench)

set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-${repo_root}/build-bench}"

# SPLASH_NATIVE=OFF so the committed snapshot and the CI regression job
# (which must build portably for heterogeneous runners) compare the same
# codegen; local -march=native explorations can pass a different build dir.
cmake -B "${build_dir}" -S "${repo_root}" -DCMAKE_BUILD_TYPE=Release \
  -DSPLASH_NATIVE=OFF
cmake --build "${build_dir}" -j "$(nproc)" --target bench_micro_substrate

# Every row runs on one thread. The host core count is recorded in the
# JSON context (google-benchmark's num_cpus reports what the process sees,
# which on capped CI runners is not the comparison-relevant physical
# count) so rows stay comparable across hosts; splash_threads=1 stays
# stamped because the committed baselines carry it. The git SHA + dirty
# flag make every committed snapshot traceable to the exact tree it was
# recorded from.
git_sha="$(git -C "${repo_root}" rev-parse --short HEAD 2>/dev/null || echo unknown)"
git_dirty=0
if ! git -C "${repo_root}" diff --quiet HEAD 2>/dev/null; then
  git_dirty=1
fi
splash_kernel="${SPLASH_KERNEL:-scalar}"
SPLASH_KERNEL="${splash_kernel}" \
  "${build_dir}/bench_micro_substrate" \
  --benchmark_format=json \
  --benchmark_repetitions=3 \
  --benchmark_report_aggregates_only=true \
  --benchmark_context=host_cores="$(nproc)" \
  --benchmark_context=splash_threads=1 \
  --benchmark_context=git_sha="${git_sha}" \
  --benchmark_context=git_dirty="${git_dirty}" \
  > "${repo_root}/BENCH_micro.json"

# Side-by-side SIMD captures: when the snapshot above is the scalar
# baseline and the host can run a SIMD backend, rerun the pinned kernel
# rows, BM_TimeEncode and BM_NeighborMemoryObserveBulk under it and fold
# their cpu_times + speedups into the context under
# avx2_*/avx512_* keys. The binary stamps the backend the dispatcher
# actually resolved, so a host without the ISA (silent fallback) skips the
# fold instead of poisoning the artifact.
for side_kernel in avx2 avx512; do
  side_json="${build_dir}/bench_${side_kernel}_side.json"
  if [ "${splash_kernel}" = scalar ]; then
    SPLASH_KERNEL="${side_kernel}" \
      "${build_dir}/bench_micro_substrate" \
      --benchmark_filter='BM_MatMul/|BM_MatMulTransA/|BM_SlimForwardFused/|BM_SlimTrainStepThreads/1|BM_TimeEncode/|BM_NeighborMemoryObserveBulk/' \
      --benchmark_format=json \
      --benchmark_repetitions=3 \
      --benchmark_report_aggregates_only=true \
      > "${side_json}" 2>/dev/null || true
    python3 - "${repo_root}/BENCH_micro.json" "${side_json}" "${side_kernel}" <<'EOF'
import json, sys
base_path, side_path, kernel = sys.argv[1], sys.argv[2], sys.argv[3]
try:
    with open(side_path) as f:
        side = json.load(f)
except (OSError, ValueError):
    sys.exit(0)
if side.get("context", {}).get("kernel_backend") != kernel:
    sys.exit(0)  # dispatcher fell back: host cannot run this backend
with open(base_path) as f:
    base = json.load(f)
def means(doc):
    out = {}
    for row in doc.get("benchmarks", []):
        if row.get("aggregate_name") == "mean":
            out[row.get("run_name", "")] = row.get("cpu_time", 0.0)
    return out
b, a = means(base), means(side)
ctx = base.setdefault("context", {})
for name, t in sorted(a.items()):
    ctx["%s_cpu_ns %s" % (kernel, name)] = "%.1f" % t
    if name in b and t > 0:
        ctx["%s_speedup %s" % (kernel, name)] = "%.2f" % (b[name] / t)
with open(base_path, "w") as f:
    json.dump(base, f, indent=1)
    f.write("\n")
EOF
  fi
done

# Sanity: the gated whole-path rows, the pinned kernel rows and the
# train-step cost rows (time encode, bulk ring ingest) must be present, or
# a gate or a side-run row has silently vanished from the snapshot.
for row in "BM_SlimTrainStepThreads/1" "BM_ChronoReplayThreads/1" \
           "BM_FeatureReplayBulkThreads/1" \
           "BM_MatMul/256/48/64" "BM_MatMul/2560/48/64" \
           "BM_MatMul/32/2048/1024" \
           "BM_MatMulTransA/256/128/64" \
           "BM_SlimForwardFused/256" "BM_SlimForwardFused/wide_b1" \
           "BM_TimeEncode/200" "BM_NeighborMemoryObserveBulk/100000"; do
  if ! grep -q "\"${row}" "${repo_root}/BENCH_micro.json"; then
    echo "ERROR: ${row} missing from BENCH_micro.json" >&2
    exit 1
  fi
done

echo "wrote ${repo_root}/BENCH_micro.json (kernel_backend=${splash_kernel}," \
     "incl. the avx2/avx512 side-run context when available)"
