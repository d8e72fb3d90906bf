#!/usr/bin/env bash
# Builds Release and snapshots the serving-layer load sweep to
# BENCH_serve.json at the repo root: closed-loop ingest:query mixes
# (90/50/10), an open-loop paced-latency row, and the pinned CI smoke row
# (BM_ServeSmokeMixed) plus the ALU calibration row (BM_ServeCalibrate)
# that scripts/check_bench_regression.py uses to cancel host speed.
#
# CI re-runs only the smoke row (bench_serve_load --smoke) on every push
# and diffs its cpu_time against this snapshot (see DESIGN.md §5).
#
# Usage: scripts/serve_load.sh [build-dir]   (default: build-bench)

set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-${repo_root}/build-bench}"

# SPLASH_NATIVE=OFF for the same reason as bench.sh: the committed
# snapshot and the CI job must compare identical codegen.
cmake -B "${build_dir}" -S "${repo_root}" -DCMAKE_BUILD_TYPE=Release \
  -DSPLASH_NATIVE=OFF
cmake --build "${build_dir}" -j "$(nproc)" --target bench_serve_load

# Traceability context: the exact commit (and whether the tree was dirty)
# this snapshot was recorded from.
git_sha="$(git -C "${repo_root}" rev-parse --short HEAD 2>/dev/null || echo unknown)"
git_dirty=0
if ! git -C "${repo_root}" diff --quiet HEAD 2>/dev/null; then
  git_dirty=1
fi

# Pinned to the scalar kernel backend for the same like-for-like reason as
# bench.sh: CI re-runs the smoke row with SPLASH_KERNEL=scalar.
splash_kernel="${SPLASH_KERNEL:-scalar}"
SPLASH_KERNEL="${splash_kernel}" \
  "${build_dir}/bench_serve_load" \
  --wal batch \
  --json "${repo_root}/BENCH_serve.json" \
  --context host_cores="$(nproc)" \
  --context splash_threads=1 \
  --context kernel_backend="${splash_kernel}" \
  --context git_sha="${git_sha}" \
  --context git_dirty="${git_dirty}"

# Side-by-side SIMD captures (mirrors scripts/bench.sh): when the snapshot
# above is the scalar baseline, rerun the pinned smoke row under each SIMD
# backend and fold its cpu_time + speedup into the context — the committed
# artifact for the SIMD layer's effect on the serve path. The per-row
# kernel_backend stamp (what the dispatcher actually resolved) guards the
# fold: a host without the ISA silently falls back, and folding that run
# as "avx512" would poison the artifact.
for side_kernel in avx2 avx512; do
  side_json="${build_dir}/serve_${side_kernel}_side.json"
  if [ "${splash_kernel}" = scalar ]; then
    SPLASH_KERNEL="${side_kernel}" \
      "${build_dir}/bench_serve_load" --smoke \
      --json "${side_json}" \
      --context kernel_backend="${side_kernel}" 2>/dev/null || true
    python3 - "${repo_root}/BENCH_serve.json" "${side_json}" "${side_kernel}" <<'EOF'
import json, sys
base_path, side_path, kernel = sys.argv[1], sys.argv[2], sys.argv[3]
try:
    with open(side_path) as f:
        side = json.load(f)
except (OSError, ValueError):
    sys.exit(0)
def row(doc, name):
    for r in doc.get("benchmarks", []):
        if r.get("name") == name:
            return r
    return {}
smoke = row(side, "BM_ServeSmokeMixed")
t = smoke.get("cpu_time", 0.0)
# Dispatch guard: the binary stamps the backend that actually ran.
if t <= 0 or smoke.get("kernel_backend", kernel) != kernel:
    sys.exit(0)
with open(base_path) as f:
    base = json.load(f)
b = row(base, "BM_ServeSmokeMixed").get("cpu_time", 0.0)
ctx = base.setdefault("context", {})
ctx["%s_cpu_ns BM_ServeSmokeMixed" % kernel] = "%.1f" % t
if b > 0:
    ctx["%s_speedup BM_ServeSmokeMixed" % kernel] = "%.2f" % (b / t)
with open(base_path, "w") as f:
    json.dump(base, f, indent=1)
    f.write("\n")
EOF
  fi
done

# Sanity: the gate rows must be present, or the serve regression gate has
# silently vanished from the snapshot.
for row in "BM_ServeSmokeMixed" "BM_ServeCalibrate"; do
  if ! grep -q "\"${row}\"" "${repo_root}/BENCH_serve.json"; then
    echo "ERROR: ${row} missing from BENCH_serve.json" >&2
    exit 1
  fi
done

# The snapshot must pass its own gate's self-test, or CI would be born
# failing it.
python3 "${repo_root}/scripts/check_bench_regression.py" --preset serve \
  --baseline "${repo_root}/BENCH_serve.json" --self-test

echo "wrote ${repo_root}/BENCH_serve.json (incl. the pinned smoke gate row)"
