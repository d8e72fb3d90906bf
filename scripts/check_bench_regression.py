#!/usr/bin/env python3
"""CI gate: compare a fresh bench run's cpu_time against a committed
snapshot (BENCH_micro.json or BENCH_serve.json) and fail on regressions
beyond the snapshot's threshold.

cpu_time (not real_time) is the comparison axis because the CI container is
single-core: wall time cannot show parallel-layer regressions there, while
main-thread CPU time per op is stable and host-concurrency-independent for
the pinned rows (DESIGN.md section 4).

Usage:
  check_bench_regression.py --preset micro|serve --baseline SNAPSHOT.json
      --current cur.json
  check_bench_regression.py --preset micro|serve --baseline SNAPSHOT.json
      --self-test

Each snapshot's whole gate is one entry in PRESETS below: its pinned rows,
the ALU row that calibrates host speed, the cpu_time regression threshold,
and the context-stamp floors that ride along. The command line only names
the preset and the files, so a gate cannot drift between CI, the snapshot
scripts and a local run.

The first output line is the baseline's provenance (git_sha, git_dirty,
date and age, when the snapshot records them); a snapshot recorded from a
dirty tree says so. It is informational and changes no verdict.

Rows are matched by run_name, so both raw runs and aggregates-only runs
("<name>_mean") resolve; when a run has aggregates, the mean is used. A
pinned row missing from either file fails the gate — a silently vanished
row is a vanished gate.

Comparisons are like-for-like per kernel backend: when both files carry a
`kernel_backend` context entry (bench_micro_substrate stamps it), a
mismatch fails immediately — scalar baselines must never be diffed against
avx2 runs or vice versa (CI pins SPLASH_KERNEL=scalar for the gate; the
avx2/avx512 trajectories live in the baseline's avx2_*/avx512_* context
keys instead). The same refusal applies per row: bench_serve_load stamps
`kernel_backend`, `wal_mode` and `model` on every row, and a pinned row
whose stamped config differs between baseline and current fails the gate
before any cpu_time is compared — a WAL-on run must never be diffed
against a WAL-off baseline just because the row name matches.

`cache_topology` (stamped by bench_micro_substrate since the packed-GEMM
layer landed) is a context config key: the BM_MatMulPacked* rows size
their k-blocks from the detected L2, so when baseline and current report
unlike cache hierarchies those rows are refused — skipped with a visible
line rather than compared as if the hardware were the same. All other
rows still gate normally.

The micro preset's context floors gate scripts/bench.sh side-run stamps in
the COMMITTED BASELINE: "avx512_speedup BM_SlimForwardFused/wide_b1" >= 1.0
(the batch-1 wide fused forward whose pre-packing strided-B walk starved
the avx512 backend) and "avx512_packed_speedup
BM_MatMulPacked/32/2048/1024" >= 1.5 (packed over unpacked within the
avx512 side-run, B larger than L2). The stamps are written when the
snapshot is recorded, so the gate stops a regressed snapshot from being
committed and re-verifies every committed one on every push — the CI
runner itself needs no avx512. A baseline whose recording host could not
run the backend never carries the key, so an absent key skips visibly
instead of failing.

--self-test exercises the preset's gates against fabricated data derived
from the baseline: an identical copy must pass, and a copy with one pinned
row hand-slowed past the threshold must fail (likewise a flipped row
config stamp and a hand-lowered context stamp). CI runs it before the real comparison so the gate can never rot
into always-green.
"""

import argparse
import copy
import datetime
import json
import sys

# micro (BENCH_micro.json) — one row per hot-path family: the
# O(1)-per-edge ring write (the cache-resident 1k-node arg — the larger
# args measure the host's DRAM latency more than the code), the SLIM train
# step, the full chronological replay, and the augmenter bulk replay. The FeatureReplayBulk row matters
# because with pipeline_depth >= 1 the replay bench runs ingest on the
# PipelineThread, outside BM_ChronoReplayThreads' main-thread cpu_time —
# the dedicated row times ObserveBulk on the measuring thread, so ingest
# regressions cannot hide behind the pipeline. The last two rows pin the
# kernel layer itself (DESIGN.md §6): the neighbor-message GEMM shape and
# the fused const-forward path the serving layer reads through.
# Calibrated by the ALU-bound BM_DegreeEncode row; the two context floors
# re-verify the committed avx512 side-run wins (module docstring).
#
# serve (BENCH_serve.json) — the pinned closed-loop mixed-traffic smoke
# row vs a fresh `bench_serve_load --smoke` run, calibrated by that
# binary's own ALU row. cpu_time here is *process* CPU per operation
# (ingest + query + apply thread + pool workers), so a regression anywhere
# in the serve path shows up even on a 1-core runner.
PRESETS = {
    "micro": {
        "rows": [
            "BM_NeighborMemoryObserve/1000",
            "BM_SlimTrainStepThreads/1",
            "BM_ChronoReplayThreads/1",
            "BM_FeatureReplayBulkThreads/1",
            "BM_MatMul/256/48/64",
            "BM_MatMulPacked/2560/48/64",
            "BM_SlimForwardFused/256",
            "BM_SlimForwardFused/wide_b1",
        ],
        "calibrate": "BM_DegreeEncode",
        "max_regress": 0.15,
        "context_floors": [
            ("avx512_speedup BM_SlimForwardFused/wide_b1", 1.0),
            ("avx512_packed_speedup BM_MatMulPacked/32/2048/1024", 1.5),
        ],
    },
    "serve": {
        "rows": ["BM_ServeSmokeMixed"],
        "calibrate": "BM_ServeCalibrate",
        "max_regress": 0.25,
        "context_floors": [],
    },
}

_UNIT_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}

# Per-row configuration stamps (bench_serve_load writes all three on every
# row). A pinned row is only comparable when every stamp both sides carry
# agrees; a missing stamp (older baselines, other binaries) is not checked.
_ROW_CONFIG_KEYS = ("kernel_backend", "wal_mode", "model")


def load_row_configs(doc):
    """Maps run_name -> {config key: value} for stamped rows."""
    configs = {}
    for row in doc.get("benchmarks", []):
        run_name = row.get("run_name", row.get("name", ""))
        cfg = {k: str(row[k]) for k in _ROW_CONFIG_KEYS if k in row}
        if cfg and run_name not in configs:
            configs[run_name] = cfg
    return configs


def load_cpu_times(doc):
    """Maps run_name -> cpu_time in ns, preferring mean aggregates."""
    times = {}
    for row in doc.get("benchmarks", []):
        run_name = row.get("run_name", row.get("name", ""))
        if row.get("run_type") == "aggregate" and row.get(
                "aggregate_name") != "mean":
            continue
        if run_name in times and row.get("run_type") != "aggregate":
            continue  # keep the aggregate once seen
        scale = _UNIT_NS.get(row.get("time_unit", "ns"))
        if scale is None or "cpu_time" not in row:
            continue
        times[run_name] = row["cpu_time"] * scale
    return times


def compare(baseline, current, rows, max_regress, calibrate=None):
    """Returns (ok, report_lines).

    With `calibrate`, both sides are normalized by that row's cpu_time
    before comparing — an ALU-bound row (BM_DegreeEncode in CI) cancels the
    host's single-core speed, so a baseline recorded on one CPU model stays
    comparable on another and the threshold measures the *relative* cost of
    the pinned op, not the CPU lottery of heterogeneous runners.
    """
    base_backend = str(baseline.get("context", {}).get("kernel_backend", ""))
    cur_backend = str(current.get("context", {}).get("kernel_backend", ""))
    if base_backend and cur_backend and base_backend != cur_backend:
        return False, [
            "kernel backend mismatch: baseline=%s current=%s — comparisons "
            "are like-for-like only (pin SPLASH_KERNEL): FAIL" %
            (base_backend, cur_backend)
        ]
    # The packed-GEMM rows are k-blocked against the detected L2: unlike
    # cache hierarchies make their times incomparable by construction, so
    # those rows are refused (skipped, visibly) rather than diffed.
    base_cache = str(baseline.get("context", {}).get("cache_topology", ""))
    cur_cache = str(current.get("context", {}).get("cache_topology", ""))
    unlike_cache = bool(base_cache and cur_cache and base_cache != cur_cache)
    base = load_cpu_times(baseline)
    cur = load_cpu_times(current)
    base_cfg = load_row_configs(baseline)
    cur_cfg = load_row_configs(current)
    ok = True
    lines = []
    scale = 1.0
    if calibrate is not None:
        if calibrate not in base or calibrate not in cur:
            return False, ["calibration row %s missing from %s: FAIL" %
                           (calibrate,
                            "baseline" if calibrate not in base
                            else "current run")]
        scale = base[calibrate] / cur[calibrate]
        lines.append("host-speed calibration via %s: current cpu_times "
                     "scaled by %.3f" % (calibrate, scale))
    lines.append("%-36s %12s %12s %8s  %s" %
                 ("row", "base cpu", "cur cpu", "ratio", "verdict"))
    for row in rows:
        if unlike_cache and row.startswith("BM_MatMulPacked"):
            lines.append("%-36s skipped: unlike cache topology (baseline=%s "
                         "current=%s)" % (row, base_cache, cur_cache))
            continue
        if row not in base or row not in cur:
            where = "baseline" if row not in base else "current run"
            lines.append("%-36s missing from %s: FAIL (the gate row "
                         "vanished)" % (row, where))
            ok = False
            continue
        mismatched = [
            "%s baseline=%s current=%s" %
            (key, base_cfg.get(row, {})[key], cur_cfg.get(row, {})[key])
            for key in _ROW_CONFIG_KEYS
            if key in base_cfg.get(row, {}) and key in cur_cfg.get(row, {})
            and base_cfg[row][key] != cur_cfg[row][key]
        ]
        if mismatched:
            lines.append("%-36s config mismatch (%s): FAIL (unlike-config "
                         "comparison refused)" % (row, "; ".join(mismatched)))
            ok = False
            continue
        scaled = cur[row] * scale
        ratio = scaled / base[row] if base[row] > 0 else float("inf")
        verdict = "ok"
        if ratio > 1.0 + max_regress:
            verdict = "REGRESSION (> +%d%%)" % round(max_regress * 100)
            ok = False
        lines.append("%-36s %10.1fns %10.1fns %8.3f  %s" %
                     (row, base[row], scaled, ratio, verdict))
    return ok, lines


def check_context_speedup(doc, key, min_ratio):
    """Floor gate on a scripts/bench.sh side-run context stamp (e.g.
    "avx512_speedup BM_SlimForwardFused/wide_b1") in the committed
    baseline. An absent key means the recording host's dispatcher could
    not run that backend — skip, visibly, so snapshots from hosts without
    the hardware don't fail."""
    ctx = doc.get("context", {})
    if key not in ctx:
        return True, ["context speedup gate: '%s' absent (backend side-run "
                      "not recorded on the snapshot host): skipped" % key]
    try:
        ratio = float(ctx[key])
    except (TypeError, ValueError):
        return False, ["context speedup gate: '%s' is not a number (%r): "
                       "FAIL" % (key, ctx[key])]
    ok = ratio >= min_ratio
    lines = ["context speedup gate: %s = %.2fx (floor %.2fx): %s" %
             (key, ratio, min_ratio, "ok" if ok else "FAIL")]
    return ok, lines


def provenance_line(path, doc):
    """The baseline's recording provenance, as far as its context has it."""
    ctx = doc.get("context", {})
    parts = ["%s=%s" % (k, ctx[k]) for k in ("git_sha", "git_dirty", "date")
             if k in ctx]
    try:
        recorded = datetime.datetime.fromisoformat(str(ctx["date"]))
        now = datetime.datetime.now(recorded.tzinfo)
        parts.append("(%d days old)" % (now - recorded).days)
    except (KeyError, ValueError):
        pass
    line = "baseline %s: %s" % (path, " ".join(parts) or "no provenance")
    if str(ctx.get("git_dirty", "")) == "1":
        line += " — note: recorded from a dirty tree"
    return line


def self_test(baseline, preset):
    """Every gate of the preset must pass the committed baseline and fail
    its hand-broken copy."""
    rows = preset["rows"]
    max_regress = preset["max_regress"]
    calibrate = preset["calibrate"]
    same = copy.deepcopy(baseline)
    ok_same, lines = compare(baseline, same, rows, max_regress, calibrate)
    if not ok_same:
        print("\n".join(lines), file=sys.stderr)
        print("self-test FAILED: identical run did not pass", file=sys.stderr)
        return False

    slowed = copy.deepcopy(baseline)
    target = rows[0]
    hit = False
    for row in slowed.get("benchmarks", []):
        if row.get("run_name", row.get("name", "")) == target:
            row["cpu_time"] = row["cpu_time"] * (1.0 + 2 * max_regress)
            hit = True
    if not hit:
        print("self-test FAILED: pinned row %s absent from baseline" % target,
              file=sys.stderr)
        return False
    ok_slowed, _ = compare(baseline, slowed, rows, max_regress, calibrate)
    if ok_slowed:
        print("self-test FAILED: +%d%% hand-slowed row passed the gate" %
              round(200 * max_regress), file=sys.stderr)
        return False

    # When the baseline stamps per-row config, flipping one stamp must be
    # refused even with identical cpu_times.
    if target in load_row_configs(baseline):
        flipped = copy.deepcopy(baseline)
        for row in flipped.get("benchmarks", []):
            if row.get("run_name", row.get("name", "")) == target:
                for key in _ROW_CONFIG_KEYS:
                    if key in row:
                        row[key] = str(row[key]) + "-flipped"
        ok_flipped, _ = compare(baseline, flipped, rows, max_regress,
                                calibrate)
        if ok_flipped:
            print("self-test FAILED: unlike-config row passed the gate",
                  file=sys.stderr)
            return False
        extra = ", unlike-config row rejected"
    else:
        extra = ""

    # Every committed side-run stamp must satisfy its floor, and a
    # hand-lowered stamp must fail — so a regressed snapshot cannot be
    # committed and the stamp gate cannot rot into always-green. (Absent
    # stamps skip: the snapshot host may lack the backend.)
    for key, floor in preset["context_floors"]:
        ok_ctx, lines = check_context_speedup(baseline, key, floor)
        if not ok_ctx:
            print("\n".join(lines), file=sys.stderr)
            print("self-test FAILED: committed baseline violates the "
                  "context speedup gate", file=sys.stderr)
            return False
        if key in baseline.get("context", {}):
            lowered = copy.deepcopy(baseline)
            lowered["context"][key] = "%.2f" % (floor / 2.0)
            ok_lowered, _ = check_context_speedup(lowered, key, floor)
            if ok_lowered:
                print("self-test FAILED: hand-lowered context stamp '%s' "
                      "passed" % key, file=sys.stderr)
                return False
            extra += ", lowered '%s' stamp rejected" % key

    # Unlike cache topologies must skip the packed rows instead of diffing
    # them (and instead of failing the whole gate).
    if str(baseline.get("context", {}).get("cache_topology", "")):
        recached = copy.deepcopy(baseline)
        recached["context"]["cache_topology"] = "self-test-other-cache"
        for row in recached.get("benchmarks", []):
            name = row.get("run_name", row.get("name", ""))
            if name.startswith("BM_MatMulPacked") and "cpu_time" in row:
                row["cpu_time"] = row["cpu_time"] * 100.0  # must be ignored
        ok_recached, lines = compare(baseline, recached, rows, max_regress,
                                     calibrate)
        if not ok_recached:
            print("\n".join(lines), file=sys.stderr)
            print("self-test FAILED: unlike-cache run did not skip the "
                  "packed rows", file=sys.stderr)
            return False
        extra += ", unlike-cache packed rows skipped"

    print("self-test passed: identical run ok, hand-slowed row rejected%s"
          % extra)
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--baseline", required=True)
    ap.add_argument("--current")
    ap.add_argument("--preset", required=True, choices=sorted(PRESETS),
                    help="the snapshot's gate: 'micro' for BENCH_micro.json, "
                         "'serve' for BENCH_serve.json")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    preset = PRESETS[args.preset]

    with open(args.baseline) as f:
        baseline = json.load(f)
    print(provenance_line(args.baseline, baseline))

    if args.self_test:
        sys.exit(0 if self_test(baseline, preset) else 1)

    if not args.current:
        ap.error("--current is required unless --self-test")
    with open(args.current) as f:
        current = json.load(f)

    ok, lines = compare(baseline, current, preset["rows"],
                        preset["max_regress"], preset["calibrate"])
    for key, floor in preset["context_floors"]:
        ctx_ok, ctx_lines = check_context_speedup(baseline, key, floor)
        ok = ok and ctx_ok
        lines.extend(ctx_lines)
    print("\n".join(lines))
    if not ok:
        print("\nbench regression gate FAILED (threshold +%d%% cpu_time)" %
              round(preset["max_regress"] * 100), file=sys.stderr)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
