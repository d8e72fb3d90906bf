#!/usr/bin/env python3
# Copyright 2026 The SPLASH Reproduction Authors.
"""Compares two sets of splash_bench result files.

    python3 benchmark/compare.py BASE_DIR NEW_DIR
    python3 benchmark/compare.py --self-test

Each directory holds the result files splash_bench writes
(<workload>-seed<n>-trace<t>-<stamp>.json under .bench_build/results).
For every (workload, metric) the table shows each set's median and
quartiles, the spread (quartile distance over median), the share of
seed-paired runs the new set wins (ties count for neither), and a verdict:

  regressed   the new median is worse than the base median by more than the
              metric's bound in BENCHMARK.json;
  improved    the new set wins at least 90% of the pairs and the medians
              differ by more than the base set's quartile distance;
  unresolved  a set's spread is wider than the bound, so "no change" cannot
              be claimed (per-layer metrics have no bound: neither improved
              nor regressed reads unresolved);
  unchanged   otherwise.

Result sets must share provenance (host shape, thread count, kernel backend,
L2 size, build type, compiler, run length); sets that differ are refused, as
are sets holding a run whose correctness checks failed. Exit status: 0 = no
end-to-end regression, 1 = at least one, 2 = refused input.
"""

import copy
import glob
import json
import os
import random
import statistics
import sys

# Provenance that must match for two runs to be comparable. The git sha,
# dirty flag, source hash and seed are expected to differ.
LIKE_KEYS = ("nproc", "splash_threads", "kernel_backend", "l2_bytes",
             "build_type", "compiler", "gemm_pack", "seconds")

HERE = os.path.dirname(os.path.abspath(__file__))


def load_spec(path=None):
    with open(path or os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    metrics = {}
    for m in spec["end_to_end"]:
        metrics[m["name"]] = (m["better"], m["bound"])
    for m in spec["per_layer"]:
        metrics[m["name"]] = (m["better"], None)
    return metrics


def load_set(directory):
    runs = []
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as f:
            run = json.load(f)
        if "provenance" in run and "metrics" in run:
            run["_path"] = path
            runs.append(run)
    return runs


def check_sets(base, new):
    """Returns an error message, or None when the sets may be compared."""
    if not base or not new:
        return "empty result set"
    reference = base[0]["provenance"]
    for run in base + new:
        if not run["correct"]:
            return "%s failed its correctness checks" % run.get("_path", "a run")
        for key in LIKE_KEYS:
            if run["provenance"].get(key) != reference.get(key):
                return "unlike provenance: %s is %r in %s but %r in %s" % (
                    key, run["provenance"].get(key), run.get("_path", "a run"),
                    reference.get(key), base[0].get("_path", "the base set"))
    return None


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def group(runs):
    """{(workload, metric): {seed: value}} over every run of a set."""
    out = {}
    for run in runs:
        prov = run["provenance"]
        for name, m in run["metrics"].items():
            out.setdefault((prov["workload"], name), {})[prov["seed"]] = (
                m["value"])
    return out


def verdict(better, bound, base, new):
    bq1, bmed, bq3 = quartiles(list(base.values()))
    nq1, nmed, nq3 = quartiles(list(new.values()))
    sign = 1.0 if better == "higher" else -1.0
    # Pair by seed where both sets ran it, else by position.
    seeds = sorted(set(base) & set(new))
    if seeds:
        pairs = [(base[s], new[s]) for s in seeds]
    else:
        pairs = list(zip(sorted(base.values()), sorted(new.values())))
    wins = sum(1 for b, n in pairs if sign * (n - b) > 0)
    losses = sum(1 for b, n in pairs if sign * (n - b) < 0)
    win_frac = wins / len(pairs) if pairs else 0.0
    loss_frac = losses / len(pairs) if pairs else 0.0
    worse = -sign * (nmed - bmed) / abs(bmed) if bmed else 0.0
    spread = max((bq3 - bq1) / abs(bmed) if bmed else 0.0,
                 (nq3 - nq1) / abs(nmed) if nmed else 0.0)
    clear = abs(nmed - bmed) > (bq3 - bq1)
    if bound is not None and worse > bound:
        v = "regressed"
    elif win_frac >= 0.9 and clear:
        v = "improved"
    elif bound is None:
        v = "regressed" if loss_frac >= 0.9 and clear else "unresolved"
    elif spread > bound:
        v = "unresolved"
    else:
        v = "unchanged"
    return {"base": (bq1, bmed, bq3), "new": (nq1, nmed, nq3),
            "worse": worse, "win_frac": win_frac, "spread": spread,
            "verdict": v}


def compare(metrics, base, new, out=sys.stdout):
    """Prints the comparison table; returns the number of end-to-end
    regressions."""
    gb, gn = group(base), group(new)
    regressions = 0
    print("%-15s %-28s %-34s %-34s %8s %6s  %s" % (
        "workload", "metric", "base median [q1, q3]", "new median [q1, q3]",
        "worse", "wins", "verdict"), file=out)
    for key in sorted(set(gb) & set(gn)):
        workload, name = key
        if name not in metrics:
            continue
        better, bound = metrics[name]
        r = verdict(better, bound, gb[key], gn[key])
        if r["verdict"] == "regressed" and bound is not None:
            regressions += 1
        fmt = "%.5g [%.5g, %.5g]"
        print("%-15s %-28s %-34s %-34s %7.2f%% %5.0f%%  %s" % (
            workload, name, fmt % (r["base"][1], r["base"][0], r["base"][2]),
            fmt % (r["new"][1], r["new"][0], r["new"][2]), 100 * r["worse"],
            100 * r["win_frac"], r["verdict"]), file=out)
    # Determinism: one build (source hash) and one seed give one test AUC.
    seen = {}
    for run in base + new:
        auc = run.get("diagnostics", {}).get("test_auc")
        if auc is None:
            continue
        prov = run["provenance"]
        k = (prov["workload"], prov["seed"], prov["source_hash"])
        if k in seen and seen[k] != auc["value"]:
            print("determinism: %s seed %s gave test_auc %r and %r" % (
                k[0], k[1], seen[k], auc["value"]), file=out)
            regressions += 1
        seen[k] = auc["value"]
    return regressions


def synthetic_set(metrics, seeds, scale=None, rng_seed=1):
    """Result runs with metric values near 1 (+-1% noise); `scale` maps a
    metric name to a factor applied to every run."""
    rng = random.Random(rng_seed)
    prov = {"nproc": "4", "splash_threads": "1", "kernel_backend": "avx2",
            "l2_bytes": "1048576", "build_type": "Release",
            "compiler": "GNU-12", "gemm_pack": "on", "seconds": "20",
            "source_hash": "x", "workload": "replay"}
    runs = []
    for seed in seeds:
        values = {}
        for name in metrics:
            v = 1.0 + rng.uniform(-0.01, 0.01)
            values[name] = {"value": v * (scale or {}).get(name, 1.0),
                            "unit": "x"}
        p = dict(prov, seed=str(seed))
        runs.append({"provenance": p, "correct": True, "metrics": values})
    return runs


def self_test():
    metrics = load_spec()
    e2e = {n: (b, bound) for n, (b, bound) in metrics.items()
           if bound is not None}
    seeds = range(1, 11)
    base = synthetic_set(e2e, seeds)
    sink = open(os.devnull, "w")
    failures = []
    if compare(e2e, base, copy.deepcopy(base), sink) != 0:
        failures.append("identical sets reported a regression")
    # Slow every end-to-end metric by twice its bound.
    slowed = {n: (1 - 2 * bound) if b == "higher" else (1 + 2 * bound)
              for n, (b, bound) in e2e.items()}
    worse = synthetic_set(e2e, seeds, slowed)
    got = compare(e2e, base, worse, sink)
    if got != len(e2e):
        failures.append("slowed set: %d of %d metrics regressed" % (
            got, len(e2e)))
    unlike = copy.deepcopy(base)
    unlike[0]["provenance"]["kernel_backend"] = "scalar"
    if check_sets(base, unlike) is None:
        failures.append("unlike provenance was accepted")
    broken = copy.deepcopy(base)
    broken[3]["correct"] = False
    if check_sets(base, broken) is None:
        failures.append("a failed run was accepted")
    for f in failures:
        print("self-test FAILED: " + f)
    if not failures:
        print("self-test passed: identical sets pass, 2x-bound slowdowns "
              "regress on all %d end-to-end metrics, unlike provenance and "
              "failed runs are refused" % len(e2e))
    return 1 if failures else 0


def main(argv):
    if argv[1:] == ["--self-test"]:
        return self_test()
    if len(argv) != 3:
        print(__doc__.strip().split("\n\n")[1], file=sys.stderr)
        return 2
    base, new = load_set(argv[1]), load_set(argv[2])
    err = check_sets(base, new)
    if err:
        print("refused: " + err, file=sys.stderr)
        return 2
    prov = base[0]["provenance"]
    print("base %s (%d runs), new %s (%d runs); host nproc=%s threads=%s "
          "kernel=%s l2=%s" % (argv[1], len(base), argv[2], len(new),
                               prov["nproc"], prov["splash_threads"],
                               prov["kernel_backend"], prov["l2_bytes"]))
    for label, runs in (("base", base), ("new", new)):
        shas = sorted({(r["provenance"]["git_sha"][:12],
                        r["provenance"]["git_dirty"],
                        r["provenance"]["source_hash"]) for r in runs})
        print("%s builds: %s" % (label, ", ".join(
            "sha %s dirty=%s src %s" % s for s in shas)))
    return 1 if compare(load_spec(), base, new) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
