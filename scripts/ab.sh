#!/usr/bin/env bash
# Copyright 2026 The SPLASH Reproduction Authors.
#
# Paired A/B of two source trees on the system benchmark (benchmark/run.sh):
#
#   scripts/ab.sh BASE HEAD [--workloads replay,ingest,...] [--seeds 1,2,...]
#                 [--seconds 20] [--cpus 0] [--out FILE] [--workdir DIR]
#
# BASE and HEAD are git revisions; `.` is the working tree as it stands,
# uncommitted changes included. BASE = HEAD is an A/A run: its spread is
# the noise floor a claim has to clear. Steps:
#   1. each side is exported into its own directory under the work dir
#      (git archive, or the tracked and unignored files for `.`), so no
#      worktree is registered and a killed run leaves nothing behind in
#      the repository;
#   2. each side's splash_bench is built by one unmeasured 1 s run.sh
#      call, so the measured runs' build step is a no-op;
#   3. per workload and seed, one run of each side, in ABBA order (A then
#      B for the first seed, B then A for the next, ...), each run pinned
#      with `taskset -c CPUS`;
#   4. one JSON (default ab.json in the current directory) holding, per
#      workload and end-to-end metric of BENCHMARK.json: each side's values,
#      median and quartiles, the per-seed ratio HEAD / BASE, its median, a
#      95% bootstrap interval of that median, and the pairs HEAD wins (by
#      the metric's better direction). Every run's diagnostics are kept,
#      with a flag per diagnostic saying whether both sides read the same
#      value on every seed (test_auc equal on every seed means the change
#      kept the model's bits), and each side's correctness flag and failed
#      and attempted operations. Both revisions are stamped with their sha,
#      dirty flag and run.sh's hash of the sources built.
# Defaults: every workload of BENCHMARK.json, seeds 1-10, 20 s runs, CPU 0.
# The work dir is removed at the end unless --workdir names one.
set -euo pipefail

usage() {
  sed -n '3,7p' "$0" >&2
  exit 2
}

[ $# -ge 2 ] || usage
base_rev=$1
head_rev=$2
shift 2
workloads=""
seeds="1,2,3,4,5,6,7,8,9,10"
seconds=20
cpus=0
out="$(pwd -P)/ab.json"
workdir=""
while [ $# -gt 0 ]; do
  case "$1" in
    --workloads) workloads=$2; shift 2 ;;
    --seeds) seeds=$2; shift 2 ;;
    --seconds) seconds=$2; shift 2 ;;
    --cpus) cpus=$2; shift 2 ;;
    --out) out=$2; shift 2 ;;
    --workdir) workdir=$2; shift 2 ;;
    *) usage ;;
  esac
done

repo=$(git rev-parse --show-toplevel)
if [ -z "$workloads" ]; then
  workloads=$(python3 -c 'import json,sys
print(",".join(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))' \
    "$repo/BENCHMARK.json")
fi
keep_workdir=1
if [ -z "$workdir" ]; then
  workdir=$(mktemp -d "${TMPDIR:-/tmp}/splash-ab.XXXXXX")
  keep_workdir=0
fi
mkdir -p "$workdir"
cleanup() {
  if [ "$keep_workdir" = 0 ]; then rm -rf "$workdir"; fi
}
trap cleanup EXIT

# export_side REV DIR: writes the tree of REV into DIR and prints
# "<sha> <dirty>".
export_side() {
  local rev=$1 dir=$2
  mkdir -p "$dir"
  if [ "$rev" = . ]; then
    (cd "$repo" && git ls-files -z -c -o --exclude-standard |
      while IFS= read -r -d '' f; do
        if [ -e "$f" ]; then printf '%s\0' "$f"; fi
      done | tar --null -T - -cf -) | tar -xf - -C "$dir"
    local dirty=0
    [ -z "$(git -C "$repo" status --porcelain)" ] || dirty=1
    echo "$(git -C "$repo" rev-parse HEAD) $dirty"
  else
    git -C "$repo" archive "$rev" | tar -xf - -C "$dir"
    echo "$(git -C "$repo" rev-parse "$rev^{commit}") 0"
  fi
}

base_info=$(export_side "$base_rev" "$workdir/A")
head_info=$(export_side "$head_rev" "$workdir/B")
read -r base_sha base_dirty <<< "$base_info"
read -r head_sha head_dirty <<< "$head_info"

IFS=, read -r -a wl_list <<< "$workloads"
IFS=, read -r -a seed_list <<< "$seeds"

# One unpinned 1 s run.sh call per side builds its splash_bench (run.sh's
# own build recipe) and warms the file cache; the measured runs' build
# step is then a no-op outside the measured process. Its result is
# discarded: a 1 s run may fail a correctness check that needs a full
# run, so only a result line (the build worked and the binary ran) counts.
for side in A B; do
  dir="$workdir/$side"
  log="$workdir/build-$side.log"
  (cd "$dir" && CARGO_TARGET_DIR="$dir/.bench_build" bash benchmark/run.sh \
    --workload "${wl_list[0]}" --seed "${seed_list[0]}" --seconds 1 \
    --trace 0) > "$log" 2>&1 || true
  if ! grep -q '^result file: ' "$log"; then
    echo "ab.sh: build or warm-up run of side $side failed; see $log" >&2
    keep_workdir=1
    exit 1
  fi
done

runs="$workdir/runs.tsv"
: > "$runs"
run_side() {  # side workload seed
  local side=$1 wl=$2 seed=$3 dir="$workdir/$1"
  local log="$workdir/run-$side-$wl-$seed.log"
  (cd "$dir" && CARGO_TARGET_DIR="$dir/.bench_build" taskset -c "$cpus" \
    bash benchmark/run.sh --workload "$wl" --seed "$seed" \
    --seconds "$seconds" --trace 0) > "$log" 2> "$log.err" || true
  local result
  result=$(sed -n 's/^result file: //p' "$log" | tail -n 1)
  if [ -z "$result" ]; then
    echo "ab.sh: $side $wl seed $seed wrote no result; see $log.err" >&2
    keep_workdir=1
    exit 1
  fi
  printf '%s\t%s\t%s\t%s\n' "$side" "$wl" "$seed" "$result" >> "$runs"
  echo "ab.sh: $wl seed $seed side $side done" >&2
}

for wl in "${wl_list[@]}"; do
  i=0
  for seed in "${seed_list[@]}"; do
    if [ $((i % 2)) = 0 ]; then
      run_side A "$wl" "$seed"; run_side B "$wl" "$seed"
    else
      run_side B "$wl" "$seed"; run_side A "$wl" "$seed"
    fi
    i=$((i + 1))
  done
done

python3 - "$runs" "$repo/BENCHMARK.json" "$out" "$base_rev" "$base_sha" \
  "$base_dirty" "$head_rev" "$head_sha" "$head_dirty" "$seconds" "$cpus" \
  <<'EOF'
import json, random, re, statistics, sys, time

(runs_path, bench_path, out_path, base_rev, base_sha, base_dirty, head_rev,
 head_sha, head_dirty, seconds, cpus) = sys.argv[1:]
bench = json.load(open(bench_path))
better = {m["name"]: m["better"] for m in bench["end_to_end"]}

def quartiles(xs):
    s = sorted(xs)
    def q(p):
        pos = p * (len(s) - 1)
        lo = int(pos)
        hi = min(lo + 1, len(s) - 1)
        return s[lo] + (s[hi] - s[lo]) * (pos - lo)
    return {"q1": q(0.25), "median": q(0.5), "q3": q(0.75)}

runs = {}
for line in open(runs_path):
    side, wl, seed, path = line.rstrip("\n").split("\t")
    runs.setdefault(wl, {}).setdefault(int(seed), {})[side] = json.load(
        open(path))

rng = random.Random(12345)
result = {
    "base": {"rev": base_rev, "sha": base_sha, "dirty": base_dirty == "1"},
    "head": {"rev": head_rev, "sha": head_sha, "dirty": head_dirty == "1"},
    "seconds": float(seconds), "cpus": cpus, "order": "ABBA",
    "date": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    "workloads": {},
}
for wl, by_seed in runs.items():
    seeds = sorted(by_seed)
    # run.sh's hash of the built sources names the tree, which for `.`
    # the sha alone does not.
    for side, key in (("A", "base"), ("B", "head")):
        result[key]["source_hash"] = (
            by_seed[seeds[0]][side]["provenance"]["source_hash"])
    entry = {"seeds": seeds, "metrics": {}, "diagnostics": {},
             "correct": {side: all(by_seed[s][side]["correct"] for s in seeds)
                         for side in ("A", "B")},
             "failed_of_attempted": {
                 side: [sum(by_seed[s][side][k] for s in seeds)
                        for k in ("failed", "attempted")]
                 for side in ("A", "B")}}
    for name, direction in better.items():
        a = [by_seed[s]["A"]["metrics"][name]["value"] for s in seeds]
        b = [by_seed[s]["B"]["metrics"][name]["value"] for s in seeds]
        ratios = [y / x if x else float("nan") for x, y in zip(a, b)]
        wins = sum((y > x) if direction == "higher" else (y < x)
                   for x, y in zip(a, b))
        boot = sorted(
            statistics.median(rng.choice(ratios) for _ in ratios)
            for _ in range(2000))
        entry["metrics"][name] = {
            "better": direction,
            "base": dict(quartiles(a), values=a),
            "head": dict(quartiles(b), values=b),
            "ratio_median": statistics.median(ratios),
            "ratio_ci95": [boot[49], boot[1949]],
            "head_wins": wins, "pairs": len(seeds),
        }
    for name in by_seed[seeds[0]]["A"].get("diagnostics", {}):
        a = [by_seed[s]["A"]["diagnostics"].get(name, {}).get("value")
             for s in seeds]
        b = [by_seed[s]["B"]["diagnostics"].get(name, {}).get("value")
             for s in seeds]
        entry["diagnostics"][name] = {"base": a, "head": b,
                                      "equal_every_seed": a == b}
    result["workloads"][wl] = entry
# One line per list of values keeps the file readable.
text = re.sub(r"\[\s+([^\[\]{}]*?)\s+\]",
              lambda m: "[" + " ".join(m.group(1).split()) + "]",
              json.dumps(result, indent=1))
with open(out_path, "w") as f:
    f.write(text + "\n")
for wl, entry in result["workloads"].items():
    for name, m in entry["metrics"].items():
        print("%-15s %-14s base %.6g [%.6g, %.6g]  head %.6g  ratio %.4f "
              "[%.4f, %.4f]  wins %d/%d" % (
                  wl, name, m["base"]["median"], m["base"]["q1"],
                  m["base"]["q3"], m["head"]["median"], m["ratio_median"],
                  m["ratio_ci95"][0], m["ratio_ci95"][1], m["head_wins"],
                  m["pairs"]))
    auc = entry["diagnostics"].get("test_auc")
    if auc is not None:
        print("%-15s test_auc equal on every seed: %s" % (
            wl, auc["equal_every_seed"]))
print("wrote", out_path)
EOF
