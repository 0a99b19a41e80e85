#!/usr/bin/env bash
# A/B-compare two commits on the benchmark.
#
#   perf/ab.sh BASE [HEAD] [--pairs N] [--workloads "W ..."]
#
# Exports BASE and HEAD (default HEAD) with git archive into
# .bench_build/ab/{base,head}, copies HEAD's perf/ into both so the
# benchmark code is identical, and builds each. It then runs N (default
# 10, the minimum for a verdict) pairs per workload of BENCHMARK.json's
# run_seconds each: pair i uses seed i on both sides, and odd pairs run
# BASE first, even pairs HEAD first.
# For every end-to-end metric and workload it prints both sides' median
# and quartiles, the share of pairs HEAD won (ties count for neither)
# and a verdict:
#   gain        HEAD won >= 9/10 of the pairs and the medians differ by
#               more than BASE's interquartile range
#   regression  HEAD's median is worse than BASE's by more than the
#               metric's bound in BENCHMARK.json
#   unresolved  BASE's own spread is wider than the bound, and not
#               every HEAD run beats every BASE run
#   no change   otherwise
# Every run's result line is kept in .bench_build/ab/results.jsonl.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"

base_ref=""
head_ref=HEAD
pairs=10
workloads="paper_cold isa_explore chip_scale store_warm"
positional=0
while [ $# -gt 0 ]; do
    case "$1" in
        --pairs) pairs="$2"; shift 2 ;;
        --workloads) workloads="$2"; shift 2 ;;
        -h|--help) sed -n '2,20p' "$0"; exit 0 ;;
        -*) echo "ab.sh: unknown option $1" >&2; exit 2 ;;
        *)
            positional=$((positional + 1))
            case $positional in
                1) base_ref="$1" ;;
                2) head_ref="$1" ;;
                *) echo "ab.sh: too many arguments" >&2; exit 2 ;;
            esac
            shift ;;
    esac
done
[ -n "$base_ref" ] || { sed -n '2,4p' "$0" >&2; exit 2; }
seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')

ab=.bench_build/ab
rm -rf "$ab"
mkdir -p "$ab/base" "$ab/head"
git archive --format=tar "$base_ref" | tar -x -C "$ab/base"
git archive --format=tar "$head_ref" | tar -x -C "$ab/head"
if [ ! -d "$ab/head/perf" ]; then
    echo "ab.sh: $head_ref has no perf/" >&2
    exit 1
fi
rm -rf "$ab/base/perf"
cp -R "$ab/head/perf" "$ab/base/perf"

for side in base head; do
    echo "ab.sh: building $side" >&2
    bash "$ab/$side/perf/run.sh" --build-only
done

results="$ab/results.jsonl"
: > "$results"
run_side() { # side workload seed pair
    local line rc=0
    line=$(bash "$ab/$1/perf/run.sh" --workload "$2" --seed "$3" \
               --seconds "$seconds" --trace 0 2>/dev/null | tail -n 1) || rc=$?
    case "$line" in "{"*) ;; *) line='{"correct": false}' ;; esac
    printf '{"side": "%s", "workload": "%s", "pair": %d, "rc": %d, "result": %s}\n' \
        "$1" "$2" "$4" "$rc" "$line" >> "$results"
}
for i in $(seq 1 "$pairs"); do
    for w in $workloads; do
        echo "ab.sh: pair $i/$pairs $w" >&2
        if [ $((i % 2)) -eq 1 ]; then
            run_side base "$w" "$i" "$i"; run_side head "$w" "$i" "$i"
        else
            run_side head "$w" "$i" "$i"; run_side base "$w" "$i" "$i"
        fi
    done
done

python3 - "$results" BENCHMARK.json "$base_ref" "$head_ref" <<'EOF'
import json, statistics, sys

results_path, bench_path, base_ref, head_ref = sys.argv[1:5]
spec = {m["name"]: m for m in json.load(open(bench_path))["end_to_end"]}
runs = [json.loads(line) for line in open(results_path)]

def cell(v):
    q1, q3 = quartiles(v)
    return f"{statistics.median(v):.5g} [{q1:.5g}, {q3:.5g}]"

def quartiles(v):
    if len(v) < 2:
        return v[0], v[0]
    q = statistics.quantiles(v, n=4)
    return q[0], q[2]

print(f"A/B: base {base_ref}  head {head_ref}")
bad = [r for r in runs if r["rc"] != 0 or not r["result"].get("correct")]
for r in bad:
    print(f"FAILED RUN: {r['side']} {r['workload']} pair {r['pair']}")
workloads = list(dict.fromkeys(r["workload"] for r in runs))
hdr = (f"{'workload':12s} {'metric':12s} {'base median [q1, q3]':>30s} "
       f"{'head median [q1, q3]':>30s} {'wins':>6s}  verdict")
print(hdr)
print("-" * len(hdr))
for w in workloads:
    by_pair = {}
    for r in runs:
        if r["workload"] == w and r["result"].get("correct"):
            by_pair.setdefault(r["pair"], {})[r["side"]] = r["result"]["metrics"]
    pairs = [p for p in by_pair.values() if "base" in p and "head" in p]
    for name, m in spec.items():
        b = [p["base"][name]["value"] for p in pairs if name in p["base"]]
        h = [p["head"][name]["value"] for p in pairs if name in p["head"]]
        if not b or len(b) != len(h):
            continue
        lower = m["better"] == "lower"
        wins = sum((y < x) if lower else (y > x) for x, y in zip(b, h))
        bm, hm = statistics.median(b), statistics.median(h)
        bq1, bq3 = quartiles(b)
        gain = (bm - hm) if lower else (hm - bm)
        if len(pairs) >= 10 and wins >= 0.9 * len(pairs) and gain > bq3 - bq1:
            verdict = "gain"
        elif bm and -gain / bm > m["bound"]:
            verdict = "regression"
        elif (bm and (bq3 - bq1) / bm > m["bound"]
              and not all(((y < x) if lower else (y > x))
                          for x in b for y in h)):
            verdict = "unresolved"
        else:
            verdict = "no change"
        if len(pairs) < 10 and verdict == "no change":
            verdict += f" (only {len(pairs)} pairs; a gain needs 10)"
        print(f"{w:12s} {name:12s} {cell(b):>30s} {cell(h):>30s} "
              f"{wins:3d}/{len(pairs):<2d}  {verdict}")
sys.exit(1 if bad else 0)
EOF
