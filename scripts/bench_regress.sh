#!/usr/bin/env bash
# Suite-level regression gate over run manifests: run every experiment
# once with --json, aggregate the manifests into one BENCH_suite.json
# via pfits_report, and diff it against the checked-in baseline
# (tests/baseline/BENCH_baseline.json); compare the exact work
# counters against tests/baseline/work_counters.txt.
#
# Numeric table drift beyond the tolerance fails the gate. Wall times
# are machine-specific, so the diff against the checked-in baseline
# runs with --ignore-time; the 15% wall-time policy is exercised by the
# unit tests (Report.DiffFlagsWallTimeRegressionBeyondThreshold) and is
# available for same-machine comparisons via pfits_report diff.
#
# Usage: bench_regress.sh <build-dir> [--update]
#   --update  regenerate tests/baseline/BENCH_baseline.json and
#             work_counters.txt from the current build (review the
#             diff before committing).
set -euo pipefail

if [[ $# -lt 1 ]]; then
    echo "usage: $0 <build-dir> [--update]" >&2
    exit 2
fi

build="$1"
update="${2:-}"
repo="$(cd "$(dirname "$0")/.." && pwd)"
baseline="$repo/tests/baseline/BENCH_baseline.json"
counter_baseline="$repo/tests/baseline/work_counters.txt"
report="$build/src/obs/pfits_report"

if [[ ! -x "$report" ]]; then
    echo "bench_regress: missing $report (build first)" >&2
    exit 2
fi

run="$build/bench/pfits_run"
if [[ ! -x "$run" ]]; then
    echo "bench_regress: missing $run (build first)" >&2
    exit 2
fi

workdir="$(mktemp -d)"
trap 'rm -rf "$workdir"' EXIT

status=0
if ! "$run" --all --json "$workdir" > /dev/null; then
    echo "bench_regress: pfits_run --all FAILED" >&2
    status=1
fi
names="$("$run" --list)" # a separate step, so set -e sees a failure
for name in $names; do
    if [[ ! -f "$workdir/$name.json" ]]; then
        echo "bench_regress: $name wrote no manifest" >&2
        status=1
    elif ! "$report" validate "$workdir/$name.json" > /dev/null; then
        echo "bench_regress: $name wrote an invalid manifest" >&2
        status=1
    fi
done
if [[ $status -ne 0 ]]; then
    echo "bench_regress: FAILED before aggregation" >&2
    exit $status
fi

# The exact work counters: the engine's retired ops carried by the
# superblock batches and ops that took the per-op entry
# (sim/fastsim.cc), the profiler's dynamic profiles, instructions and
# superblock entries (fits/profile.cc), and the fresh simulations the
# SimCache ran and the requests it answered with another request's run
# (exp/simcache.cc). They are host-independent, so they gate exactly:
# a change that quietly stops batching, profiles more often, simulates
# a run twice or stops sharing one fails here even when every table
# still matches.
counters="$build/work_counters.txt"
for name in $names; do
    for key in engine.ops_batched engine.ops_per_op fits.profiles \
               fits.profile_instrs fits.profile_runs simcache.misses \
               simcache.shared; do
        value="$(sed -n "s/^ *\"$key\": \([0-9]*\),\{0,1\}\$/\1/p" \
                     "$workdir/$name.json")"
        echo "$name $key ${value:-0}"
    done
done > "$counters"

suite="$build/BENCH_suite.json"
"$report" aggregate "$workdir" -o "$suite"

if [[ "$update" == "--update" ]]; then
    mkdir -p "$(dirname "$baseline")"
    cp "$suite" "$baseline"
    cp "$counters" "$counter_baseline"
    echo "bench_regress: baseline updated ($baseline, $counter_baseline)"
    exit 0
fi

if ! diff -u "$counter_baseline" "$counters"; then
    echo "bench_regress: FAILED — work counters drifted from" \
         "$counter_baseline" >&2
    exit 1
fi

if [[ ! -f "$baseline" ]]; then
    echo "bench_regress: MISSING BASELINE $baseline (run with --update)" >&2
    exit 1
fi

# --ignore-time: the baseline's wall times were measured on whatever
# machine last ran --update; only table values gate here.
if "$report" diff "$baseline" "$suite" --ignore-time; then
    echo "bench_regress: ok (suite matches $baseline)"
else
    echo "bench_regress: FAILED — table values drifted from the baseline" >&2
    exit 1
fi
