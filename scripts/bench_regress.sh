#!/usr/bin/env bash
# Suite-level regression gate over run manifests: run every experiment
# with --json, aggregate the manifests into one BENCH_suite.json via
# pfits_report, and diff it against the checked-in baseline
# (tests/baseline/BENCH_baseline.json).
#
# Numeric table drift beyond the tolerance fails the gate. Wall times
# are machine-specific, so the diff against the checked-in baseline
# runs with --ignore-time; the 15% wall-time policy is exercised by the
# unit tests (Report.DiffFlagsWallTimeRegressionBeyondThreshold) and is
# available for same-machine comparisons via pfits_report diff.
#
# Usage: bench_regress.sh <build-dir> [--update]
#   --update  regenerate tests/baseline/BENCH_baseline.json from the
#             current build (review the diff before committing).
set -euo pipefail

if [[ $# -lt 1 ]]; then
    echo "usage: $0 <build-dir> [--update]" >&2
    exit 2
fi

build="$1"
update="${2:-}"
repo="$(cd "$(dirname "$0")/.." && pwd)"
baseline="$repo/tests/baseline/BENCH_baseline.json"
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

# The suite runs once per backend; the fast run writes each manifest
# under the distinct tool identity "<name>+fast", so the suite file
# tracks the interp and fast series separately (and a table divergence
# between them trips the same gate as any other drift).
status=0
for backend in interp fast; do
    if ! "$run" --all --backend="$backend" --json "$workdir" > /dev/null
    then
        echo "bench_regress: pfits_run --all ($backend) FAILED" >&2
        status=1
    fi
done
names="$("$run" --list)" # a separate step, so set -e sees a failure
for name in $names; do
    for tool in "$name" "$name+fast"; do
        if [[ ! -f "$workdir/$tool.json" ]]; then
            echo "bench_regress: $tool wrote no manifest" >&2
            status=1
        elif ! "$report" validate "$workdir/$tool.json" > /dev/null; then
            echo "bench_regress: $tool wrote an invalid manifest" >&2
            status=1
        fi
    done
done
if [[ $status -ne 0 ]]; then
    echo "bench_regress: FAILED before aggregation" >&2
    exit $status
fi

suite="$build/BENCH_suite.json"
"$report" aggregate "$workdir" -o "$suite"

if [[ "$update" == "--update" ]]; then
    mkdir -p "$(dirname "$baseline")"
    cp "$suite" "$baseline"
    echo "bench_regress: baseline updated ($baseline)"
    exit 0
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
