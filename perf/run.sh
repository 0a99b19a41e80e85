#!/usr/bin/env bash
# Build the benchmark program, pfits_perf, and run it.
#
#   perf/run.sh [--workload W] [--seed N] [--seconds S] [--trace 0|1]
#               [--trace-dir DIR] [--json OUT] [--write-expected]
#   perf/run.sh --build-only
#
# Builds perf/ (and the libraries, pfitsd and pfits_report it uses)
# into .bench_build/perf, then runs pfits_perf from the repository root.
# With --workload it runs that one workload and its last stdout line is
# the result JSON. Without it, it runs all four in turn. --json OUT also
# writes the result JSON (for all four: one object keyed by workload).
# Every metric is printed as "workload metric value unit (n, q1, q3)".
# The exit code is nonzero when the build or any check fails.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build=.bench_build/perf
log=.bench_build/perf-build.log

workload=""
json=""
build_only=0
args=()
while [ $# -gt 0 ]; do
    case "$1" in
        --build-only) build_only=1; shift ;;
        --workload) workload="$2"; shift 2 ;;
        --workload=*) workload="${1#*=}"; shift ;;
        --json) json="$2"; shift 2 ;;
        --json=*) json="${1#*=}"; shift ;;
        *) args+=("$1"); shift ;;
    esac
done

mkdir -p .bench_build
jobs=$(nproc 2>/dev/null || echo 4)
[ "$jobs" -gt 4 ] && jobs=4
if ! { [ -f "$build/Makefile" ] || [ -f "$build/build.ninja" ] ||
       cmake -S perf -B "$build" -DCMAKE_BUILD_TYPE=RelWithDebInfo; } \
        > "$log" 2>&1 ||
   ! cmake --build "$build" --target pfits_perf -j "$jobs" >> "$log" 2>&1
then
    echo "perf/run.sh: build failed; last lines of $log:" >&2
    tail -n 30 "$log" >&2
    exit 1
fi
[ "$build_only" -eq 0 ] || exit 0

run_one() {
    "$build/pfits_perf" --workload "$1" "${args[@]+"${args[@]}"}"
}

if [ -n "$workload" ]; then
    if [ -z "$json" ]; then
        exec "$build/pfits_perf" --workload "$workload" \
            "${args[@]+"${args[@]}"}"
    fi
    out=$(run_one "$workload") && rc=0 || rc=$?
    printf '%s\n' "$out"
    printf '%s\n' "$out" | tail -n 1 > "$json"
    exit "$rc"
fi

rc=0
combined="{"
for w in paper_cold isa_explore chip_scale store_warm; do
    out=$(run_one "$w") || rc=1
    printf '%s\n' "$out"
    last=$(printf '%s\n' "$out" | tail -n 1)
    case "$last" in
        "{"*) ;;
        *) last='{"correct": false}'; rc=1 ;;
    esac
    [ "$combined" = "{" ] || combined+=", "
    combined+="\"$w\": $last"
done
combined+="}"
[ -z "$json" ] || printf '%s\n' "$combined" > "$json"
exit "$rc"
