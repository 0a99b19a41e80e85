#!/usr/bin/env bash
# Power-model sanity gate: every power-reporting experiment must emit
# tables free of NaN/Inf across the full default sweep. Guards the
# breakdown share and *W() accessors (a zero-energy or zero-second run
# must report 0, not NaN) and every new model axis — way memoization,
# the leakage policies, the DVS ladder — whose divisions are easy to
# get wrong on degenerate sweep points.
#
# Usage: power_model_check.sh <build-dir>
set -euo pipefail

if [[ $# -ne 1 ]]; then
    echo "usage: $0 <build-dir>" >&2
    exit 2
fi
build="$1"

# Every experiment whose tables carry power-model outputs, including
# the skip-heavy geometry ablation (degenerate points) and fig11's
# DVS ladder table.
experiments=(
    fig06_power_breakdown
    fig07_switching_power
    fig08_internal_power
    fig09_leakage_power
    fig10_peak_power
    fig11_total_cache_power
    fig12_chip_power
    abl_cache_geometry
    ext_chip_power
    ext_dcache_power
    ext_way_memo
    ext_leakage_policy
)

run="$build/bench/pfits_run"
if [[ ! -x "$run" ]]; then
    echo "power_model_check: MISSING BINARY $run" >&2
    exit 1
fi
# stderr stays visible: pfits_run names any experiment that fails.
out="$("$run" --csv "${experiments[@]}")" || {
    echo "power_model_check: pfits_run FAILED to run" >&2
    exit 1
}
# CSV only (notes suppressed): any standalone nan/inf token in a cell
# is a model bug. -w keeps words like "internal" clean.
if bad="$(grep -Eiw -- 'nan|-nan|inf|-inf' <<< "$out")"; then
    echo "power_model_check: NaN/Inf in the tables:" >&2
    head -10 <<< "$bad" >&2
    echo "power_model_check: FAILED" >&2
    exit 1
fi
echo "power_model_check: ok (${#experiments[@]} experiments)"
