#!/usr/bin/env bash
# ctest gate for the experiment registry (bench/experiments.cc):
#  1. `pfits_run --list` names exactly the snapshots in tests/golden/,
#  2. no experiment name is registered twice,
#  3. an unknown experiment name, the removed --dvs and --tiles flags
#     and a job count outside 0..256 are usage errors: exit 2 with the
#     usage text on stderr (--list builds no pool, so none is started).
# Registered in tests/CMakeLists.txt as "registry_check".
#
# Usage: registry_check.sh <pfits_run-binary> <golden-dir>
set -euo pipefail

if [[ $# -ne 2 ]]; then
    echo "usage: $0 <pfits_run-binary> <golden-dir>" >&2
    exit 2
fi

run="$1"
golden="$2"
status=0

names="$("$run" --list)"
dups="$(sort <<< "$names" | uniq -d)"
if [[ -n "$dups" ]]; then
    echo "registry: FAILED — names registered twice:" >&2
    echo "$dups" >&2
    status=1
fi

stems="$(cd "$golden" && for f in *.txt; do echo "${f%.txt}"; done)"
if ! diff -u <(sort <<< "$stems") <(sort -u <<< "$names") >&2; then
    echo "registry: FAILED — --list and tests/golden/*.txt differ" >&2
    status=1
fi

for args in "no_such_experiment" "fig11_total_cache_power --dvs" \
            "fig03_static_mapping --tiles 2" \
            "--jobs 4294967297 --list" "--jobs 100000 --list"; do
    rc=0
    # shellcheck disable=SC2086 — $args deliberately splits.
    err="$("$run" $args 2>&1 > /dev/null)" || rc=$?
    if [[ $rc -ne 2 ]] || ! grep -q '^usage: pfits_run' <<< "$err"; then
        echo "registry: FAILED — 'pfits_run $args' exited $rc" \
             "(want 2 with usage text)" >&2
        status=1
    fi
done

[[ $status -eq 0 ]] && echo "registry: ok ($(wc -l <<< "$names") experiments)"
exit $status
