#!/usr/bin/env bash
# Golden-snapshot gate: every experiment in `pfits_run --list` must
# print byte-identical output to its committed snapshot
# tests/golden/<name>.txt. This guards the probe refactor's promise
# that instrumentation seams never change measured results.
#
# Usage: golden_check.sh <build-dir> [--update]
#   --update  regenerate the snapshots from the current build (review
#             the diff before committing).
set -euo pipefail

if [[ $# -lt 1 || $# -gt 2 || ( $# -eq 2 && "$2" != "--update" ) ]]; then
    echo "usage: $0 <build-dir> [--update]" >&2
    exit 2
fi

build="$1"
update="${2:-}"
repo="$(cd "$(dirname "$0")/.." && pwd)"
golden="$repo/tests/golden"

run="$build/bench/pfits_run"
if [[ ! -x "$run" ]]; then
    echo "golden: MISSING BINARY $run (build first)" >&2
    exit 2
fi

names="$("$run" --list)" # a separate step, so set -e sees a failure
mkdir -p "$golden"
status=0
for name in $names; do
    snapshot="$golden/$name.txt"
    if [[ "$update" == "--update" ]]; then
        "$run" "$name" 2>/dev/null > "$snapshot"
        echo "golden: updated $name"
        continue
    fi
    if [[ ! -f "$snapshot" ]]; then
        echo "golden: MISSING SNAPSHOT $name (run with --update)" >&2
        status=1
        continue
    fi
    if ! "$run" "$name" 2>/dev/null |
            diff -u "$snapshot" - > /tmp/golden_diff_$$; then
        echo "golden: MISMATCH $name" >&2
        head -40 /tmp/golden_diff_$$ >&2
        status=1
    else
        echo "golden: ok $name"
    fi
    rm -f /tmp/golden_diff_$$
done

if [[ "$update" == "--update" ]]; then
    exit 0
fi
if [[ $status -ne 0 ]]; then
    echo "golden: FAILED — bench output drifted from tests/golden/" >&2
fi
exit $status
