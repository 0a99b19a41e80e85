#!/usr/bin/env bash
# Golden-snapshot gate: every experiment in `pfits_run --list` must
# print byte-identical output to its committed snapshot
# tests/golden/<name>.txt. This guards the probe refactor's promise
# that instrumentation seams never change measured results.
#
# Usage: golden_check.sh <build-dir> [--update] [--backend=fast]
#   --update        regenerate the snapshots from the current build
#                   (review the diff before committing).
#   --backend=fast  run every experiment on the fast simulator backend but
#                   diff against the SAME snapshots: the backends are
#                   result-equivalent by contract, so the committed
#                   interp tables are the fast backend's golden too.
set -euo pipefail

if [[ $# -lt 1 ]]; then
    echo "usage: $0 <build-dir> [--update] [--backend=fast]" >&2
    exit 2
fi

build="$1"
shift
update=""
backend_flags=()
tag=""
for arg in "$@"; do
    case "$arg" in
    --update) update="--update" ;;
    --backend=*)
        backend_flags=("$arg")
        tag=" (${arg#--backend=})"
        ;;
    *)
        echo "golden: unknown argument '$arg'" >&2
        exit 2
        ;;
    esac
done
if [[ "$update" == "--update" && ${#backend_flags[@]} -gt 0 ]]; then
    echo "golden: snapshots are regenerated on the default backend" \
         "only; drop --backend to --update" >&2
    exit 2
fi
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
    if ! "$run" "$name" "${backend_flags[@]}" 2>/dev/null |
            diff -u "$snapshot" - > /tmp/golden_diff_$$; then
        echo "golden: MISMATCH $name$tag" >&2
        head -40 /tmp/golden_diff_$$ >&2
        status=1
    else
        echo "golden: ok $name$tag"
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
