#!/usr/bin/env bash
# ctest smoke test: one experiment's --json manifest must validate
# against the documented schema, aggregate into a suite document, and
# self-diff clean (exit 0); an injected drift must make the diff exit
# nonzero. Registered in tests/CMakeLists.txt as "manifest_smoke".
#
# Usage: manifest_smoke.sh <pfits_run> <experiment> <pfits_report>
set -euo pipefail

if [[ $# -ne 3 ]]; then
    echo "usage: $0 <pfits_run> <experiment> <pfits_report>" >&2
    exit 2
fi

run="$1"
experiment="$2"
report="$3"
workdir="$(mktemp -d)"
trap 'rm -rf "$workdir"' EXIT

echo "smoke: running $experiment --json"
"$run" "$experiment" --json "$workdir" > /dev/null

echo "smoke: validate manifest"
"$report" validate "$workdir/$experiment.json"

echo "smoke: aggregate into suite"
"$report" aggregate "$workdir" -o "$workdir/suite.json"
"$report" validate "$workdir/suite.json"

echo "smoke: self-diff must be clean"
"$report" diff "$workdir/suite.json" "$workdir/suite.json"

echo "smoke: injected drift must gate"
# Perturb the first numeric table cell (manifest tables store cells as
# strings like "47.1"); the diff must exit nonzero.
python3 - "$workdir/suite.json" "$workdir/drifted.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
for bench in doc["benches"]:
    for table in bench["tables"]:
        for row in table["rows"]:
            for i, cell in enumerate(row[1:], start=1):
                try:
                    v = float(cell.rstrip("%"))
                except ValueError:
                    continue
                row[i] = str(v * 2 + 1)
                json.dump(doc, open(sys.argv[2], "w"))
                sys.exit(0)
print("no numeric cell found to perturb", file=sys.stderr)
sys.exit(1)
EOF
if "$report" diff "$workdir/suite.json" "$workdir/drifted.json"; then
    echo "smoke: FAILED — drifted suite diffed clean" >&2
    exit 1
fi

echo "smoke: unknown flag must be rejected"
if "$run" "$experiment" --cvs > /dev/null 2>&1; then
    echo "smoke: FAILED — unknown flag was accepted" >&2
    exit 1
fi

echo "smoke: ok"
