#!/usr/bin/env bash
# ctest smoke test: an experiment's --trace-out timeline must be
# structurally valid Chrome trace-event JSON (checked by `pfits_report
# validate-trace`: balanced B/E spans, sorted timestamps, named
# tracks), and a pfitsd run with --trace-out must answer the `stats`
# wire op and flush a valid daemon-side trace at shutdown. Registered
# in tests/CMakeLists.txt as "trace_smoke", so it runs in the plain,
# ASan and UBSan ctest suites alike (scripts/check.sh).
#
# Usage: trace_smoke.sh <pfits_run> <experiment> <pfitsd> <pfits_report>
set -euo pipefail

if [[ $# -ne 4 ]]; then
    echo "usage: $0 <pfits_run> <experiment> <pfitsd> <pfits_report>" >&2
    exit 2
fi

run="$1"
experiment="$2"
daemon="$3"
report="$4"
workdir="$(mktemp -d)"
daemon_pid=""
trap '[[ -n "$daemon_pid" ]] && kill "$daemon_pid" 2>/dev/null; rm -rf "$workdir"' EXIT

echo "trace: running $experiment --trace-out"
"$run" "$experiment" --trace-out "$workdir/bench.trace.json" > /dev/null

echo "trace: validate bench timeline"
"$report" validate-trace "$workdir/bench.trace.json"

echo "trace: engine spans present"
python3 - "$workdir/bench.trace.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
spans = {e.get("name") for e in doc["traceEvents"] if e.get("ph") == "B"}
missing = {"job", "prepare", "simulate"} - spans
if missing:
    print("missing expected spans: %s" % sorted(missing), file=sys.stderr)
    sys.exit(1)
EOF

echo "trace: daemon timeline + stats op"
sock="$workdir/d.sock"
"$daemon" --socket "$sock" --store "$workdir/store" \
    --trace-out "$workdir/daemon.trace.json" \
    > "$workdir/pfitsd.log" 2>&1 &
daemon_pid=$!
# Wait for the readiness line, not the socket file: the file appears at
# bind(), a moment before listen(), and a connect in that gap is refused.
ready() { grep -q "pfitsd: listening" "$workdir/pfitsd.log"; }
for _ in $(seq 100); do
    ready && break
    sleep 0.1
done
if ! ready; then
    echo "trace: FAILED — pfitsd never came up" >&2
    cat "$workdir/pfitsd.log" >&2
    exit 1
fi

"$report" stats --daemon="$sock" > "$workdir/stats.json"
python3 - "$workdir/stats.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["ok"] is True, doc
assert doc["uptime_ms"] >= 0, doc
assert isinstance(doc["store"], dict), doc
assert isinstance(doc["metrics"], dict), doc
EOF

# A clean shutdown must flush the daemon's trace (nonzero exit here
# means the write failed — the satellite contract for --trace-out).
kill -TERM "$daemon_pid"
wait "$daemon_pid"
daemon_pid=""

echo "trace: validate daemon timeline"
"$report" validate-trace "$workdir/daemon.trace.json"

python3 - "$workdir/daemon.trace.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
spans = {e.get("name") for e in doc["traceEvents"] if e.get("ph") == "B"}
if "svc.request" not in spans:
    print("daemon trace has no svc.request span", file=sys.stderr)
    sys.exit(1)
EOF

echo "trace: ok"
