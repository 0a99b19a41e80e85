#!/usr/bin/env bash
# ctest smoke test: an experiment's --trace-out timeline must be
# structurally valid Chrome trace-event JSON (checked by `pfits_report
# validate-trace`: balanced B/E spans, sorted timestamps, named
# tracks), and a pfitsd run with --trace-out must answer the `stats`
# wire op and flush a valid daemon-side trace at shutdown, and `stats`
# against a listener that accepts and never answers must give up with
# exit 2 inside its deadline instead of hanging. Registered
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
stall_pid=""
trap 'for p in $daemon_pid $stall_pid; do kill "$p" 2>/dev/null || true; done; rm -rf "$workdir"' EXIT

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

echo "trace: stats against a stalled daemon gives up"
stall_sock="$workdir/stall.sock"
python3 - "$stall_sock" > "$workdir/stall.log" 2>&1 <<'EOF' &
import socket, sys
s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
s.bind(sys.argv[1])
s.listen(4)
s.settimeout(120)  # never outlive a forgotten smoke run
print("listening", flush=True)
held = []
while True:
    conn, _ = s.accept()
    held.append(conn)  # accept, keep open, never answer
EOF
stall_pid=$!
for _ in $(seq 100); do
    grep -q listening "$workdir/stall.log" && break
    sleep 0.1
done
rc=0
timeout 30 "$report" stats --daemon="$stall_sock" > /dev/null || rc=$?
kill "$stall_pid" 2>/dev/null || true
wait "$stall_pid" 2>/dev/null || true
stall_pid=""
if [[ $rc -ne 2 ]]; then
    echo "trace: FAILED — stats on a stalled daemon exited $rc, want 2" >&2
    exit 1
fi

echo "trace: ok"
