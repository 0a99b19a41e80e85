#!/usr/bin/env bash
# Crash/corruption fuzz for the pfitsd result store (docs/SERVICE.md,
# "Failure matrix"). Exercises every recovery path the store promises:
#
#  - SIGKILL the daemon while a sweep is writing entries: the client
#    must degrade to local simulation and the run must still exit 0,
#  - corrupt the store on disk (truncation, bit flips, stale temp
#    files, mis-named entries): a restarted daemon must quarantine
#    every damaged entry, serve the rest, and never serve rot,
#  - after every abuse, a sweep through the daemon must produce tables
#    identical to a daemon-less run (pfits_report diff
#    --ignore-metrics).
#
# Run standalone against any build dir, or via scripts/check.sh (which
# also runs one pass against the ASan build).
#
# Usage: svc_crash_fuzz.sh <build-dir>
set -euo pipefail

if [[ $# -ne 1 ]]; then
    echo "usage: $0 <build-dir>" >&2
    exit 2
fi

build="$(cd "$1" && pwd)"
pfitsd="$build/src/svc/pfitsd"
run="$build/bench/pfits_run"
experiment=fig13_miss_rate
report="$build/src/obs/pfits_report"
for bin in "$pfitsd" "$run" "$report"; do
    [[ -x "$bin" ]] || { echo "fuzz: missing $bin" >&2; exit 2; }
done

workdir="$(mktemp -d)"
daemon_pid=""
cleanup() {
    [[ -n "$daemon_pid" ]] && kill -9 "$daemon_pid" 2>/dev/null || true
    rm -rf "$workdir"
}
trap cleanup EXIT

sock="$workdir/pfitsd.sock"
store="$workdir/store"
unset PFITS_DAEMON PFITS_DAEMON_TIMEOUT_MS PFITS_DAEMON_RETRIES

start_daemon() {
    "$pfitsd" --socket "$sock" --store "$store" "$@" \
        > "$workdir/pfitsd.log" &
    daemon_pid=$!
    # Wait for the readiness line, not the socket file: the file
    # appears at bind(), a moment before listen(), and a connect in
    # that gap is refused.
    for _ in $(seq 1 100); do
        grep -qs "pfitsd: listening" "$workdir/pfitsd.log" && return 0
        kill -0 "$daemon_pid" 2>/dev/null || break
        sleep 0.1
    done
    echo "fuzz: FAILED — pfitsd did not come up" >&2
    cat "$workdir/pfitsd.log" >&2
    exit 1
}

stop_daemon() {
    [[ -n "$daemon_pid" ]] || return 0
    kill "$daemon_pid" 2>/dev/null || true
    wait "$daemon_pid" 2>/dev/null || true
    daemon_pid=""
}

check_tables() { # <run-dir>: daemon results must equal daemon-less ones
    "$report" aggregate "$workdir/$1" -o "$workdir/$1-suite.json" \
        > /dev/null 2>&1
    # --ignore-metrics: the two runs legitimately touch different
    # instruments (simcache.* only locally, svc.* only through the
    # daemon); what must match is the result tables.
    "$report" diff --ignore-metrics \
        "$workdir/local-suite.json" "$workdir/$1-suite.json"
}

echo "fuzz: daemon-less reference sweep"
"$run" "$experiment" --json "$workdir/local" > /dev/null
"$report" aggregate "$workdir/local" -o "$workdir/local-suite.json" \
    > /dev/null 2>&1

echo "fuzz: warm the store"
start_daemon
"$run" "$experiment" --daemon="$sock" --json "$workdir/warm" > /dev/null
check_tables warm
entries=$(ls "$store"/*.json 2>/dev/null | wc -l)
echo "fuzz: store holds $entries entries"
[[ "$entries" -gt 0 ]] || { echo "fuzz: FAILED — empty store" >&2; exit 1; }

echo "fuzz: SIGKILL the daemon mid-sweep"
# Empty the store (keep the directory) so the next sweep re-simulates
# and re-writes every entry, and kill the daemon as soon as the first
# entry lands: the sweep is then still putting the rest.
stop_daemon
rm -f "$store"/*.json
start_daemon
PFITS_DAEMON_TIMEOUT_MS=5000 PFITS_DAEMON_RETRIES=1 \
    "$run" "$experiment" --daemon="$sock" --json "$workdir/killed" \
    > /dev/null &
sweep_pid=$!
while ! compgen -G "$store/*.json" > /dev/null &&
    kill -0 "$sweep_pid" 2>/dev/null; do
    sleep 0.005
done
kill -9 "$daemon_pid"
daemon_pid=""
if ! wait "$sweep_pid"; then
    echo "fuzz: FAILED — sweep died with the daemon" >&2
    exit 1
fi
python3 - "$workdir/killed/$experiment.json" <<'EOF'
import json, sys
m = json.load(open(sys.argv[1]))["metrics"]
print(f"fuzz: killed daemon: fallbacks={m.get('svc.fallbacks', 0)} "
      f"retries={m.get('svc.retries', 0)}")
assert m.get("svc.fallbacks", 0) > 0, \
    "killing the daemon must surface as fallbacks"
EOF
check_tables killed

echo "fuzz: corrupt the store on disk"
# Re-warm so there are entries to damage, then stop the daemon and
# vandalize: truncate one entry, flip a byte in another, drop a stale
# temp file and a mis-named copy.
start_daemon
"$run" "$experiment" --daemon="$sock" --json "$workdir/rewarm" > /dev/null
stop_daemon
mapfile -t victims < <(ls "$store"/*.json | head -3)
[[ ${#victims[@]} -ge 2 ]] || { echo "fuzz: too few entries" >&2; exit 1; }
truncate -s 17 "${victims[0]}"
printf 'X' | dd of="${victims[1]}" bs=1 seek=40 conv=notrunc \
    status=none
cp "${victims[1]}" "$store/$(basename "${victims[0]}").tmp.12345.0"
if [[ ${#victims[@]} -ge 3 ]]; then
    cp "${victims[2]}" \
        "$store/0000000000000bad-0000000000000bad-0000000000000bad-0000000000000bad.json"
fi

echo "fuzz: restart; recovery must quarantine the damage"
start_daemon
"$run" "$experiment" --daemon="$sock" --json "$workdir/recovered" \
    > /dev/null
python3 - "$workdir/recovered/$experiment.json" <<'EOF'
import json, sys
m = json.load(open(sys.argv[1]))["metrics"]
q = m.get("svc.store.quarantined", {}).get("value", 0)
print(f"fuzz: after restart: quarantined={q}")
assert q >= 2, f"expected >=2 quarantined entries, saw {q}"
EOF
quarantined=$(ls "$store/quarantine" 2>/dev/null | wc -l)
echo "fuzz: quarantine dir holds $quarantined files"
[[ "$quarantined" -ge 2 ]] || {
    echo "fuzz: FAILED — damaged entries were not preserved" >&2
    exit 1
}
if ls "$store"/*.tmp.* > /dev/null 2>&1; then
    echo "fuzz: FAILED — stale temp file survived recovery" >&2
    exit 1
fi
check_tables recovered

stop_daemon
echo "fuzz: ok"
