#!/usr/bin/env bash
# ctest gate for the pfitsd warm-store contract (docs/SERVICE.md):
#  1. an experiment's sweep through a fresh daemon produces the same tables as
#     a daemon-less run (pfits_report diff),
#  2. that cold sweep simulates each run once, in the client: the daemon
#     simulates nothing (simcache.sim_ms count in `pfits_report stats`
#     == 0), the client simulates and shares exactly what a daemon-less
#     run does (simcache.misses and simcache.shared equal the daemon-less
#     run's), degrades nowhere (svc.fallbacks == 0), puts one entry per
#     run identity (store entries == its svc.requests), and nothing is
#     served from the store (store.hits == 0),
#  3. a second identical sweep performs ZERO fresh simulations — one
#     request per distinct run (svc.requests == the daemon-less
#     simcache.misses), each answered from the daemon's store
#     (svc.store.hits == svc.requests, simcache.misses == 0 in the
#     manifest) — over reused connections (1 <= svc.connects <= --jobs,
#     svc.retries == 0),
#  4. with the daemon stopped, --daemon runs still exit 0 and count
#     their degradation (svc.fallbacks > 0).
# Registered in tests/CMakeLists.txt as "svc_warm_check" (fig13_miss_rate)
# and "svc_warm_check_phase" (ext_phase_behavior).
#
# Usage: svc_warm_check.sh <pfitsd> <pfits_run> <experiment> <pfits_report>
set -euo pipefail

if [[ $# -ne 4 ]]; then
    echo "usage: $0 <pfitsd> <pfits_run> <experiment> <pfits_report>" >&2
    exit 2
fi

pfitsd="$1"
run="$2"
experiment="$3"
report="$4"
workdir="$(mktemp -d)"
daemon_pid=""
cleanup() {
    [[ -n "$daemon_pid" ]] && kill "$daemon_pid" 2>/dev/null || true
    [[ -n "$daemon_pid" ]] && wait "$daemon_pid" 2>/dev/null || true
    rm -rf "$workdir"
}
trap cleanup EXIT

sock="$workdir/pfitsd.sock"
store="$workdir/store"

# A pfits_run process must not pick up an ambient daemon configuration.
unset PFITS_DAEMON PFITS_DAEMON_TIMEOUT_MS PFITS_DAEMON_RETRIES

echo "warm: daemon-less reference run"
"$run" "$experiment" --json "$workdir/local" > /dev/null

echo "warm: starting pfitsd"
"$pfitsd" --socket "$sock" --store "$store" > "$workdir/pfitsd.log" &
daemon_pid=$!
# Wait for the readiness line, not the socket file: the file appears at
# bind(), a moment before listen(), and a connect in that gap is refused.
ready() { grep -qs "pfitsd: listening" "$workdir/pfitsd.log"; }
for _ in $(seq 1 100); do
    ready && break
    kill -0 "$daemon_pid" 2>/dev/null || {
        echo "warm: FAILED — pfitsd died during startup" >&2
        cat "$workdir/pfitsd.log" >&2
        exit 1
    }
    sleep 0.1
done
ready || { echo "warm: FAILED — pfitsd never came up" >&2; exit 1; }

echo "warm: first sweep (populates the store)"
"$run" "$experiment" --daemon="$sock" --json "$workdir/first" > /dev/null

echo "warm: cold sweep must simulate each run once, in the client"
"$report" stats --daemon="$sock" > "$workdir/cold-stats.json"
python3 - "$workdir/cold-stats.json" "$workdir/local/$experiment.json" \
    "$workdir/first/$experiment.json" <<'EOF'
import json, sys
stats = json.load(open(sys.argv[1]))
local = json.load(open(sys.argv[2]))["metrics"]
first = json.load(open(sys.argv[3]))["metrics"]
daemon = stats.get("metrics", {})
store = stats["store"]
daemon_sims = daemon.get("simcache.sim_ms", {}).get("count", 0)
misses = first.get("simcache.misses", 0)
shared = first.get("simcache.shared", 0)
fallbacks = first.get("svc.fallbacks", 0)
want_misses = local.get("simcache.misses", 0)
want_shared = local.get("simcache.shared", 0)
requests = first.get("svc.requests", 0)
print(f"warm: cold sweep: daemon sims={daemon_sims} "
      f"client misses={misses} (daemon-less {want_misses}) "
      f"client shared={shared} (daemon-less {want_shared}) "
      f"fallbacks={fallbacks} "
      f"store entries={store['entries']} requests={requests} "
      f"store.hits={store['hits']}")
assert requests > 0, "cold sweep made no daemon requests"
assert daemon_sims == 0, "the daemon stores; it must never simulate"
assert misses == want_misses, "the client must simulate each distinct run once"
assert shared == want_shared, "the client must share what SimCache shares"
assert fallbacks == 0, "a leased compute is not a fallback"
assert store["entries"] == requests, "one store entry per run identity"
assert store["hits"] == 0, "a cold sweep serves nothing from the store"
EOF

echo "warm: second sweep (must be served entirely from the store)"
jobs=4
"$run" "$experiment" --daemon="$sock" --jobs "$jobs" \
    --json "$workdir/second" > /dev/null

python3 - "$workdir/second/$experiment.json" "$jobs" \
    "$workdir/local/$experiment.json" <<'EOF'
import json, sys
m = json.load(open(sys.argv[1]))["metrics"]
jobs = int(sys.argv[2])
runs = json.load(open(sys.argv[3]))["metrics"].get("simcache.misses", 0)
requests = m.get("svc.requests", 0)
hits = m.get("svc.store.hits", 0)
misses = m.get("simcache.misses", 0)
fallbacks = m.get("svc.fallbacks", 0)
connects = m.get("svc.connects", 0)
retries = m.get("svc.retries", 0)
print(f"warm: second sweep: requests={requests} (distinct runs {runs}) "
      f"store.hits={hits} "
      f"simcache.misses={misses} fallbacks={fallbacks} "
      f"connects={connects} retries={retries}")
assert requests > 0, "second sweep made no daemon requests"
assert requests == runs, "one request per distinct run"
assert hits == requests, "a warm store must answer every request"
assert misses == 0, "a warm store must avoid local simulation"
assert fallbacks == 0, "no degradation expected with a live daemon"
assert 1 <= connects <= jobs, \
    f"connections must be reused: {connects} opened with --jobs {jobs}"
assert retries == 0, "no transport retry expected with a live daemon"
EOF

echo "warm: daemon results must equal daemon-less results"
# --ignore-metrics: this diff crosses deployment modes, where the set
# of touched instruments legitimately differs (a warm sweep performs
# no fresh sims and adds svc.* counters) — the contract here is that
# the RESULT tables match, not the instrumentation.
for d in local second; do
    "$report" aggregate "$workdir/$d" -o "$workdir/$d-suite.json"
done
"$report" diff --ignore-metrics \
    "$workdir/local-suite.json" "$workdir/second-suite.json"

echo "warm: stopping pfitsd; --daemon must degrade, not fail"
kill "$daemon_pid"
wait "$daemon_pid" 2>/dev/null || true
daemon_pid=""
PFITS_DAEMON_TIMEOUT_MS=2000 PFITS_DAEMON_RETRIES=1 \
    "$run" "$experiment" --daemon="$sock" --json "$workdir/down" \
    > /dev/null

python3 - "$workdir/down/$experiment.json" <<'EOF'
import json, sys
m = json.load(open(sys.argv[1]))["metrics"]
fallbacks = m.get("svc.fallbacks", 0)
print(f"warm: dead daemon: fallbacks={fallbacks}")
assert fallbacks > 0, "a dead daemon must be counted as fallbacks"
EOF

echo "warm: dead-daemon results must also match"
"$report" aggregate "$workdir/down" -o "$workdir/down-suite.json"
"$report" diff --ignore-metrics \
    "$workdir/local-suite.json" "$workdir/down-suite.json"

echo "warm: ok"
