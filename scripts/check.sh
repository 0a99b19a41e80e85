#!/usr/bin/env bash
# Pre-merge gate: build and run the full test suite three times —
# plain, AddressSanitizer + UBSan, and UBSan alone (non-recovering) —
# then diff every experiment against its committed golden snapshot
# on both simulator backends, with fast-backend differential shards
# under every build flavour. The ctest suites include the trace_smoke
# gate (scripts/trace_smoke.sh): --trace-out timelines from pfits_run
# and from pfitsd must validate via `pfits_report validate-trace`, so
# the tracing layer gets a sanitized pass too.
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
jobs="$(nproc 2>/dev/null || echo 4)"

run_suite() {
    local dir="$1"; shift
    echo "=== configure $dir ($*) ==="
    cmake -B "$dir" -S "$repo" "$@"
    echo "=== build $dir ==="
    cmake --build "$dir" -j "$jobs"
    echo "=== ctest $dir ==="
    ctest --test-dir "$dir" --output-on-failure -j "$jobs"
}

run_suite "$repo/build" -DASAN=OFF

# Differential fuzz: every MiBench kernel plus 500 seeded random
# programs cross-executed on golden/arm32/packed/fits16, and the
# timing-invariant sweep over the paper's four configurations (see
# docs/VERIFICATION.md). Override the shard with PFITS_VERIFY_SEED to
# rotate coverage; a failure prints the seed and disassembly needed to
# replay it.
echo "=== differential verification (pfits_verify) ==="
"$repo/build/src/verify/pfits_verify" --count 500 --jobs "$jobs"

# The multi-tile chip shard: every kernel plus 500 random programs run
# as all four tiles of a chip over a small shared MSI L2 (forcing
# capacity back-invalidations), checked architecturally against
# independent single-core runs plus the coherence invariants. The
# one-tile chip cross-execution rides inside the default sweep above.
echo "=== differential verification (multi-tile chip shard) ==="
"$repo/build/src/verify/pfits_verify" --no-random --no-timing \
    --chip-count 500 --chip-tiles 4 --jobs "$jobs"

# A fast-backend-only shard on top of the interp+fast cross-execution
# above: diffProgram still compares against the golden interpreter, so
# this pins the fast loop in isolation (a divergence here bisects to
# one backend in a single run).
echo "=== differential verification (fast backend shard) ==="
"$repo/build/src/verify/pfits_verify" --count 200 --jobs "$jobs" \
    --backend fast

# Every experiment must print byte-identical tables to its committed
# snapshot (tests/golden/): measurements are observers now, and this
# gate catches any instrumentation change leaking into results.
# Regenerate deliberately with golden_check.sh --update. The second
# sweep reruns every experiment with --backend=fast against the SAME
# snapshots — the fast loop must reproduce the interpreter's
# tables byte for byte.
echo "=== golden snapshots ==="
"$repo/scripts/golden_check.sh" "$repo/build"
echo "=== golden snapshots (fast backend) ==="
"$repo/scripts/golden_check.sh" "$repo/build" --backend=fast

# Manifest-based regression tracking: every experiment re-runs with
# --json, the manifests aggregate into BENCH_suite.json, and table values are
# diffed against tests/baseline/BENCH_baseline.json (value drift gates;
# wall times are machine-specific and ignored here — see
# docs/OBSERVABILITY.md "Regression tracking"). Regenerate deliberately
# with bench_regress.sh <build> --update.
echo "=== bench regression (manifests) ==="
"$repo/scripts/bench_regress.sh" "$repo/build"

# pfitsd crash/corruption fuzz: SIGKILL the daemon mid-write, truncate
# and bit-flip store entries, restart, and require quarantine plus
# results byte-identical to daemon-less runs (see docs/SERVICE.md).
echo "=== pfitsd crash fuzz ==="
"$repo/scripts/svc_crash_fuzz.sh" "$repo/build"

# The sanitized pass pins PFITS_JOBS=4 so the experiment engine's
# thread pool, SimCache and Runner run genuinely concurrent even on
# small CI hosts — races surface under TSan-less ASan as heap errors.
PFITS_JOBS=4 run_suite "$repo/build-asan" -DASAN=ON

# A smaller differential shard under ASan: the golden interpreter and
# the differential runner themselves get leak/overflow coverage. The
# fast-backend shard and golden sweep run sanitized too — the batched
# dispatch loop does its own pointer arithmetic over the predecoded
# trace and earns the same scrutiny as the interpreter.
echo "=== differential verification (ASan shard) ==="
PFITS_JOBS=4 "$repo/build-asan/src/verify/pfits_verify" --count 50
echo "=== differential verification (ASan fast backend shard) ==="
PFITS_JOBS=4 "$repo/build-asan/src/verify/pfits_verify" --count 50 \
    --backend fast

# Multi-tile chip shard under ASan: the round-robin quantum loop, the
# directory's recall paths and the per-tile memories all do pointer
# work worth sanitizing. (The directed MSI table and protocol fuzz in
# tests/test_coherence.cc already ran sanitized inside ctest above.)
echo "=== differential verification (ASan multi-tile chip shard) ==="
PFITS_JOBS=4 "$repo/build-asan/src/verify/pfits_verify" --no-random \
    --no-timing --chip-count 50 --chip-tiles 4
echo "=== golden snapshots (ASan, fast backend) ==="
"$repo/scripts/golden_check.sh" "$repo/build-asan" --backend=fast

# One crash-fuzz pass with the daemon and clients under ASan: the
# kill/restart/quarantine paths get leak and overflow coverage.
echo "=== pfitsd crash fuzz (ASan) ==="
PFITS_JOBS=4 "$repo/scripts/svc_crash_fuzz.sh" "$repo/build-asan"

PFITS_JOBS=4 run_suite "$repo/build-ubsan" -DUBSAN=ON

echo "=== differential verification (UBSan fast backend shard) ==="
PFITS_JOBS=4 "$repo/build-ubsan/src/verify/pfits_verify" --count 50 \
    --backend fast
echo "=== differential verification (UBSan multi-tile chip shard) ==="
PFITS_JOBS=4 "$repo/build-ubsan/src/verify/pfits_verify" --no-random \
    --no-timing --chip-count 50 --chip-tiles 4
echo "=== golden snapshots (UBSan, fast backend) ==="
"$repo/scripts/golden_check.sh" "$repo/build-ubsan" --backend=fast

echo "=== all checks passed (plain + sanitized + golden) ==="
