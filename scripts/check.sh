#!/usr/bin/env bash
# Pre-merge gate: build and run the full test suite three times —
# plain, AddressSanitizer + UBSan, and UBSan alone (non-recovering) —
# with engine-vs-oracle differential shards (single-core and chip)
# under every build flavour, then diff every experiment against its
# committed golden snapshot, and run the concurrent tests under
# ThreadSanitizer. The ctest suites include the trace_smoke
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
# programs cross-executed on golden/arm32/packed/fits16, every timing
# config on the engine AND the cycle-exact interpreter oracle (checked,
# bare and as a one-tile chip), and the timing-invariant sweep over
# the paper's four configurations (see docs/VERIFICATION.md). Override
# the shard with PFITS_VERIFY_SEED to rotate coverage; a failure prints
# the seed and disassembly needed to replay it.
echo "=== differential verification (pfits_verify) ==="
"$repo/build/src/verify/pfits_verify" --count 500 --jobs "$jobs"

# The multi-tile chip shards: every kernel plus random programs run as
# every tile of a chip over a small shared MSI L2 (forcing capacity
# back-invalidations), the engine chip checked field for field against
# the oracle chip, architecturally against independent single-core
# runs, and for the coherence invariants — each at a fine, an odd and
# the production round-robin quantum (7, 1009, 10 000).
echo "=== differential verification (multi-tile chip shards) ==="
"$repo/build/src/verify/pfits_verify" --no-random --no-timing \
    --chip-count 500 --chip-tiles 4 --jobs "$jobs"
"$repo/build/src/verify/pfits_verify" --no-random --no-timing \
    --chip-count 100 --chip-tiles 8 --jobs "$jobs"
"$repo/build/src/verify/pfits_verify" --no-random --no-timing \
    --chip-count 100 --chip-tiles 2 --jobs "$jobs"

# Every experiment must print byte-identical tables to its committed
# snapshot (tests/golden/): measurements are observers now, and this
# gate catches any instrumentation change leaking into results.
# Regenerate deliberately with golden_check.sh --update.
echo "=== golden snapshots ==="
"$repo/scripts/golden_check.sh" "$repo/build"

# Manifest-based regression tracking: every experiment re-runs with
# --json, the manifests aggregate into BENCH_suite.json, and table values are
# diffed against tests/baseline/BENCH_baseline.json (value drift gates;
# wall times are machine-specific and never compared — see
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

# The sanitized shards, once per flavour: a smaller differential shard
# (the golden interpreter, the oracle, the differential runner and the
# engine's batched dispatch — which does its own pointer arithmetic
# over the predecoded trace — get leak/overflow coverage), a multi-tile
# chip shard (the quantum loop, the directory's recall paths, the
# engine's streak release around them, the per-tile memories) and the
# golden sweep. The directed MSI table, protocol fuzz and
# engine-vs-oracle chip shards in tests/ already ran inside ctest.
sanitized_shards() { # <build-dir> <flavour>
    echo "=== differential verification ($2 shard) ==="
    PFITS_JOBS=4 "$1/src/verify/pfits_verify" --count 50
    echo "=== differential verification ($2 multi-tile chip shard) ==="
    PFITS_JOBS=4 "$1/src/verify/pfits_verify" --no-random --no-timing \
        --chip-count 50 --chip-tiles 4
    echo "=== golden snapshots ($2) ==="
    "$repo/scripts/golden_check.sh" "$1"
}
sanitized_shards "$repo/build-asan" ASan

# One crash-fuzz pass with the daemon and clients under ASan: the
# kill/restart/quarantine paths get leak and overflow coverage.
echo "=== pfitsd crash fuzz (ASan) ==="
PFITS_JOBS=4 "$repo/scripts/svc_crash_fuzz.sh" "$repo/build-asan"

PFITS_JOBS=4 run_suite "$repo/build-ubsan" -DUBSAN=ON
sanitized_shards "$repo/build-ubsan" UBSan

# ThreadSanitizer over the compute-once memo and everything built on
# it or racing beside it: SimCache, the Runner, the daemon, its client
# and store.
# Any report fails the step (halt_on_error exits non-zero at once).
echo "=== configure $repo/build-tsan (-DTSAN=ON) ==="
cmake -B "$repo/build-tsan" -S "$repo" -DTSAN=ON
cmake --build "$repo/build-tsan" -j "$jobs" --target pfits_tests
echo "=== ThreadSanitizer: memo, SimCache and pfitsd tests ==="
TSAN_OPTIONS="halt_on_error=1" PFITS_JOBS=4 \
    "$repo/build-tsan/tests/pfits_tests" \
    --gtest_filter='Memo.*:SimCache.*:ParallelExp.*:SvcService.*:SvcStore.*'

echo "=== all checks passed (plain + sanitized + golden + TSan) ==="
