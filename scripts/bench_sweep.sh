#!/usr/bin/env bash
# Time the full 12-figure sweep through the parallel experiment engine:
# once serial (--jobs 1) and once at the host's default job count.
# Both runs print byte-identical tables; the wall-clock delta is the
# engine's speedup on this host (docs/PERFORMANCE.md records the
# trajectory). pfits_run starts each figure from an empty SimCache, so
# the cache is cold per figure — this measures the honest end-to-end
# cost.
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
build="$repo/build"

cmake -B "$build" -S "$repo" -DASAN=OFF >/dev/null
cmake --build "$build" -j "$(nproc 2>/dev/null || echo 4)" >/dev/null

figures=(fig03_static_mapping fig04_dynamic_mapping fig05_code_size
         fig06_power_breakdown fig07_switching_power fig08_internal_power
         fig09_leakage_power fig10_peak_power fig11_total_cache_power
         fig12_chip_power fig13_miss_rate fig14_ipc)

sweep() { # $@: extra flags for the one pfits_run call
    "$build/bench/pfits_run" --csv "$@" "${figures[@]}"
}

now_ms() { date +%s%3N; }

echo "=== serial sweep (--jobs 1) ==="
t0=$(now_ms)
sweep --jobs 1 > /tmp/pfits_sweep_serial.csv
serial_ms=$(( $(now_ms) - t0 ))

echo "=== parallel sweep (default jobs: $(nproc 2>/dev/null || echo '?')) ==="
t0=$(now_ms)
sweep > /tmp/pfits_sweep_parallel.csv
parallel_ms=$(( $(now_ms) - t0 ))

if ! cmp -s /tmp/pfits_sweep_serial.csv /tmp/pfits_sweep_parallel.csv; then
    echo "FAIL: serial and parallel sweeps diverge" >&2
    exit 1
fi

awk -v s="$serial_ms" -v p="$parallel_ms" 'BEGIN {
    printf "serial:   %7.1f s\n", s / 1000.0
    printf "parallel: %7.1f s\n", p / 1000.0
    printf "speedup:  %7.2fx (output byte-identical)\n", s / p
}'
