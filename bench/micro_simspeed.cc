/**
 * @file
 * A4: google-benchmark microbenchmarks of the infrastructure itself —
 * simulator throughput, programmable decode, synthesis and translation
 * latency, and the raw cache model. Useful when extending the library;
 * not part of the paper reproduction.
 */

#include <benchmark/benchmark.h>

#include <vector>

#include "cache/cache.hh"
#include "common/rng.hh"
#include "exp/figures.hh"
#include "exp/simcache.hh"
#include "fits/fits_frontend.hh"
#include "fits/profile.hh"
#include "fits/synth.hh"
#include "fits/translate.hh"
#include "mibench/mibench.hh"
#include "sim/machine.hh"
#include "sim/probe.hh"
#include "verify/differential.hh"

using namespace pfits;

namespace
{

const Program &
crcProgram()
{
    static const Program prog = mibench::buildCrc32().program;
    return prog;
}

/** Arg(0) = the interpreter oracle, Arg(1) = the engine — run side by
 * side so one invocation reports the engine's speedup over the oracle
 * in instructions/second. */
TileFactory
tileForArg(benchmark::State &state)
{
    state.SetLabel(state.range(0) ? "engine" : "oracle");
    return state.range(0) ? TileFactory{} : TileFactory{makeOracleTile};
}

void
BM_ArmSimulate(benchmark::State &state)
{
    ArmFrontEnd fe(crcProgram());
    const TileFactory tile = tileForArg(state);
    uint64_t instructions = 0;
    for (auto _ : state) {
        Machine machine(fe, CoreConfig{}, tile);
        RunResult rr = machine.run();
        instructions += rr.instructions;
        benchmark::DoNotOptimize(rr.cycles);
    }
    state.counters["Minstr/s"] = benchmark::Counter(
        static_cast<double>(instructions) / 1e6,
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ArmSimulate)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

void
BM_FitsSimulate(benchmark::State &state)
{
    ProfileInfo profile = profileProgram(crcProgram());
    FitsIsa isa = synthesize(profile, SynthParams{}, "crc32");
    FitsFrontEnd fe(translateProgram(crcProgram(), isa, profile));
    const TileFactory tile = tileForArg(state);
    uint64_t instructions = 0;
    for (auto _ : state) {
        Machine machine(fe, CoreConfig{}, tile);
        RunResult rr = machine.run();
        instructions += rr.instructions;
        // Matches BM_ArmSimulate: without this the compiler may elide
        // the run and skew the ARM-vs-FITS throughput comparison.
        benchmark::DoNotOptimize(rr.cycles);
    }
    state.counters["Minstr/s"] = benchmark::Counter(
        static_cast<double>(instructions) / 1e6,
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_FitsSimulate)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

/**
 * Observer-layer overhead: the same FITS simulation with Arg(n) no-op
 * external observers attached. Arg(0) passes no ObserverList at all —
 * the zero-observer fast path whose cost the probe refactor promises
 * is unmeasurable (compare against BM_FitsSimulate; numbers recorded
 * in docs/OBSERVABILITY.md).
 */
void
BM_FitsSimulateObservers(benchmark::State &state)
{
    ProfileInfo profile = profileProgram(crcProgram());
    FitsIsa isa = synthesize(profile, SynthParams{}, "crc32");
    FitsFrontEnd fe(translateProgram(crcProgram(), isa, profile));

    struct NoopObserver final : SimObserver
    {
    };
    const size_t n = static_cast<size_t>(state.range(0));
    std::vector<NoopObserver> noops(n);
    ObserverList list;
    for (NoopObserver &o : noops)
        list.add(&o);

    uint64_t instructions = 0;
    for (auto _ : state) {
        Machine machine(fe, CoreConfig{});
        RunResult rr =
            machine.run(nullptr, n ? &list : nullptr);
        instructions += rr.instructions;
        benchmark::DoNotOptimize(rr.cycles);
    }
    state.counters["Minstr/s"] = benchmark::Counter(
        static_cast<double>(instructions) / 1e6,
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_FitsSimulateObservers)
    ->Arg(0)
    ->Arg(1)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);

/**
 * End-to-end figure sweep through the parallel experiment engine: all
 * 12 paper figures over the 21-kernel × 4-config suite. Arg(0) clears
 * the process-wide SimCache each iteration (cold: every simulation
 * runs); Arg(1) keeps it warm (steady-state of a bench binary touching
 * several figures: pure table assembly, zero fresh simulations).
 */
void
BM_SuiteSweep(benchmark::State &state)
{
    const bool warm = state.range(0) != 0;
    Table (*const builders[])(Runner &) = {
        fig3StaticMapping,  fig4DynamicMapping, fig5CodeSize,
        fig6PowerBreakdown, fig7SwitchingSaving, fig8InternalSaving,
        fig9LeakageSaving,  fig10PeakSaving,     fig11TotalCacheSaving,
        fig12ChipSaving,    fig13MissRate,       fig14Ipc};
    uint64_t tables = 0;
    for (auto _ : state) {
        if (!warm)
            SimCache::instance().clear();
        Runner runner;
        for (auto *builder : builders) {
            Table table = builder(runner);
            benchmark::DoNotOptimize(table.rows());
            ++tables;
        }
    }
    state.counters["tables/s"] = benchmark::Counter(
        static_cast<double>(tables), benchmark::Counter::kIsRate);
    state.counters["jobs"] =
        static_cast<double>(ThreadPool::shared().jobs());
}
BENCHMARK(BM_SuiteSweep)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

/** Profiling runs the engine's handlers functionally, a superblock at
 * a time (runFunctional), so items/s here is that pass's throughput in
 * instructions/s. */
void
BM_Profile(benchmark::State &state)
{
    uint64_t instructions = 0;
    for (auto _ : state) {
        ProfileInfo info = profileProgram(crcProgram());
        instructions += info.totalDynamic;
        benchmark::DoNotOptimize(info.totalDynamic);
    }
    state.SetItemsProcessed(static_cast<int64_t>(instructions));
}
BENCHMARK(BM_Profile)->Unit(benchmark::kMillisecond);

/** BM_Profile over all 21 kernels: the first stage of every prepare. */
void
BM_ProfileSuite(benchmark::State &state)
{
    static const std::vector<Program> progs = [] {
        std::vector<Program> out;
        for (const mibench::BenchInfo &bench : mibench::suite())
            out.push_back(bench.build().program);
        return out;
    }();
    uint64_t instructions = 0;
    for (auto _ : state) {
        for (const Program &prog : progs)
            instructions += profileProgram(prog).totalDynamic;
    }
    state.SetItemsProcessed(static_cast<int64_t>(instructions));
}
BENCHMARK(BM_ProfileSuite)->Unit(benchmark::kMillisecond);

void
BM_Synthesize(benchmark::State &state)
{
    ProfileInfo profile = profileProgram(crcProgram());
    for (auto _ : state) {
        FitsIsa isa = synthesize(profile, SynthParams{}, "crc32");
        benchmark::DoNotOptimize(isa.slots.size());
    }
}
BENCHMARK(BM_Synthesize)->Unit(benchmark::kMillisecond);

void
BM_Translate(benchmark::State &state)
{
    ProfileInfo profile = profileProgram(crcProgram());
    FitsIsa isa = synthesize(profile, SynthParams{}, "crc32");
    for (auto _ : state) {
        FitsProgram fits = translateProgram(crcProgram(), isa, profile);
        benchmark::DoNotOptimize(fits.code.size());
    }
}
BENCHMARK(BM_Translate)->Unit(benchmark::kMillisecond);

void
BM_ProgrammableDecode(benchmark::State &state)
{
    ProfileInfo profile = profileProgram(crcProgram());
    FitsIsa isa = synthesize(profile, SynthParams{}, "crc32");
    FitsProgram fits = translateProgram(crcProgram(), isa, profile);
    size_t i = 0;
    for (auto _ : state) {
        MicroOp uop;
        benchmark::DoNotOptimize(
            isa.decode(fits.code[i % fits.code.size()], uop));
        ++i;
    }
}
BENCHMARK(BM_ProgrammableDecode);

void
BM_CacheAccess(benchmark::State &state)
{
    CacheConfig cfg;
    cfg.sizeBytes = 16 * 1024;
    cfg.assoc = static_cast<uint32_t>(state.range(0));
    cfg.lineBytes = 32;
    Cache cache(cfg);
    Rng rng(1);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            cache.access(rng.below(1 << 18), false).hit);
    }
}
BENCHMARK(BM_CacheAccess)->Arg(1)->Arg(8)->Arg(32);

} // namespace

BENCHMARK_MAIN();
