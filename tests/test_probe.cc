/** @file Tests for the probe/observer layer (sim/probe.hh). */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "assembler/builder.hh"
#include "common/fault.hh"
#include "exp/experiment.hh"
#include "exp/parallel.hh"
#include "exp/simcache.hh"
#include "fits/fits_frontend.hh"
#include "fits/profile.hh"
#include "fits/synth.hh"
#include "fits/translate.hh"
#include "mibench/mibench.hh"
#include "sim/frontend.hh"
#include "sim/machine.hh"
#include "sim/probe.hh"

namespace pfits
{
namespace
{

/** A small deterministic program used by the focused tests. */
Program
countdownProgram(uint32_t n)
{
    ProgramBuilder b("countdown");
    b.zeros("result", 4);
    b.movi(R0, n);
    Label loop = b.here();
    b.subi(R0, R0, 1, Cond::AL, true);
    b.b(loop, Cond::NE);
    b.movi(R0, 0xabcd);
    b.lea(R1, "result");
    b.str(R0, R1, 0);
    b.swi(SWI_EMIT_WORD);
    b.exit();
    return b.finish();
}

/** Field-for-field equality of two RunResults (the observable core). */
void
expectSameResult(const RunResult &a, const RunResult &b,
                 const std::string &what)
{
    SCOPED_TRACE(what);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.annulled, b.annulled);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.fetchToggleBits, b.fetchToggleBits);
    EXPECT_EQ(a.fetchBitsTotal, b.fetchBitsTotal);
    EXPECT_EQ(a.icacheRefillWords, b.icacheRefillWords);
    EXPECT_EQ(a.dmemAccesses, b.dmemAccesses);
    EXPECT_EQ(a.takenBranches, b.takenBranches);
    EXPECT_EQ(a.icache.reads, b.icache.reads);
    EXPECT_EQ(a.icache.readMisses, b.icache.readMisses);
    EXPECT_EQ(a.dcache.reads, b.dcache.reads);
    EXPECT_EQ(a.dcache.readMisses, b.dcache.readMisses);
    EXPECT_EQ(a.dcache.writes, b.dcache.writes);
    EXPECT_EQ(a.dcache.writeMisses, b.dcache.writeMisses);
    EXPECT_EQ(a.outcome, b.outcome);
    EXPECT_EQ(a.io.emitted, b.io.emitted);
}

/** An observer that counts every event it sees. */
struct CountingObserver final : SimObserver
{
    uint64_t fetches = 0;
    uint64_t newWordFetches = 0;
    uint64_t issues = 0;
    uint64_t commits = 0;
    uint64_t dataAccesses = 0;
    uint64_t faults = 0;
    uint64_t runEnds = 0;

    void
    onFetch(const FetchEvent &e) override
    {
        ++fetches;
        if (e.newWord)
            ++newWordFetches;
    }

    void onIssue(const IssueEvent &) override { ++issues; }
    void onCommit(const CommitEvent &) override { ++commits; }
    void onDataAccess(const DataAccessEvent &) override
    {
        ++dataAccesses;
    }
    void onFault(const FaultEvent &) override { ++faults; }
    void onRunEnd(RunResult &) override { ++runEnds; }
};

TEST(Probe, ObserverEquivalenceAcrossSuite)
{
    // The tentpole promise: attaching external observers changes no
    // observable result field, for every suite kernel on all four
    // paper configurations.
    const auto &suite = mibench::suite();
    struct Case
    {
        std::string what;
        RunResult plain, observed;
    };
    auto cases = parallelMap<std::vector<Case>>(
        ThreadPool::shared(), suite.size(), [&](size_t i) {
            const mibench::BenchInfo &info = suite[i];
            mibench::Workload w = info.build();
            ProfileInfo profile = profileProgram(w.program);
            FitsIsa isa = synthesize(profile, SynthParams{}, info.name);
            FitsProgram fp = translateProgram(w.program, isa, profile);
            ArmFrontEnd arm(w.program);
            FitsFrontEnd fits(std::move(fp));

            std::vector<Case> out;
            for (int c = 0; c < 4; ++c) {
                bool is_fits = c >= 2;
                const FrontEnd &fe =
                    is_fits ? static_cast<const FrontEnd &>(fits)
                            : static_cast<const FrontEnd &>(arm);
                CoreConfig core;
                core.icache.sizeBytes =
                    (c % 2 == 0) ? 16 * 1024 : 8 * 1024;

                Case cs;
                cs.what = std::string(info.name) + "/" +
                          std::to_string(c);
                cs.plain = Machine(fe, core).run();

                CountingObserver counter;
                ObserverList list;
                list.add(&counter);
                cs.observed = Machine(fe, core).run(nullptr, &list);
                out.push_back(std::move(cs));
            }
            return out;
        });
    for (const auto &per_bench : cases)
        for (const Case &cs : per_bench)
            expectSameResult(cs.plain, cs.observed, cs.what);
}

TEST(Probe, EventCountsMatchRunResult)
{
    ArmFrontEnd fe(countdownProgram(500));
    Machine m(fe, CoreConfig{});
    CountingObserver counter;
    ObserverList list;
    list.add(&counter);
    RunResult rr = m.run(nullptr, &list);
    ASSERT_EQ(rr.outcome, RunOutcome::Completed);

    EXPECT_EQ(counter.commits, rr.instructions);
    EXPECT_EQ(counter.issues, rr.instructions);
    EXPECT_EQ(counter.fetches, rr.instructions);
    EXPECT_EQ(counter.newWordFetches, rr.icache.accesses());
    EXPECT_EQ(counter.dataAccesses, rr.dmemAccesses);
    EXPECT_EQ(counter.faults, 0u);
    EXPECT_EQ(counter.runEnds, 1u);
}

TEST(Probe, PackedFetchSkipsArrayAccesses)
{
    // With a 16-bit stream and the fetch buffer on, FetchEvents still
    // fire per instruction but only word-crossing ones touch the array.
    mibench::Workload w = mibench::findBench("crc32").build();
    ProfileInfo profile = profileProgram(w.program);
    FitsIsa isa = synthesize(profile, SynthParams{}, "crc32");
    FitsFrontEnd fe(translateProgram(w.program, isa, profile));
    CoreConfig core;
    core.packedFetch = true;
    CountingObserver counter;
    ObserverList list;
    list.add(&counter);
    RunResult rr = Machine(fe, core).run(nullptr, &list);
    ASSERT_EQ(rr.outcome, RunOutcome::Completed);
    EXPECT_EQ(counter.fetches, rr.instructions);
    EXPECT_EQ(counter.newWordFetches, rr.icache.accesses());
    EXPECT_LT(counter.newWordFetches, counter.fetches);
}

TEST(Probe, IntervalSumsMatchRunTotals)
{
    // Invariant: the interval series partitions the run — every
    // accumulated quantity sums exactly to the RunResult total.
    mibench::Workload w = mibench::findBench("crc32").build();
    ArmFrontEnd fe(w.program);
    IntervalStatsObserver intervals(10'000);
    ObserverList list;
    list.add(&intervals);
    RunResult rr = Machine(fe, CoreConfig{}).run(nullptr, &list);
    ASSERT_EQ(rr.outcome, RunOutcome::Completed);

    const auto &samples = intervals.intervals();
    ASSERT_GT(samples.size(), 2u);

    uint64_t instrs = 0, cycles = 0, accesses = 0, misses = 0;
    uint64_t toggles = 0, bits = 0;
    for (size_t i = 0; i < samples.size(); ++i) {
        const IntervalSample &s = samples[i];
        if (i + 1 < samples.size()) {
            EXPECT_EQ(s.instructions, 10'000u) << "interval " << i;
        }
        EXPECT_EQ(s.firstInstruction, instrs) << "interval " << i;
        instrs += s.instructions;
        cycles += s.cycles;
        accesses += s.icacheAccesses;
        misses += s.icacheMisses;
        toggles += s.toggleBits;
        bits += s.fetchBits;
    }
    EXPECT_EQ(instrs, rr.instructions);
    EXPECT_EQ(cycles, rr.cycles);
    EXPECT_EQ(accesses, rr.icache.accesses());
    EXPECT_EQ(misses, rr.icache.misses());
    EXPECT_EQ(toggles, rr.fetchToggleBits);
    EXPECT_EQ(bits, rr.fetchBitsTotal);
}

TEST(Probe, IntervalSeriesCoversShortRuns)
{
    // A run shorter than one interval still produces exactly one
    // sample holding the whole run.
    ArmFrontEnd fe(countdownProgram(3));
    IntervalStatsObserver intervals(1'000'000);
    ObserverList list;
    list.add(&intervals);
    RunResult rr = Machine(fe, CoreConfig{}).run(nullptr, &list);
    ASSERT_EQ(rr.outcome, RunOutcome::Completed);
    ASSERT_EQ(intervals.intervals().size(), 1u);
    EXPECT_EQ(intervals.intervals()[0].instructions, rr.instructions);
    EXPECT_EQ(intervals.intervals()[0].cycles, rr.cycles);
}

TEST(Probe, IntervalExactMultipleFoldsDrainIntoLastSample)
{
    // When the retired count is an exact multiple of the interval the
    // pipeline-drain cycles fold into the last sample instead of
    // spawning an empty trailing one: every sample keeps the fixed
    // interval width and the cycle sum still matches the run total.
    ArmFrontEnd probe_fe(countdownProgram(64));
    RunResult probe = Machine(probe_fe, CoreConfig{}).run();
    ASSERT_EQ(probe.outcome, RunOutcome::Completed);
    ASSERT_GT(probe.instructions, 4u);
    ASSERT_EQ(probe.instructions % 2, 0u)
        << "pick a count giving an even total";

    ArmFrontEnd fe(countdownProgram(64));
    IntervalStatsObserver intervals(probe.instructions / 2);
    ObserverList list;
    list.add(&intervals);
    RunResult rr = Machine(fe, CoreConfig{}).run(nullptr, &list);
    ASSERT_EQ(rr.outcome, RunOutcome::Completed);
    ASSERT_EQ(rr.instructions, probe.instructions);

    const auto &samples = intervals.intervals();
    ASSERT_EQ(samples.size(), 2u);
    uint64_t cycles = 0;
    for (const IntervalSample &s : samples) {
        EXPECT_EQ(s.instructions, probe.instructions / 2);
        cycles += s.cycles;
    }
    EXPECT_EQ(cycles, rr.cycles);
}

TEST(Probe, StallReasonsAreClassified)
{
    // countdown's SUBS->B(cond) chain stalls on flags (operands), the
    // taken branch stalls the front-end; dual-issue pairs report None.
    ArmFrontEnd fe(countdownProgram(50));
    struct StallTally final : SimObserver
    {
        uint64_t byReason[4] = {};
        void
        onIssue(const IssueEvent &e) override
        {
            ++byReason[static_cast<size_t>(e.reason)];
            if (e.reason == StallReason::None)
                EXPECT_EQ(e.stallCycles, 0u);
            else
                EXPECT_GT(e.stallCycles, 0u);
        }
    } tally;
    ObserverList list;
    list.add(&tally);
    RunResult rr = Machine(fe, CoreConfig{}).run(nullptr, &list);
    ASSERT_EQ(rr.outcome, RunOutcome::Completed);
    EXPECT_GT(tally.byReason[static_cast<size_t>(StallReason::None)],
              0u);
    EXPECT_GT(
        tally.byReason[static_cast<size_t>(StallReason::FrontEnd)], 0u);
    EXPECT_GT(
        tally.byReason[static_cast<size_t>(StallReason::Operands)], 0u);
    uint64_t total = 0;
    for (uint64_t n : tally.byReason)
        total += n;
    EXPECT_EQ(total, rr.instructions);
}

/** Fault plan that reliably machine-checks crc32 (see test_fault.cc). */
FaultParams
aggressiveFaults()
{
    FaultParams fp;
    fp.seed = 0x5eed;
    fp.icacheMeanInterval = 100;
    return fp;
}

TEST(Probe, TraceRingIsBoundedAndDumpsOnFault)
{
    mibench::Workload w = mibench::findBench("crc32").build();
    ArmFrontEnd fe(w.program);
    CoreConfig core;
    core.icache.parity = true;

    FaultPlan plan(aggressiveFaults());
    constexpr size_t kDepth = 32;
    TraceObserver trace(kDepth);
    std::ostringstream sink;
    trace.setSink(&sink);
    ObserverList list;
    list.add(&trace);
    RunResult rr = Machine(fe, core).run(&plan, &list);
    ASSERT_EQ(rr.outcome, RunOutcome::FaultDetected);

    // Ring cleared after the dump, dump bounded: header + at most
    // kDepth event lines, all JSON objects.
    EXPECT_EQ(trace.size(), 0u);
    std::istringstream lines(sink.str());
    std::string line;
    size_t n = 0;
    bool sawHeader = false, sawFault = false;
    while (std::getline(lines, line)) {
        ++n;
        ASSERT_FALSE(line.empty());
        EXPECT_EQ(line.front(), '{');
        EXPECT_EQ(line.back(), '}');
        if (line.find("\"event\":\"run\"") != std::string::npos)
            sawHeader = true;
        if (line.find("\"event\":\"fault\"") != std::string::npos)
            sawFault = true;
    }
    EXPECT_LE(n, kDepth + 1);
    EXPECT_GE(n, 2u);
    EXPECT_TRUE(sawHeader);
    // The detection event is the last thing the run emits, so the
    // flight recorder must still hold it.
    EXPECT_TRUE(sawFault);
}

TEST(Probe, TraceNotDumpedOnCleanRun)
{
    ArmFrontEnd fe(countdownProgram(100));
    TraceObserver trace(16);
    std::ostringstream sink;
    trace.setSink(&sink);
    ObserverList list;
    list.add(&trace);
    RunResult rr = Machine(fe, CoreConfig{}).run(nullptr, &list);
    ASSERT_EQ(rr.outcome, RunOutcome::Completed);
    EXPECT_TRUE(sink.str().empty());
    EXPECT_EQ(trace.size(), 0u); // still cleared for the next run
}

TEST(Probe, ObserverSpecJoinsSimCacheKey)
{
    // Distinct instrumentation must be memoized separately: the
    // instrumented entry carries products the plain entry lacks.
    ProgramBuilder b("probe-keytest");
    b.zeros("result", 4);
    b.movi(R0, 77);
    Label loop = b.here();
    b.subi(R0, R0, 1, Cond::AL, true);
    b.b(loop, Cond::NE);
    b.exit();
    ArmFrontEnd fe(b.finish());
    CoreConfig core;

    SimCache &cache = SimCache::instance();
    size_t before = cache.entries();
    SimRequest req;
    req.fe = &fe;
    req.core = &core;

    SimResult plain = cache.simulate(req);
    ASSERT_EQ(cache.entries(), before + 1);
    EXPECT_TRUE(plain.intervals.empty());

    req.spec.intervalInstructions = 50;
    SimResult instrumented = cache.simulate(req);
    EXPECT_EQ(cache.entries(), before + 2);
    EXPECT_FALSE(instrumented.intervals.empty());

    // Same spec again: a hit, same products.
    uint64_t hits = cache.hits();
    SimResult again = cache.simulate(req);
    EXPECT_EQ(cache.hits(), hits + 1);
    EXPECT_EQ(again.intervals.size(), instrumented.intervals.size());
    expectSameResult(plain.run, instrumented.run, "plain vs observed");
}

TEST(Probe, RunnerPropagatesIntervalSeries)
{
    ExperimentParams params;
    params.observers.intervalInstructions = 5'000;
    Runner runner(params);
    const BenchResult &b = runner.get("crc32");
    for (ConfigId id : kAllConfigs) {
        const ConfigResult &cfg = b.of(id);
        ASSERT_FALSE(cfg.intervals.empty()) << configName(id);
        uint64_t instrs = 0;
        for (const IntervalSample &s : cfg.intervals)
            instrs += s.instructions;
        EXPECT_EQ(instrs, cfg.run.instructions) << configName(id);
    }
}

TEST(Probe, TraceOnTrapWritesBoundedFileThroughSimCache)
{
    // End-to-end: the experiment engine's --trace-on-trap path. A
    // faulted run must leave a bounded JSONL file in traceDir.
    mibench::Workload w = mibench::findBench("crc32").build();
    ArmFrontEnd fe(w.program);
    CoreConfig core;
    core.icache.parity = true;

    SimRequest req;
    req.fe = &fe;
    req.core = &core;
    req.faults = aggressiveFaults();
    req.spec.traceOnTrap = true;
    req.spec.traceDepth = 16;
    req.spec.traceDir = testing::TempDir();

    SimResult sim = SimCache::instance().simulate(req);
    ASSERT_EQ(sim.run.outcome, RunOutcome::FaultDetected);
    ASSERT_FALSE(sim.tracePath.empty());

    std::ifstream is(sim.tracePath);
    ASSERT_TRUE(is.good()) << sim.tracePath;
    std::string line;
    size_t n = 0;
    while (std::getline(is, line)) {
        ++n;
        EXPECT_EQ(line.front(), '{');
    }
    EXPECT_GE(n, 2u);
    EXPECT_LE(n, req.spec.traceDepth + 1);
    std::remove(sim.tracePath.c_str());
}

TEST(Probe, ZeroObserverListIsEquivalentToNull)
{
    ArmFrontEnd fe(countdownProgram(200));
    ObserverList empty;
    RunResult with_null = Machine(fe, CoreConfig{}).run();
    RunResult with_empty =
        Machine(fe, CoreConfig{}).run(nullptr, &empty);
    expectSameResult(with_null, with_empty, "null vs empty list");
}

} // namespace
} // namespace pfits
