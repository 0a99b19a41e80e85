/** @file Tests for the differential verification subsystem
 *  (src/verify/): golden-model equivalence, fixed-seed differential
 *  shards across all four models, and the timing-invariant checker
 *  over the paper's configurations. The full-size sweep (500 random
 *  programs) lives in scripts/check.sh via pfits_verify; these shards
 *  keep ctest fast while pinning the same machinery. */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "assembler/builder.hh"
#include "exp/experiment.hh"
#include "exp/figures.hh"
#include "exp/simcache.hh"
#include "mibench/mibench.hh"
#include "sim/machine.hh"
#include "sim/probe.hh"
#include "verify/differential.hh"
#include "verify/golden.hh"
#include "verify/randprog.hh"
#include "verify/timing.hh"

namespace pfits
{
namespace
{

// --- golden interpreter vs the timing Machine ---------------------------

TEST(GoldenModel, MatchesMachineOnKernel)
{
    mibench::Workload wl = mibench::buildBitcount();

    ArmFrontEnd arm(wl.program);
    GoldenInterpreter golden(arm);
    GoldenResult g = golden.run();

    ASSERT_EQ(g.outcome, RunOutcome::Completed) << g.trapReason;
    ASSERT_FALSE(g.io.emitted.empty());
    // Anchored to the independent C++ reference checksum, not to the
    // Machine: agreement here ties all later comparisons to a third
    // implementation.
    EXPECT_EQ(g.io.emitted.back(), wl.expected);

    RunResult ra = Machine(arm, CoreConfig{}).run();
    ASSERT_EQ(ra.outcome, RunOutcome::Completed);
    EXPECT_EQ(g.retired, ra.instructions);
    EXPECT_EQ(g.io.emitted, ra.io.emitted);
    EXPECT_EQ(g.io.console, ra.io.console);
    for (unsigned r = 0; r < NUM_REGS; ++r)
        EXPECT_EQ(g.finalState.regs[r], ra.finalState.regs[r])
            << "r" << r;
    EXPECT_EQ(g.finalState.flags.n, ra.finalState.flags.n);
    EXPECT_EQ(g.finalState.flags.z, ra.finalState.flags.z);
    EXPECT_EQ(g.finalState.flags.c, ra.finalState.flags.c);
    EXPECT_EQ(g.finalState.flags.v, ra.finalState.flags.v);
}

TEST(GoldenModel, CountsAnnulledInstructions)
{
    ProgramBuilder b("annul");
    b.movi(R0, 1);
    b.cmp(R0, R0);               // Z=1
    b.addi(R1, R0, 5, Cond::NE); // annulled
    b.addi(R1, R0, 7, Cond::EQ); // executes
    b.exit();
    Program prog = b.finish();

    ArmFrontEnd arm(prog);
    GoldenResult g = GoldenInterpreter(arm).run();
    ASSERT_EQ(g.outcome, RunOutcome::Completed);
    EXPECT_EQ(g.annulled, 1u);
    EXPECT_EQ(g.finalState.regs[R1], 8u);

    RunResult ra = Machine(arm, CoreConfig{}).run();
    EXPECT_EQ(g.retired, ra.instructions);
}

TEST(GoldenModel, WatchdogReportsExpiry)
{
    ProgramBuilder b("spin");
    Label loop = b.here();
    b.b(loop);
    Program prog = b.finish();

    ArmFrontEnd arm(prog);
    GoldenResult g =
        GoldenInterpreter(arm).run(/*max_instructions=*/100);
    EXPECT_EQ(g.outcome, RunOutcome::WatchdogExpired);
}

// --- differential shards (fixed seeds, all four models) -----------------

class DifferentialShard : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(DifferentialShard, RandomProgramAgreesOnAllBackends)
{
    uint64_t seed = GetParam();
    Program prog = randomVerifyProgram(seed);
    DiffReport rep = diffProgram(prog, seed);
    EXPECT_TRUE(rep.ok()) << rep.describe();
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialShard,
                         ::testing::Range<uint64_t>(1, 33));

class DifferentialKernel
    : public ::testing::TestWithParam<const char *>
{
};

TEST_P(DifferentialKernel, KernelAgreesOnAllBackends)
{
    const mibench::BenchInfo &info = mibench::findBench(GetParam());
    mibench::Workload wl = info.build();
    DiffReport rep = diffProgram(wl.program, 0, &wl.expected);
    EXPECT_TRUE(rep.ok()) << rep.describe();
}

// A cross-section of the suite; pfits_verify covers all 21.
INSTANTIATE_TEST_SUITE_P(Kernels, DifferentialKernel,
                         ::testing::Values("bitcount", "sha",
                                           "stringsearch",
                                           "adpcm.encode"));

class FastBackendShard : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(FastBackendShard, RandomProgramAgreesOnFastLoopAlone)
{
    // A second, disjoint seed range for the engine-vs-oracle
    // cross-check the shards above run, widening the sampled program
    // space.
    uint64_t seed = GetParam();
    Program prog = randomVerifyProgram(seed);
    DiffReport rep = diffProgram(prog, seed);
    EXPECT_TRUE(rep.ok()) << rep.describe();
}

INSTANTIATE_TEST_SUITE_P(Seeds, FastBackendShard,
                         ::testing::Range<uint64_t>(101, 117));

TEST(DifferentialSuite, SmallSweepIsClean)
{
    DiffOptions opts;
    opts.seed = 1000;
    opts.count = 8;
    opts.kernels = false;
    DiffSummary sum = runDifferentialSuite(opts);
    EXPECT_EQ(sum.programsRun, 8u);
    EXPECT_TRUE(sum.ok());
}

// --- engine determinism across job counts --------------------------------

/** Two figure tables over the whole suite, as one CSV fingerprint. */
std::string
suiteCsv(unsigned jobs)
{
    SimCache::instance().clear(); // force fresh simulations
    ExperimentParams params;
    params.jobs = jobs;
    Runner runner(params);
    std::ostringstream os;
    fig13MissRate(runner).printCsv(os);
    fig14Ipc(runner).printCsv(os);
    return os.str();
}

TEST(BackendDeterminism, TablesByteIdenticalAcrossBackendsAndJobs)
{
    // Experiment tables must be byte-identical at any worker count
    // (1, 4, and the hardware-sized shared pool); the engine itself is
    // held to the oracle by the differential shards above, and the
    // tables to their snapshots by scripts/golden_check.sh.
    const std::string four = suiteCsv(4);
    ASSERT_FALSE(four.empty());
    EXPECT_EQ(four, suiteCsv(1));
    EXPECT_EQ(four, suiteCsv(0));
    SimCache::instance().clear();
}

// --- timing invariants ---------------------------------------------------

TEST(TimingInvariants, RandomProgramScheduleIsLegal)
{
    Program prog = randomVerifyProgram(7);
    ArmFrontEnd arm(prog);
    CoreConfig core;
    Machine machine(arm, core);

    TimingInvariantChecker checker(core);
    ObserverList observers;
    observers.add(&checker);
    RunResult rr = machine.run(nullptr, &observers);

    ASSERT_EQ(rr.outcome, RunOutcome::Completed);
    EXPECT_TRUE(checker.ok()) << checker.summary();
    // IPC can never exceed the issue width.
    EXPECT_LE(rr.instructions, rr.cycles * core.issueWidth);
}

TEST(TimingInvariants, HoldOnPaperConfigsForKernel)
{
    // Directly attach the checker on both paper I-cache sizes of the
    // ARM frontend; the four-config FITS sweep is the test below.
    mibench::Workload wl = mibench::buildStringsearch();
    ArmFrontEnd arm(wl.program);
    for (uint32_t icache_bytes : {16u * 1024u, 8u * 1024u}) {
        CoreConfig core;
        core.icache.sizeBytes = icache_bytes;
        Machine machine(arm, core);
        TimingInvariantChecker checker(core);
        ObserverList observers;
        observers.add(&checker);
        RunResult rr = machine.run(nullptr, &observers);
        ASSERT_EQ(rr.outcome, RunOutcome::Completed);
        EXPECT_TRUE(checker.ok())
            << "icache " << icache_bytes << ": " << checker.summary();
    }
}

TEST(TimingInvariants, FullSweepAcrossBenchmarksAndConfigs)
{
    // The acceptance sweep: every MiBench benchmark on the paper's
    // four configurations (ARM16/ARM8/FITS16/FITS8), every schedule
    // verified against the scoreboard contract.
    std::vector<std::string> fails = runTimingInvariantSweep();
    EXPECT_TRUE(fails.empty())
        << fails.size() << " failing runs; first: " << fails.front();
}

} // namespace
} // namespace pfits
