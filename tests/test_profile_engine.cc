/** @file The profiler's dynamic pass on the engine (runFunctional)
 *  against the per-op execute() loop it replaced, kept here as the
 *  reference: counts, emitted I/O, trap and fatal texts. */

#include <functional>
#include <string>

#include <gtest/gtest.h>

#include "assembler/builder.hh"
#include "common/logging.hh"
#include "fits/profile.hh"
#include "mibench/mibench.hh"
#include "sim/executor.hh"
#include "sim/memory.hh"
#include "sim/tile.hh"
#include "verify/randprog.hh"

namespace pfits
{
namespace
{

constexpr uint64_t kCap = 400'000'000;

/** What the reference loop observed. */
struct ReferenceRun
{
    std::vector<uint64_t> dynCounts;
    uint64_t totalDynamic = 0;
    IoSinks io;
};

/** The profiler's former dynamic pass: one execute() per dynamic op. */
ReferenceRun
referenceRun(const Program &prog, uint64_t max_instrs = kCap)
{
    const std::vector<MicroOp> uops = prog.decodeAll();
    ReferenceRun ref;
    ref.dynCounts.assign(uops.size(), 0);
    Memory mem;
    for (const DataSegment &seg : prog.data)
        mem.writeBytes(seg.base, seg.bytes);
    CpuState state;
    state.regs[SP] = prog.stackTop;
    AddrCodec codec{prog.codeBase, 2};
    ExecInfo exec_info;
    uint64_t index = 0;
    uint64_t executed = 0;
    while (!state.halted) {
        if (index >= uops.size())
            fatal("profile of '%s': fell off the end of the program",
                  prog.name.c_str());
        if (executed++ >= max_instrs)
            fatal("profile of '%s': exceeded instruction cap",
                  prog.name.c_str());
        ++ref.dynCounts[static_cast<size_t>(index)];
        execute(uops[static_cast<size_t>(index)], index, codec, state, mem,
                ref.io, exec_info);
        index = exec_info.nextIndex;
    }
    ref.totalDynamic = executed;
    return ref;
}

/** The engine run and the profile both reproduce the reference. */
void
expectSameAsReference(const Program &prog)
{
    SCOPED_TRACE(prog.name);
    const ReferenceRun ref = referenceRun(prog);
    const std::vector<MicroOp> uops = prog.decodeAll();
    const FunctionalRun run = runFunctional(prog, uops, kCap);
    ASSERT_EQ(run.end, FunctionalEnd::Halted);
    EXPECT_EQ(run.dynCounts, ref.dynCounts);
    EXPECT_EQ(run.instructions, ref.totalDynamic);
    EXPECT_EQ(run.io.console, ref.io.console);
    EXPECT_EQ(run.io.emitted, ref.io.emitted);
    EXPECT_GE(run.runs, 1u);
    EXPECT_LE(run.runs, run.instructions);

    const ProfileInfo info = profileProgram(prog);
    EXPECT_EQ(info.dynCounts, ref.dynCounts);
    EXPECT_EQ(info.totalDynamic, ref.totalDynamic);
}

/** The FatalError (or TrapError) text @p fn throws, prefixed with its
 * kind; "none" when it returns. */
std::string
errorText(const std::function<void()> &fn)
{
    try {
        fn();
    } catch (const TrapError &e) {
        return std::string("trap: ") + e.what();
    } catch (const FatalError &e) {
        return std::string("fatal: ") + e.what();
    }
    return "none";
}

/** Seven straight-line ops, one superblock: six ALU ops and the exit. */
Program
straightLine(const std::string &name, bool with_exit)
{
    ProgramBuilder b(name);
    b.movi(R0, 1);
    for (int i = 0; i < 5; ++i)
        b.addi(R0, R0, 3);
    if (with_exit)
        b.exit();
    else
        b.addi(R0, R0, 3);
    return b.finish();
}

TEST(ProfileEngine, MatchesExecuteLoopOnEveryKernel)
{
    for (const mibench::BenchInfo &info : mibench::suite())
        expectSameAsReference(info.build().program);
}

TEST(ProfileEngine, MatchesExecuteLoopOnRandomPrograms)
{
    for (uint64_t seed = 1; seed <= 64; ++seed)
        expectSameAsReference(randomVerifyProgram(seed));
}

TEST(ProfileEngine, MisalignedLoadMidRunTrapsLikeExecute)
{
    ProgramBuilder b("misaligned");
    b.words("buf", {1, 2, 3, 4});
    b.lea(R1, "buf");
    // The LDR sits mid-run, between straight-line ALU ops.
    b.addi(R1, R1, 2);
    b.addi(R2, R2, 1);
    b.ldr(R0, R1, 0);
    b.addi(R2, R2, 1);
    b.exit();
    const Program prog = b.finish();

    const std::string want = errorText([&] { referenceRun(prog); });
    EXPECT_NE(want.find("trap: misaligned word read"), std::string::npos)
        << want;
    EXPECT_EQ(errorText([&] { profileProgram(prog); }), want);
}

TEST(ProfileEngine, CapInsideARunFatalsExactlyAtTheCap)
{
    const Program prog = straightLine("capped", true);
    const uint64_t n = referenceRun(prog).totalDynamic;
    ASSERT_EQ(n, 7u);
    const std::vector<MicroOp> uops = prog.decodeAll();
    EXPECT_EQ(runFunctional(prog, uops, n).runs, 1u)
        << "the program is one superblock, so the cap falls inside it";

    const std::string want =
        errorText([&] { referenceRun(prog, n - 1); });
    EXPECT_EQ(want, "fatal: profile of 'capped': exceeded instruction cap");
    EXPECT_EQ(errorText([&] { profileProgram(prog, true, n - 1); }), want);

    const ProfileInfo info = profileProgram(prog, true, n);
    EXPECT_EQ(info.totalDynamic, n);
    EXPECT_EQ(info.dynCounts, referenceRun(prog, n).dynCounts);
}

TEST(ProfileEngine, RunningOffTheLastOpFatals)
{
    const Program prog = straightLine("runaway", false);
    const std::string want = errorText([&] { referenceRun(prog); });
    EXPECT_EQ(want, "fatal: profile of 'runaway': fell off the end of the "
                    "program");
    EXPECT_EQ(errorText([&] { profileProgram(prog); }), want);
}

} // namespace
} // namespace pfits
