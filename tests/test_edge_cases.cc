/** @file Edge-case and failure-injection tests across the toolchain:
 *  synthesis resource exhaustion, unusual translation shapes, and
 *  figure-table consistency against raw results. */

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "assembler/assembler.hh"
#include "assembler/builder.hh"
#include "common/fault.hh"
#include "common/logging.hh"
#include "exp/figures.hh"
#include "fits/fits_frontend.hh"
#include "fits/profile.hh"
#include "fits/synth.hh"
#include "fits/translate.hh"
#include "sim/executor.hh"
#include "sim/machine.hh"
#include "sim/probe.hh"
#include "verify/differential.hh"
#include "verify/golden.hh"
#include "verify/timing.hh"

namespace pfits
{
namespace
{

RunResult
runArmAndFits(const Program &prog, const SynthParams &sp,
              RunResult *fits_out)
{
    ProfileInfo profile = profileProgram(prog);
    FitsIsa isa = synthesize(profile, sp, prog.name);
    FitsProgram fits = translateProgram(prog, isa, profile);
    ArmFrontEnd arm(prog);
    FitsFrontEnd fe(std::move(fits));
    RunResult ra = Machine(arm, CoreConfig{}).run();
    *fits_out = Machine(fe, CoreConfig{}).run();
    return ra;
}

TEST(SynthEdge, RegisterListDictionaryOverflowIsFatal)
{
    ProgramBuilder b("lists");
    // 17 distinct register lists overflow the 16-entry dictionary.
    for (unsigned i = 1; i <= 17; ++i) {
        MicroOp push;
        push.op = Op::STM;
        push.rn = SP;
        push.regList = static_cast<uint16_t>(i);
        push.ldmIsPop = false;
        b.emit(push);
    }
    b.exit();
    Program prog = b.finish();
    ProfileInfo profile = profileProgram(prog, false);
    EXPECT_THROW(synthesize(profile, SynthParams{}, "lists"),
                 FatalError);
    // A larger dictionary resolves it.
    SynthParams roomy;
    roomy.listDictCapacity = 32;
    EXPECT_NO_THROW(synthesize(profile, roomy, "lists"));
}

TEST(SynthEdge, ConditionalMemoryAndReturn)
{
    ProgramBuilder b("condmem");
    Label fn = b.label();
    Label start = b.label();
    b.b(start);
    b.bind(fn);
    b.cmpi(R0, 5);
    b.ret(Cond::GT);         // conditional return (saturates at 6)
    b.addi(R0, R0, 1);
    b.ret();
    b.bind(start);
    b.zeros("buf", 64);
    b.lea(R1, "buf");
    b.movi(R0, 0);
    Label loop = b.here();
    b.bl(fn);
    b.cmpi(R0, 3);
    b.str(R0, R1, 4, Cond::EQ);  // conditional store
    b.ldr(R2, R1, 4, Cond::GE);  // conditional load
    b.cmpi(R0, 6);
    b.b(loop, Cond::LT);
    b.add(R0, R0, R2);
    b.swi(SWI_EMIT_WORD);
    b.exit();
    Program prog = b.finish();

    RunResult fits_rr;
    RunResult arm_rr = runArmAndFits(prog, SynthParams{}, &fits_rr);
    EXPECT_EQ(arm_rr.io.emitted, fits_rr.io.emitted);
}

TEST(SynthEdge, NegativeRegisterOffsetsSurvive)
{
    ProgramBuilder b("negoff");
    b.words("tab", {10, 20, 30, 40, 50});
    b.lea(R1, "tab");
    b.addi(R1, R1, 16); // point at tab[4]
    b.movi(R2, 2);
    // address = r1 - r2*... : uARM negative register offset
    MicroOp ldr;
    ldr.op = Op::LDR;
    ldr.rd = R0;
    ldr.rn = R1;
    ldr.rm = R2;
    ldr.memKind = MemOffsetKind::REG_SHIFT_IMM;
    ldr.shiftType = ShiftType::LSL;
    ldr.shiftAmount = 2;
    ldr.memAdd = false;
    b.emit(ldr); // loads tab[2] == 30
    b.swi(SWI_EMIT_WORD);
    b.exit();
    Program prog = b.finish();

    RunResult fits_rr;
    RunResult arm_rr = runArmAndFits(prog, SynthParams{}, &fits_rr);
    EXPECT_EQ(arm_rr.io.emitted.at(0), 30u);
    EXPECT_EQ(fits_rr.io.emitted.at(0), 30u);
}

TEST(SynthEdge, ShiftByRegisterForms)
{
    ProgramBuilder b("shiftreg");
    b.movi(R0, 0x1234);
    b.movi(R1, 4);
    b.lslr(R2, R0, R1);             // mov-class shift by register
    b.aluShiftReg(AluOp::ADD, R3, R2, R0, ShiftType::LSR, R1);
    b.eor(R0, R2, R3);
    b.swi(SWI_EMIT_WORD);
    b.exit();
    Program prog = b.finish();

    RunResult fits_rr;
    RunResult arm_rr = runArmAndFits(prog, SynthParams{}, &fits_rr);
    EXPECT_EQ(arm_rr.io.emitted, fits_rr.io.emitted);
}

TEST(SynthEdge, LongMultipliesViaBakedPairs)
{
    ProgramBuilder b("longmul");
    // Use >8 registers so 4-bit fields force destination baking.
    for (uint8_t reg = R0; reg <= R9; ++reg)
        b.movi(reg, 0x1000u + reg);
    b.umull(R4, R5, R6, R7);
    b.smull(R8, R9, R6, R7);
    b.eor(R0, R4, R5);
    b.eor(R0, R0, R8);
    b.eor(R0, R0, R9);
    b.swi(SWI_EMIT_WORD);
    b.exit();
    Program prog = b.finish();

    RunResult fits_rr;
    RunResult arm_rr = runArmAndFits(prog, SynthParams{}, &fits_rr);
    EXPECT_EQ(arm_rr.io.emitted, fits_rr.io.emitted);
}

TEST(FigureConsistency, TablesAgreeWithRawResults)
{
    Runner runner;
    const BenchResult &crc = runner.get("crc32");

    Table t3 = fig3StaticMapping(runner);
    // Find crc32's row and compare against the raw mapping stat.
    bool found = false;
    for (const auto &row : t3.body()) {
        if (row[0] == "crc32") {
            EXPECT_NEAR(std::stod(row[1]),
                        100.0 * crc.mapping.staticRate(), 0.05);
            found = true;
        }
    }
    EXPECT_TRUE(found);

    Table t13 = fig13MissRate(runner);
    for (const auto &row : t13.body()) {
        if (row[0] == "crc32") {
            EXPECT_NEAR(
                std::stod(row[1]),
                crc.of(ConfigId::ARM16).run.icache.missesPerMillion(),
                0.1);
        }
    }
}

TEST(FigureConsistency, RunnerMemoizes)
{
    Runner runner;
    const BenchResult &a = runner.get("gsm");
    const BenchResult &b = runner.get("gsm");
    EXPECT_EQ(&a, &b); // same object, not a re-simulation
}

TEST(FigureConsistency, SavingsAreEnergyRatios)
{
    Runner runner;
    const BenchResult &bench = runner.get("qsort");
    using C = CachePowerBreakdown::Component;
    double manual = 1.0 - bench.of(ConfigId::FITS8).icache.totalJ() /
                              bench.of(ConfigId::ARM16).icache.totalJ();
    EXPECT_DOUBLE_EQ(bench.saving(ConfigId::FITS8, C::TOTAL), manual);
}

// --- directed regressions for the verification-harness bugfixes ----------

/** Records every IssueEvent of one run. */
struct IssueCollector final : public SimObserver
{
    std::vector<IssueEvent> issues;
    void onIssue(const IssueEvent &e) override { issues.push_back(e); }

    uint64_t
    cycleOf(uint64_t index) const
    {
        for (const IssueEvent &e : issues)
            if (e.index == index)
                return e.cycle;
        ADD_FAILURE() << "no issue event for index " << index;
        return 0;
    }
};

TEST(ScoreboardRegression, MulsDeliversFlagsWithResult)
{
    // MULS has extraLatency 2, so its result — and, for an S-form, the
    // NZCV flags — is ready at issue + 3. The scoreboard used to mark
    // the flags ready at issue + 1, letting a dependent conditional
    // issue two cycles early.
    ProgramBuilder b("mulsflags");
    b.movi(R1, 7);
    b.movi(R2, 9);
    size_t muls_index = b.size();
    b.mul(R3, R1, R2, Cond::AL, /*s=*/true);
    size_t cond_index = b.size();
    b.addi(R4, R4, 1, Cond::NE); // consumes only the MULS flags
    b.exit();
    Program prog = b.finish();

    ArmFrontEnd arm(prog);
    CoreConfig core;
    Machine machine(arm, core);
    IssueCollector collector;
    TimingInvariantChecker checker(core);
    ObserverList observers;
    observers.add(&collector);
    observers.add(&checker);
    RunResult rr = machine.run(nullptr, &observers);

    ASSERT_EQ(rr.outcome, RunOutcome::Completed);
    EXPECT_EQ(rr.finalState.regs[R3], 63u);
    EXPECT_EQ(rr.finalState.regs[R4], 1u); // 63 != 0 → NE executes
    EXPECT_TRUE(checker.ok()) << checker.summary();

    uint64_t muls_cycle = collector.cycleOf(muls_index);
    uint64_t cond_cycle = collector.cycleOf(cond_index);
    EXPECT_GE(cond_cycle, muls_cycle + 3)
        << "conditional consumed NZCV before the MULS produced it";
}

TEST(ExecutorRegression, StmBaseInListStoresOriginalBase)
{
    // STMDB with the base register in the register list must store the
    // *original* base value and suppress writeback. The executor used
    // to write the decremented base back unconditionally.
    ProgramBuilder b("stmbase");
    b.zeros("buf", 64);
    b.lea(R1, "buf");
    b.addi(R1, R1, 32);
    b.movi(R0, 0x11111111u);
    b.movi(R2, 0x22222222u);
    MicroOp stm;
    stm.op = Op::STM;
    stm.rn = R1;
    stm.regList = regMask({R0, R1, R2});
    stm.ldmIsPop = false;
    setQuiet(true); // the builder warns about base-in-list STM
    b.emit(stm);
    setQuiet(false);
    b.exit();
    Program prog = b.finish();
    uint32_t base = prog.symbol("buf") + 32;

    ArmFrontEnd arm(prog);
    Machine machine(arm, CoreConfig{});
    RunResult rr = machine.run();
    ASSERT_EQ(rr.outcome, RunOutcome::Completed);

    // Decrement-before block {r0, r1, r2}: ascending at base-12..base-4.
    EXPECT_EQ(machine.mem().read32(base - 12), 0x11111111u);
    EXPECT_EQ(machine.mem().read32(base - 8), base); // original base
    EXPECT_EQ(machine.mem().read32(base - 4), 0x22222222u);
    EXPECT_EQ(rr.finalState.regs[R1], base); // writeback suppressed

    // The golden model implements the same contract independently.
    GoldenInterpreter golden(arm);
    GoldenResult g = golden.run();
    ASSERT_EQ(g.outcome, RunOutcome::Completed);
    EXPECT_EQ(g.finalState.regs[R1], base);
    EXPECT_EQ(golden.mem().read32(base - 8), base);
}

TEST(ExecutorRegression, LdmBaseInListLoadedValueWins)
{
    ProgramBuilder b("ldmbase");
    b.words("buf", {10, 20, 30});
    b.lea(R1, "buf");
    MicroOp ldm;
    ldm.op = Op::LDM;
    ldm.rn = R1;
    ldm.regList = regMask({R0, R1, R2});
    ldm.ldmIsPop = false;
    b.emit(ldm);
    b.exit();
    Program prog = b.finish();

    ArmFrontEnd arm(prog);
    RunResult rr = Machine(arm, CoreConfig{}).run();
    ASSERT_EQ(rr.outcome, RunOutcome::Completed);
    EXPECT_EQ(rr.finalState.regs[R0], 10u);
    EXPECT_EQ(rr.finalState.regs[R1], 20u); // loaded value, not base+12
    EXPECT_EQ(rr.finalState.regs[R2], 30u);

    GoldenResult g = GoldenInterpreter(arm).run();
    ASSERT_EQ(g.outcome, RunOutcome::Completed);
    EXPECT_EQ(g.finalState.regs[R1], 20u);
}

/**
 * Run @p prog on the interpreter oracle and on the engine with @p core
 * and require the complete observable surface to match — every
 * RunResult row (architectural state, counters, cache statistics,
 * outcome, trap text) and the memory image. Directed regressions for
 * divergences the differential harness caught while the engine grew
 * its batched dispatch paths.
 */
void
expectFastMatchesInterp(const Program &prog, CoreConfig core,
                        const FaultParams *faults = nullptr)
{
    ArmFrontEnd fe(prog);
    Machine oracle(fe, core, makeOracleTile);
    Machine engine(fe, core);
    RunResult res[2];
    Machine *machines[2] = {&oracle, &engine};
    for (int i = 0; i < 2; ++i) {
        if (faults != nullptr) {
            FaultPlan plan(*faults);
            res[i] = machines[i]->run(&plan);
        } else {
            res[i] = machines[i]->run();
        }
    }
    std::vector<std::string> diffs;
    diffFields("oracle vs engine", res[0], res[1], diffs);
    EXPECT_TRUE(diffs.empty()) << diffs.front();
    EXPECT_EQ(oracle.mem().firstDifference(engine.mem()), std::nullopt);
}

TEST(FastBackendRegression, TrapInsideStraightLineRunMatchesInterp)
{
    // A misaligned load buried in the middle of a straight-line block:
    // memory ops do not terminate a dispatch run, so the trap unwinds
    // out of a batch whose counters were accounted ahead of time. The
    // reconciliation must charge the trapping op's fetch but not its
    // instruction, and ops behind it fully — exactly as the
    // interpreter does.
    ProgramBuilder b("midruntrap");
    b.movi(R1, 0x101); // non-word-aligned address
    for (int i = 0; i < 6; ++i)
        b.addi(R2, R2, 1);
    b.ldr(R0, R1, 0); // traps mid-run
    for (int i = 0; i < 6; ++i)
        b.addi(R3, R3, 1); // never reached
    b.exit();
    expectFastMatchesInterp(b.finish(), CoreConfig{});
}

TEST(FastBackendRegression, WatchdogExpiryMidRunMatchesInterp)
{
    // The instruction cap lands in the middle of a straight-line
    // block: the batch span must clamp so the watchdog expires at
    // exactly the same dynamic instruction as the interpreter's
    // per-op check, with identical partial statistics.
    ProgramBuilder b("midrunwatchdog");
    for (int i = 0; i < 40; ++i)
        b.addi(R2, R2, 1);
    b.exit();
    Program prog = b.finish();
    CoreConfig core;
    core.maxInstructions = 17;
    expectFastMatchesInterp(prog, core);
}

TEST(FastBackendRegression, ParityFaultAccountingMatchesInterp)
{
    // I-cache fault injection with parity: every injection, detection
    // and refetch must land on the same dynamic instruction on the
    // engine and the oracle (the engine once ran its fault accounting
    // behind a different null-plan guard than the interpreter's).
    ProgramBuilder b("parityfault");
    b.movi(R0, 200);
    Label loop = b.here();
    for (int i = 0; i < 8; ++i)
        b.addi(R2, R2, 3);
    b.subi(R0, R0, 1, Cond::AL, true);
    b.b(loop, Cond::NE);
    b.exit();
    Program prog = b.finish();

    CoreConfig core;
    core.icache.parity = true;
    FaultParams fp;
    fp.seed = 0xc0ffee;
    fp.icacheMeanInterval = 40;
    expectFastMatchesInterp(prog, core, &fp);

    core.icache.parity = false;
    fp.memoryMeanInterval = 90;
    expectFastMatchesInterp(prog, core, &fp);
}

TEST(FastBackendRegression, UnpackedSubWordStreamCountsEveryFetch)
{
    // A 16-bit FITS stream WITHOUT the packed-fetch buffer: every
    // fetch touches the I-cache even when consecutive 2-byte
    // encodings share a 32-bit word. The fast loop's batched
    // precompute once counted word transitions unconditionally and so
    // undercounted reads on exactly this configuration — and only on
    // the observer-free path, which is why it must run bare here.
    ProgramBuilder b("unpackedfits");
    b.movi(R0, 50);
    Label loop = b.here();
    for (int i = 0; i < 12; ++i)
        b.addi(R2, R2, 1);
    b.subi(R0, R0, 1, Cond::AL, true);
    b.b(loop, Cond::NE);
    b.exit();
    Program prog = b.finish();

    ProfileInfo profile = profileProgram(prog);
    FitsIsa isa = synthesize(profile, SynthParams{}, prog.name);
    FitsProgram fits = translateProgram(prog, isa, profile);

    RunResult res[2];
    for (int i = 0; i < 2; ++i) {
        CoreConfig core; // packedFetch stays false
        FitsFrontEnd fe(fits);
        res[i] = Machine(fe, core,
                         i == 0 ? TileFactory{makeOracleTile}
                                : TileFactory{})
                     .run();
        ASSERT_EQ(res[i].outcome, RunOutcome::Completed);
    }
    EXPECT_EQ(res[0].icache.reads, res[1].icache.reads);
    EXPECT_EQ(res[0].icache.readMisses, res[1].icache.readMisses);
    EXPECT_EQ(res[0].fetchToggleBits, res[1].fetchToggleBits);
    EXPECT_EQ(res[0].fetchBitsTotal, res[1].fetchBitsTotal);
    EXPECT_EQ(res[0].cycles, res[1].cycles);
    EXPECT_EQ(res[0].instructions, res[1].instructions);
    // Without the buffer the read count is the fetch count: far more
    // reads than 32-bit words in the stream.
    EXPECT_EQ(res[0].icache.reads, res[0].instructions);
}

TEST(UnpredictableRegression, LongMulEqualDestsRejectedEverywhere)
{
    // UMULL/SMULL with rdLo == rdHi is UNPREDICTABLE: the builder and
    // the assembler reject it statically, and the executor traps when
    // a hand-built stream smuggles one through anyway.
    ProgramBuilder b("badumull");
    EXPECT_THROW(b.umull(R3, R3, R1, R2), FatalError);
    ProgramBuilder b2("badsmull");
    EXPECT_THROW(b2.smull(R5, R5, R1, R2), FatalError);

    EXPECT_THROW(assemble("badsrc", "umull r3, r3, r1, r2\n"),
                 FatalError);
    EXPECT_THROW(assemble("badsrc2", "smull r6, r6, r0, r2\n"),
                 FatalError);

    MicroOp uop;
    uop.op = Op::UMULL;
    uop.rd = R3; // rdHi
    uop.ra = R3; // rdLo
    uop.rm = R1;
    uop.rs = R2;
    CpuState state;
    Memory mem;
    IoSinks io;
    ExecInfo info;
    AddrCodec codec;
    EXPECT_THROW(execute(uop, 0, codec, state, mem, io, info),
                 TrapError);
}

} // namespace
} // namespace pfits
