/** @file The strongest property test in the suite: random programs
 *  through the complete pipeline. Each generated program runs on the
 *  fixed ARM decoder and, after profile/synthesize/translate, on the
 *  programmable FITS decoder; every architectural register and all
 *  emitted output must match. Also checks the RunResult derived
 *  metrics (ipc, seconds). */

#include <gtest/gtest.h>

#include "assembler/builder.hh"
#include "common/rng.hh"
#include "fits/fits_frontend.hh"
#include "fits/profile.hh"
#include "fits/synth.hh"
#include "fits/translate.hh"
#include "sim/machine.hh"

namespace pfits
{
namespace
{

/**
 * Generate a random but well-formed program: a counted loop whose body
 * is a random mix of ALU ops (immediate/register/shifted forms, some
 * conditional), memory traffic into a scratch buffer, and multiplies.
 * Registers r0-r10 are fair game; r12 stays free by convention.
 */
Program
randomProgram(uint64_t seed)
{
    Rng rng(seed);
    ProgramBuilder b("random" + std::to_string(seed));
    b.zeros("buf", 256);
    b.zeros("result", 4);

    // r0-r8 only: r9 is the buffer base and r10 the loop counter.
    auto reg = [&]() { return static_cast<uint8_t>(rng.below(9)); };

    b.lea(R9, "buf");
    for (uint8_t r = R0; r <= R8; ++r)
        b.movi(r, rng.next() & 0xffff);
    b.movi(R10, 40 + rng.below(60)); // loop counter

    Label loop = b.here();
    unsigned body = 6 + rng.below(20);
    for (unsigned i = 0; i < body; ++i) {
        // Conditions must be used carefully: only ops that cannot
        // disturb the loop counter (r10) or the base (r9).
        uint8_t rd = reg();
        uint8_t rn = reg();
        uint8_t rm = reg();
        Cond cond = rng.below(4) == 0
                        ? static_cast<Cond>(rng.below(14))
                        : Cond::AL;
        switch (rng.below(10)) {
          case 0:
            b.alu(AluOp::ADD, rd, rn, rm, cond, rng.below(2));
            break;
          case 1:
            b.alu(AluOp::SUB, rd, rn, rm, cond, rng.below(2));
            break;
          case 2:
            b.alu(static_cast<AluOp>(rng.below(2) ? AluOp::EOR
                                                  : AluOp::ORR),
                  rd, rn, rm, cond);
            break;
          case 3:
            b.aluShift(AluOp::ADD, rd, rn, rm,
                       static_cast<ShiftType>(rng.below(4)),
                       static_cast<uint8_t>(rng.below(31)), cond);
            break;
          case 4:
            b.alui(AluOp::ADD, rd, rn, rng.below(256), cond);
            break;
          case 5:
            b.alui(AluOp::AND, rd, rn, 0xff, cond);
            break;
          case 6: {
            // Bounded store + load through the scratch buffer.
            uint8_t val = reg();
            int32_t disp = static_cast<int32_t>(rng.below(32)) * 4;
            b.str(val, R9, disp, cond);
            b.ldr(rd, R9, disp, cond);
            break;
          }
          case 7:
            b.mul(rd, rn, rm, cond);
            break;
          case 8:
            b.cmp(rn, rm);
            break;
          default:
            b.aluShiftReg(AluOp::EOR, rd, rn, rm, ShiftType::LSR,
                          /*rs=*/static_cast<uint8_t>(rng.below(9)),
                          cond);
            break;
        }
    }
    b.subi(R10, R10, 1, Cond::AL, true);
    b.b(loop, Cond::NE);

    // Fold every register into one observable word.
    b.movi(R11, 0);
    for (uint8_t r = R0; r <= R8; ++r)
        b.eor(R11, R11, r);
    b.mov(R0, R11);
    b.lea(R1, "result");
    b.str(R0, R1, 0);
    b.swi(SWI_EMIT_WORD);
    b.exit();
    return b.finish();
}

class RandomProgramTest : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(RandomProgramTest, FitsMatchesArmEverywhere)
{
    Program prog = randomProgram(GetParam());

    ArmFrontEnd arm(prog);
    RunResult ra = Machine(arm, CoreConfig{}).run();

    ProfileInfo profile = profileProgram(prog);
    // Alternate between default and deliberately starved synthesis so
    // both the 1:1 and the expansion paths get fuzzed.
    SynthParams sp;
    if (GetParam() % 3 == 1) {
        sp.maxSlots = 8;
        sp.opDictCapacity = 4;
    } else if (GetParam() % 3 == 2) {
        sp.forceWideRegFields = true;
        sp.enableFusedShifts = false;
    }
    FitsIsa isa = synthesize(profile, sp, prog.name);
    FitsProgram fits_prog = translateProgram(prog, isa, profile);
    FitsFrontEnd fits(std::move(fits_prog));
    RunResult rf = Machine(fits, CoreConfig{}).run();

    EXPECT_EQ(ra.io.emitted, rf.io.emitted);
    for (unsigned reg = 0; reg < NUM_REGS; ++reg) {
        if (reg == R12 || reg == LR)
            continue; // synthesis scratch / return addresses differ
        EXPECT_EQ(ra.finalState.regs[reg], rf.finalState.regs[reg])
            << "seed " << GetParam() << " r" << reg;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomProgramTest,
                         ::testing::Range<uint64_t>(1, 25));

TEST(RunStats, SurfaceExposesRunMetrics)
{
    Program prog = randomProgram(99);
    ArmFrontEnd arm(prog);
    RunResult rr = Machine(arm, CoreConfig{}).run();

    ASSERT_EQ(rr.outcome, RunOutcome::Completed);
    EXPECT_GT(rr.instructions, 0u);
    EXPECT_GT(rr.cycles, 0u);
    EXPECT_NEAR(rr.ipc(),
                static_cast<double>(rr.instructions) / rr.cycles, 1e-12);
    EXPECT_GE(rr.icache.accesses(), rr.icache.misses());
    EXPECT_GT(rr.icache.accesses(), 0u);
    EXPECT_GT(rr.seconds(), 0.0);
}

} // namespace
} // namespace pfits
