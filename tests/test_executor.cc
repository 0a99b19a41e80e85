/** @file Semantics tests for the micro-op executor (the datapath). */

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "common/logging.hh"
#include "mibench/mibench.hh"
#include "sim/executor.hh"
#include "verify/randprog.hh"

namespace pfits
{
namespace
{

struct ExecFixture : public ::testing::Test
{
    CpuState state;
    Memory mem;
    IoSinks io;
    AddrCodec codec{0x8000, 2};
    ExecInfo info;

    void
    run(const MicroOp &uop, uint64_t index = 0)
    {
        execute(uop, index, codec, state, mem, io, info);
    }

    MicroOp
    alu(Op op, uint8_t rd, uint8_t rn, uint32_t imm, bool s = false)
    {
        MicroOp uop;
        uop.op = op;
        uop.rd = rd;
        uop.rn = rn;
        uop.op2Kind = Operand2Kind::IMM;
        uop.imm = imm;
        uop.setsFlags = s;
        return uop;
    }
};

TEST_F(ExecFixture, AddSubFlagSemantics)
{
    state.regs[R1] = 0xffffffffu;
    run(alu(Op::ADD, R0, R1, 1, true));
    EXPECT_EQ(state.regs[R0], 0u);
    EXPECT_TRUE(state.flags.z);
    EXPECT_TRUE(state.flags.c);  // unsigned carry out
    EXPECT_FALSE(state.flags.v);

    state.regs[R1] = 0x7fffffffu;
    run(alu(Op::ADD, R0, R1, 1, true));
    EXPECT_TRUE(state.flags.v); // signed overflow
    EXPECT_TRUE(state.flags.n);

    state.regs[R1] = 5;
    run(alu(Op::SUB, R0, R1, 3, true));
    EXPECT_EQ(state.regs[R0], 2u);
    EXPECT_TRUE(state.flags.c); // no borrow
    run(alu(Op::SUB, R0, R1, 9, true));
    EXPECT_FALSE(state.flags.c); // borrow
    EXPECT_TRUE(state.flags.n);
}

TEST_F(ExecFixture, AdcSbcUseCarry)
{
    state.regs[R1] = 10;
    state.flags.c = true;
    run(alu(Op::ADC, R0, R1, 5));
    EXPECT_EQ(state.regs[R0], 16u);
    state.flags.c = false;
    run(alu(Op::ADC, R0, R1, 5));
    EXPECT_EQ(state.regs[R0], 15u);

    state.flags.c = true; // no borrow pending
    run(alu(Op::SBC, R0, R1, 3));
    EXPECT_EQ(state.regs[R0], 7u);
    state.flags.c = false;
    run(alu(Op::SBC, R0, R1, 3));
    EXPECT_EQ(state.regs[R0], 6u);
}

TEST_F(ExecFixture, RsbReverses)
{
    state.regs[R1] = 3;
    run(alu(Op::RSB, R0, R1, 10));
    EXPECT_EQ(state.regs[R0], 7u);
}

TEST_F(ExecFixture, LogicalOpsPreserveCarry)
{
    state.flags.c = true;
    state.flags.v = true;
    state.regs[R1] = 0xf0;
    run(alu(Op::AND, R0, R1, 0x0f, true));
    EXPECT_EQ(state.regs[R0], 0u);
    EXPECT_TRUE(state.flags.z);
    EXPECT_TRUE(state.flags.c); // preserved (uARM simplification)
    EXPECT_TRUE(state.flags.v);

    run(alu(Op::ORR, R0, R1, 0x0f));
    EXPECT_EQ(state.regs[R0], 0xffu);
    run(alu(Op::EOR, R0, R1, 0xff));
    EXPECT_EQ(state.regs[R0], 0x0fu);
    run(alu(Op::BIC, R0, R1, 0x30));
    EXPECT_EQ(state.regs[R0], 0xc0u);
    run(alu(Op::MVN, R0, 0, 0));
    EXPECT_EQ(state.regs[R0], 0xffffffffu);
}

TEST_F(ExecFixture, ComparesSetFlagsOnly)
{
    state.regs[R0] = 0xdead;
    state.regs[R1] = 7;
    MicroOp cmp = alu(Op::CMP, R0, R1, 7, true);
    run(cmp);
    EXPECT_TRUE(state.flags.z);
    EXPECT_EQ(state.regs[R0], 0xdeadu); // rd untouched

    MicroOp tst = alu(Op::TST, R0, R1, 8, true);
    run(tst);
    EXPECT_TRUE(state.flags.z);
    run(alu(Op::CMN, R0, R1, 0xfffffff9u, true)); // 7 + (-7)
    EXPECT_TRUE(state.flags.z);
}

TEST_F(ExecFixture, ShifterForms)
{
    state.regs[R1] = 0x80000001u;
    state.regs[R2] = 4;

    MicroOp uop;
    uop.op = Op::MOV;
    uop.rd = R0;
    uop.rm = R1;
    uop.op2Kind = Operand2Kind::REG_SHIFT_IMM;
    uop.shiftType = ShiftType::LSR;
    uop.shiftAmount = 1;
    run(uop);
    EXPECT_EQ(state.regs[R0], 0x40000000u);

    uop.shiftType = ShiftType::ASR;
    run(uop);
    EXPECT_EQ(state.regs[R0], 0xc0000000u);

    uop.shiftType = ShiftType::ROR;
    run(uop);
    EXPECT_EQ(state.regs[R0], 0xc0000000u);

    uop.op2Kind = Operand2Kind::REG_SHIFT_REG;
    uop.shiftType = ShiftType::LSL;
    uop.rs = R2;
    run(uop);
    EXPECT_EQ(state.regs[R0], 0x10u);

    // Shift by >= 32 via register.
    state.regs[R2] = 32;
    run(uop);
    EXPECT_EQ(state.regs[R0], 0u);
    uop.shiftType = ShiftType::ASR;
    run(uop);
    EXPECT_EQ(state.regs[R0], 0xffffffffu); // sign fill
}

TEST_F(ExecFixture, MultiplyFamily)
{
    state.regs[R1] = 7;
    state.regs[R2] = 6;
    state.regs[R3] = 100;

    MicroOp mul;
    mul.op = Op::MUL;
    mul.rd = R0;
    mul.rm = R1;
    mul.rs = R2;
    run(mul);
    EXPECT_EQ(state.regs[R0], 42u);
    EXPECT_GT(info.extraLatency, 0u);

    MicroOp mla = mul;
    mla.op = Op::MLA;
    mla.ra = R3;
    run(mla);
    EXPECT_EQ(state.regs[R0], 142u);

    MicroOp umull;
    umull.op = Op::UMULL;
    umull.ra = R4; // lo
    umull.rd = R5; // hi
    umull.rm = R1;
    umull.rs = R2;
    state.regs[R1] = 0xffffffffu;
    state.regs[R2] = 2;
    run(umull);
    EXPECT_EQ(state.regs[R4], 0xfffffffeu);
    EXPECT_EQ(state.regs[R5], 1u);

    MicroOp smull = umull;
    smull.op = Op::SMULL;
    state.regs[R1] = static_cast<uint32_t>(-3);
    state.regs[R2] = 4;
    run(smull);
    EXPECT_EQ(state.regs[R4], static_cast<uint32_t>(-12));
    EXPECT_EQ(state.regs[R5], 0xffffffffu);
}

TEST_F(ExecFixture, DivideAndSaturate)
{
    state.regs[R1] = static_cast<uint32_t>(-7);
    state.regs[R2] = 2;
    MicroOp sdiv;
    sdiv.op = Op::SDIV;
    sdiv.rd = R0;
    sdiv.rn = R1;
    sdiv.rm = R2;
    run(sdiv);
    EXPECT_EQ(state.regs[R0], static_cast<uint32_t>(-3)); // truncation

    state.regs[R2] = 0;
    run(sdiv);
    EXPECT_EQ(state.regs[R0], 0u); // divide by zero yields 0

    MicroOp udiv = sdiv;
    udiv.op = Op::UDIV;
    state.regs[R1] = 7;
    state.regs[R2] = 2;
    run(udiv);
    EXPECT_EQ(state.regs[R0], 3u);

    MicroOp qadd;
    qadd.op = Op::QADD;
    qadd.rd = R0;
    qadd.rn = R1;
    qadd.rm = R2;
    state.regs[R1] = 0x7fffffffu;
    state.regs[R2] = 10;
    run(qadd);
    EXPECT_EQ(state.regs[R0], 0x7fffffffu); // saturated

    MicroOp qsub = qadd;
    qsub.op = Op::QSUB;
    state.regs[R1] = 0x80000000u;
    run(qsub);
    EXPECT_EQ(state.regs[R0], 0x80000000u); // saturated low
}

TEST_F(ExecFixture, ClzCountsLeadingZeros)
{
    MicroOp clz;
    clz.op = Op::CLZ;
    clz.rd = R0;
    clz.rm = R1;
    state.regs[R1] = 0;
    run(clz);
    EXPECT_EQ(state.regs[R0], 32u);
    state.regs[R1] = 1;
    run(clz);
    EXPECT_EQ(state.regs[R0], 31u);
    state.regs[R1] = 0x80000000u;
    run(clz);
    EXPECT_EQ(state.regs[R0], 0u);
}

TEST_F(ExecFixture, MovwMovtCompose)
{
    MicroOp movw;
    movw.op = Op::MOVW;
    movw.rd = R0;
    movw.imm = 0x5678;
    run(movw);
    MicroOp movt = movw;
    movt.op = Op::MOVT;
    movt.imm = 0x1234;
    run(movt);
    EXPECT_EQ(state.regs[R0], 0x12345678u);
}

TEST_F(ExecFixture, LoadsAndStores)
{
    mem.write32(0x1000, 0xcafebabe);
    state.regs[R1] = 0x1000;

    MicroOp ldr;
    ldr.op = Op::LDR;
    ldr.rd = R0;
    ldr.rn = R1;
    ldr.memKind = MemOffsetKind::IMM;
    run(ldr);
    EXPECT_EQ(state.regs[R0], 0xcafebabeu);
    EXPECT_EQ(info.numMem, 1u);
    EXPECT_EQ(info.mem[0].addr, 0x1000u);
    EXPECT_FALSE(info.mem[0].write);

    MicroOp ldrb = ldr;
    ldrb.op = Op::LDRB;
    ldrb.memDisp = 1;
    run(ldrb);
    EXPECT_EQ(state.regs[R0], 0xbau);

    MicroOp ldrsb = ldr;
    ldrsb.op = Op::LDRSB;
    ldrsb.memDisp = 3;
    run(ldrsb);
    EXPECT_EQ(state.regs[R0], 0xffffffcau);

    MicroOp ldrsh = ldr;
    ldrsh.op = Op::LDRSH;
    ldrsh.memDisp = 2;
    run(ldrsh);
    EXPECT_EQ(state.regs[R0], 0xffffcafeu);

    state.regs[R2] = 0x11;
    MicroOp strb;
    strb.op = Op::STRB;
    strb.rd = R2;
    strb.rn = R1;
    strb.memKind = MemOffsetKind::IMM;
    strb.memDisp = 4;
    run(strb);
    EXPECT_EQ(mem.read8(0x1004), 0x11u);

    // Register offset with shift.
    state.regs[R3] = 4;
    MicroOp ldr_reg;
    ldr_reg.op = Op::LDR;
    ldr_reg.rd = R0;
    ldr_reg.rn = R1;
    ldr_reg.rm = R3;
    ldr_reg.memKind = MemOffsetKind::REG_SHIFT_IMM;
    ldr_reg.shiftType = ShiftType::LSL;
    ldr_reg.shiftAmount = 2;
    ldr_reg.memAdd = true;
    mem.write32(0x1010, 77);
    run(ldr_reg);
    EXPECT_EQ(state.regs[R0], 77u);
}

TEST_F(ExecFixture, PushPopRoundTrip)
{
    state.regs[SP] = 0x2000;
    state.regs[R4] = 44;
    state.regs[R5] = 55;
    state.regs[LR] = 0x8004;

    MicroOp push;
    push.op = Op::STM;
    push.rn = SP;
    push.regList = (1u << R4) | (1u << R5) | (1u << LR);
    run(push);
    EXPECT_EQ(state.regs[SP], 0x2000u - 12);
    EXPECT_EQ(info.numMem, 3u);

    state.regs[R4] = state.regs[R5] = state.regs[LR] = 0;
    MicroOp pop;
    pop.op = Op::LDM;
    pop.rn = SP;
    pop.regList = push.regList;
    run(pop);
    EXPECT_EQ(state.regs[R4], 44u);
    EXPECT_EQ(state.regs[R5], 55u);
    EXPECT_EQ(state.regs[LR], 0x8004u);
    EXPECT_EQ(state.regs[SP], 0x2000u);
}

TEST_F(ExecFixture, BranchesAndCalls)
{
    MicroOp b;
    b.op = Op::B;
    b.branchOffset = -3;
    run(b, 10);
    EXPECT_TRUE(info.branchTaken);
    EXPECT_EQ(info.nextIndex, 7u);

    MicroOp bl;
    bl.op = Op::BL;
    bl.branchOffset = 5;
    run(bl, 10);
    EXPECT_EQ(info.nextIndex, 15u);
    EXPECT_EQ(state.regs[LR], codec.addrOf(11));

    MicroOp ret;
    ret.op = Op::RET;
    run(ret, 20);
    EXPECT_EQ(info.nextIndex, 11u);

    state.regs[LR] = 0x8001; // unaligned
    EXPECT_THROW(run(ret, 20), FatalError);
}

TEST_F(ExecFixture, ConditionalAnnulment)
{
    state.flags.z = false;
    MicroOp uop = alu(Op::ADD, R0, R0, 1);
    uop.cond = Cond::EQ;
    state.regs[R0] = 5;
    run(uop);
    EXPECT_FALSE(info.executed);
    EXPECT_EQ(state.regs[R0], 5u);
    EXPECT_EQ(info.nextIndex, 1u);
}

TEST_F(ExecFixture, SwiSideEffects)
{
    MicroOp swi;
    swi.op = Op::SWI;
    swi.imm = SWI_PUTC;
    state.regs[R0] = 'h';
    run(swi);
    state.regs[R0] = 'i';
    run(swi);
    EXPECT_EQ(io.console, "hi");

    swi.imm = SWI_EMIT_WORD;
    state.regs[R0] = 0x1234;
    run(swi);
    ASSERT_EQ(io.emitted.size(), 1u);
    EXPECT_EQ(io.emitted[0], 0x1234u);

    swi.imm = SWI_EXIT;
    run(swi);
    EXPECT_TRUE(state.halted);

    swi.imm = 99;
    state.halted = false;
    EXPECT_THROW(run(swi), FatalError);
}

TEST_F(ExecFixture, MisalignedAccessFaults)
{
    state.regs[R1] = 0x1001;
    MicroOp ldr;
    ldr.op = Op::LDR;
    ldr.rd = R0;
    ldr.rn = R1;
    ldr.memKind = MemOffsetKind::IMM;
    EXPECT_THROW(run(ldr), FatalError);
}

TEST_F(ExecFixture, MemoryPagesAreZeroInitialized)
{
    EXPECT_EQ(mem.read32(0xdeadbe00u), 0u);
    mem.write16(0x4000, 0xabcd);
    EXPECT_EQ(mem.read16(0x4000), 0xabcdu);
    EXPECT_EQ(mem.read8(0x4001), 0xabu);
}

TEST(AddrCodec, IndexOfGuardsUnderflow)
{
    AddrCodec codec{0x8000, 2};
    EXPECT_EQ(codec.indexOf(0x8000), 0u);
    EXPECT_EQ(codec.indexOf(0x8008), 2u);
    // An address below the code base must come back as the sentinel,
    // not wrap to a huge index that masquerades as in-range.
    EXPECT_EQ(codec.indexOf(0x7ffc), AddrCodec::kBadIndex);
    EXPECT_EQ(codec.indexOf(0), AddrCodec::kBadIndex);

    AddrCodec fits{0x100, 1};
    EXPECT_EQ(fits.indexOf(0x102), 1u);
    EXPECT_EQ(fits.indexOf(0xff), AddrCodec::kBadIndex);
}

TEST_F(ExecFixture, RetBelowCodeBaseTraps)
{
    MicroOp uop;
    uop.op = Op::RET;
    uop.cond = Cond::AL;
    state.regs[LR] = codec.base - 4;
    EXPECT_THROW(run(uop), TrapError);
}

/**
 * Run @p prog for up to @p max_instrs instructions twice in lockstep:
 * once filling the ExecInfo with 0xA5 bytes before every execute(),
 * once handing it a freshly value-initialized one. execute() resets
 * only the scalar header, so any field it forgets to rewrite shows up
 * as a difference here.
 */
void
expectExecInfoFullyRewritten(const Program &prog, uint64_t max_instrs)
{
    struct Side
    {
        CpuState state;
        Memory mem;
        IoSinks io;
    };
    Side stale, fresh;
    for (Side *side : {&stale, &fresh}) {
        for (const DataSegment &seg : prog.data)
            side->mem.writeBytes(seg.base, seg.bytes);
        side->state.regs[SP] = prog.stackTop;
    }
    const std::vector<MicroOp> uops = prog.decodeAll();
    const AddrCodec codec{prog.codeBase, 2};
    uint64_t index = 0;
    for (uint64_t n = 0; n < max_instrs && !fresh.state.halted; ++n) {
        ASSERT_LT(index, uops.size()) << prog.name;
        const MicroOp &uop = uops[static_cast<size_t>(index)];
        ExecInfo a;
        std::memset(static_cast<void *>(&a), 0xA5, sizeof(a));
        ExecInfo b{};
        execute(uop, index, codec, stale.state, stale.mem, stale.io, a);
        execute(uop, index, codec, fresh.state, fresh.mem, fresh.io, b);

        SCOPED_TRACE(prog.name + " @" + std::to_string(index) + " " +
                     disassemble(uop));
        ASSERT_EQ(a.executed, b.executed);
        ASSERT_EQ(a.branch, b.branch);
        ASSERT_EQ(a.branchTaken, b.branchTaken);
        ASSERT_EQ(a.isLoad, b.isLoad);
        ASSERT_EQ(a.isStore, b.isStore);
        ASSERT_EQ(a.isMulDiv, b.isMulDiv);
        ASSERT_EQ(a.baseWriteback, b.baseWriteback);
        ASSERT_EQ(a.destReg, b.destReg);
        ASSERT_EQ(a.extraLatency, b.extraLatency);
        ASSERT_EQ(a.nextIndex, b.nextIndex);
        ASSERT_EQ(a.numMem, b.numMem);
        ASSERT_LE(b.numMem, ExecInfo::kMaxMem);
        for (unsigned m = 0; m < b.numMem; ++m) {
            ASSERT_EQ(a.mem[m].addr, b.mem[m].addr) << m;
            ASSERT_EQ(a.mem[m].write, b.mem[m].write) << m;
        }
        index = b.nextIndex;
    }
    for (unsigned r = 0; r < NUM_REGS; ++r)
        EXPECT_EQ(stale.state.regs[r], fresh.state.regs[r]) << r;
}

TEST(ExecInfoReset, StaleInfoNeverLeaksIntoMiBenchKernels)
{
    for (const mibench::BenchInfo &bench : mibench::suite())
        expectExecInfoFullyRewritten(bench.build().program, 100'000);
}

TEST(ExecInfoReset, StaleInfoNeverLeaksIntoRandomPrograms)
{
    for (uint64_t seed = 1; seed <= 64; ++seed)
        expectExecInfoFullyRewritten(randomVerifyProgram(seed), 100'000);
}

} // namespace
} // namespace pfits
