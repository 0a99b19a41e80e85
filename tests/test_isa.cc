/** @file Unit and property tests for the uARM ISA encode/decode layer. */

#include <gtest/gtest.h>

#include <iterator>
#include <set>

#include "common/rng.hh"
#include "common/logging.hh"
#include "isa/isa.hh"

namespace pfits
{
namespace
{

MicroOp
roundTrip(const MicroOp &uop)
{
    uint32_t word = 0;
    EXPECT_TRUE(encodeArm(uop, word)) << disassemble(uop);
    MicroOp back;
    EXPECT_TRUE(decodeArm(word, back)) << std::hex << word;
    return back;
}

TEST(Isa, CondNamesAndInverse)
{
    EXPECT_STREQ(condName(Cond::EQ), "eq");
    EXPECT_STREQ(condName(Cond::AL), "");
    EXPECT_EQ(invertCond(Cond::EQ), Cond::NE);
    EXPECT_EQ(invertCond(Cond::GT), Cond::LE);
    EXPECT_EQ(invertCond(Cond::CS), Cond::CC);
    EXPECT_EQ(invertCond(invertCond(Cond::HI)), Cond::HI);
    EXPECT_THROW(invertCond(Cond::AL), PanicError);
}

TEST(Isa, CondPassesTruthTable)
{
    Flags f;
    f.z = true;
    EXPECT_TRUE(condPasses(Cond::EQ, f));
    EXPECT_FALSE(condPasses(Cond::NE, f));
    EXPECT_TRUE(condPasses(Cond::LE, f));
    EXPECT_FALSE(condPasses(Cond::GT, f));

    f = Flags{};
    f.n = true;
    f.v = false;
    EXPECT_TRUE(condPasses(Cond::LT, f));
    EXPECT_FALSE(condPasses(Cond::GE, f));
    f.v = true;
    EXPECT_TRUE(condPasses(Cond::GE, f));

    f = Flags{};
    f.c = true;
    EXPECT_TRUE(condPasses(Cond::CS, f));
    EXPECT_TRUE(condPasses(Cond::HI, f));
    f.z = true;
    EXPECT_FALSE(condPasses(Cond::HI, f));
    EXPECT_TRUE(condPasses(Cond::LS, f));
    EXPECT_TRUE(condPasses(Cond::AL, Flags{}));

    // Exhaustively: bit (n<<3 | z<<2 | c<<1 | v) of each mask is the
    // ARM ARM outcome of the condition under those flags; AL passes
    // under all 16.
    const uint16_t reference[] = {
        0xf0f0, 0x0f0f, 0xcccc, 0x3333, // EQ NE CS CC
        0xff00, 0x00ff, 0xaaaa, 0x5555, // MI PL VS VC
        0x0c0c, 0xf3f3, 0xaa55, 0x55aa, // HI LS GE LT
        0x0a05, 0xf5fa, 0xffff,         // GT LE AL
    };
    static_assert(std::size(reference) ==
                  static_cast<size_t>(Cond::NUM));
    for (unsigned cond = 0; cond < std::size(reference); ++cond) {
        for (unsigned nzcv = 0; nzcv < 16; ++nzcv) {
            f = Flags{};
            f.n = (nzcv & 8u) != 0;
            f.z = (nzcv & 4u) != 0;
            f.c = (nzcv & 2u) != 0;
            f.v = (nzcv & 1u) != 0;
            EXPECT_EQ(condPasses(static_cast<Cond>(cond), f),
                      ((reference[cond] >> nzcv) & 1u) != 0)
                << condName(static_cast<Cond>(cond)) << " nzcv=" << nzcv;
        }
    }
    EXPECT_THROW(condPasses(Cond::NUM, Flags{}), PanicError);
}

TEST(Isa, OpClassesMatchDocumentedSets)
{
    const std::set<Op> loads = {Op::LDR, Op::LDRB, Op::LDRH,
                                Op::LDRSB, Op::LDRSH, Op::LDM};
    const std::set<Op> stores = {Op::STR, Op::STRB, Op::STRH, Op::STM};
    const std::set<Op> branches = {Op::B, Op::BL, Op::RET};
    const std::set<Op> muldiv = {Op::MUL, Op::MLA, Op::UMULL,
                                 Op::SMULL, Op::SDIV, Op::UDIV};
    const std::set<Op> alu = {
        Op::AND, Op::EOR, Op::SUB, Op::RSB, Op::ADD, Op::ADC,
        Op::SBC, Op::RSC, Op::TST, Op::TEQ, Op::CMP, Op::CMN,
        Op::ORR, Op::MOV, Op::BIC, Op::MVN,
    };
    for (unsigned i = 0; i < static_cast<unsigned>(Op::NUM); ++i) {
        const Op op = static_cast<Op>(i);
        SCOPED_TRACE(opName(op));
        EXPECT_EQ(isLoad(op), loads.count(op) == 1);
        EXPECT_EQ(isStore(op), stores.count(op) == 1);
        EXPECT_EQ(isMemOp(op), loads.count(op) + stores.count(op) == 1);
        EXPECT_EQ(isBranchOp(op), branches.count(op) == 1);
        EXPECT_EQ(isMulDivOp(op), muldiv.count(op) == 1);
        EXPECT_EQ(isAluLikeOp(op), alu.count(op) == 1);
    }
    // Bytes past Op::NUM (a corrupt micro-op) belong to no class.
    for (unsigned i = static_cast<unsigned>(Op::NUM); i < 256; ++i)
        EXPECT_EQ(opClass(static_cast<Op>(i)), 0u) << i;
}

TEST(Isa, DataProcRegRoundTrip)
{
    for (unsigned op = 0; op < static_cast<unsigned>(AluOp::NUM); ++op) {
        MicroOp uop;
        uop.op = static_cast<Op>(op);
        uop.cond = Cond::NE;
        uop.setsFlags = true;
        uop.rd = R3;
        uop.rn = R4;
        uop.rm = R5;
        uop.op2Kind = Operand2Kind::REG;
        MicroOp back = roundTrip(uop);
        EXPECT_EQ(back.op, uop.op);
        EXPECT_EQ(back.cond, Cond::NE);
        EXPECT_TRUE(back.setsFlags);
        EXPECT_EQ(back.rn, R4);
        EXPECT_EQ(back.rm, R5);
        EXPECT_EQ(back.op2Kind, Operand2Kind::REG);
    }
}

TEST(Isa, DataProcShiftedRoundTrip)
{
    for (unsigned t = 0; t < static_cast<unsigned>(ShiftType::NUM);
         ++t) {
        MicroOp uop;
        uop.op = Op::ADD;
        uop.rd = R0;
        uop.rn = R1;
        uop.rm = R2;
        uop.op2Kind = Operand2Kind::REG_SHIFT_IMM;
        uop.shiftType = static_cast<ShiftType>(t);
        uop.shiftAmount = 17;
        MicroOp back = roundTrip(uop);
        EXPECT_EQ(back.shiftType, uop.shiftType);
        EXPECT_EQ(back.shiftAmount, 17);
        EXPECT_EQ(back.op2Kind, Operand2Kind::REG_SHIFT_IMM);
    }
}

TEST(Isa, DataProcShiftRegRoundTrip)
{
    MicroOp uop;
    uop.op = Op::ORR;
    uop.rd = R7;
    uop.rn = R8;
    uop.rm = R9;
    uop.rs = R10;
    uop.op2Kind = Operand2Kind::REG_SHIFT_REG;
    uop.shiftType = ShiftType::ASR;
    MicroOp back = roundTrip(uop);
    EXPECT_EQ(back.rs, R10);
    EXPECT_EQ(back.op2Kind, Operand2Kind::REG_SHIFT_REG);
    EXPECT_EQ(back.shiftType, ShiftType::ASR);
}

TEST(Isa, ImmediateRoundTripAndRejection)
{
    MicroOp uop;
    uop.op = Op::ADD;
    uop.rd = R0;
    uop.rn = R1;
    uop.op2Kind = Operand2Kind::IMM;
    uop.imm = 0xff000000u;
    MicroOp back = roundTrip(uop);
    EXPECT_EQ(back.imm, 0xff000000u);

    uop.imm = 0x12345u; // not a rotated imm8
    uint32_t word;
    EXPECT_FALSE(encodeArm(uop, word));
}

TEST(Isa, MemoryRoundTrip)
{
    for (Op op : {Op::LDR, Op::STR, Op::LDRB, Op::STRB}) {
        MicroOp uop;
        uop.op = op;
        uop.rd = R2;
        uop.rn = SP;
        uop.memKind = MemOffsetKind::IMM;
        uop.memDisp = -44;
        uop.memAdd = false;
        MicroOp back = roundTrip(uop);
        EXPECT_EQ(back.op, op);
        EXPECT_EQ(back.memDisp, -44);
        EXPECT_EQ(back.rn, SP);
    }
}

TEST(Isa, MemoryRegisterOffsetRoundTrip)
{
    MicroOp uop;
    uop.op = Op::LDR;
    uop.rd = R1;
    uop.rn = R2;
    uop.rm = R3;
    uop.memKind = MemOffsetKind::REG_SHIFT_IMM;
    uop.shiftType = ShiftType::LSL;
    uop.shiftAmount = 2;
    uop.memAdd = true;
    MicroOp back = roundTrip(uop);
    EXPECT_EQ(back.memKind, MemOffsetKind::REG_SHIFT_IMM);
    EXPECT_EQ(back.shiftAmount, 2);
    EXPECT_EQ(back.rm, R3);
}

TEST(Isa, MemoryDisplacementRange)
{
    MicroOp uop;
    uop.op = Op::LDR;
    uop.rd = R0;
    uop.rn = R1;
    uop.memKind = MemOffsetKind::IMM;
    uop.memDisp = 4095;
    uint32_t word;
    EXPECT_TRUE(encodeArm(uop, word));
    uop.memDisp = 4096;
    EXPECT_FALSE(encodeArm(uop, word));
    uop.op = Op::LDRH;
    uop.memDisp = 127;
    EXPECT_TRUE(encodeArm(uop, word));
    uop.memDisp = 128;
    EXPECT_FALSE(encodeArm(uop, word));
}

TEST(Isa, HalfwordSignedRoundTrip)
{
    for (Op op : {Op::LDRH, Op::STRH, Op::LDRSB, Op::LDRSH}) {
        MicroOp uop;
        uop.op = op;
        uop.rd = R5;
        uop.rn = R6;
        uop.memKind = MemOffsetKind::IMM;
        uop.memDisp = -12;
        MicroOp back = roundTrip(uop);
        EXPECT_EQ(back.op, op);
        EXPECT_EQ(back.memDisp, -12);
    }
}

TEST(Isa, BlockTransferRoundTrip)
{
    MicroOp uop;
    uop.op = Op::STM;
    uop.rn = SP;
    uop.regList = 0x40f0; // r4-r7, lr
    MicroOp back = roundTrip(uop);
    EXPECT_EQ(back.op, Op::STM);
    EXPECT_EQ(back.regList, 0x40f0);
    EXPECT_EQ(back.rn, SP);

    uop.regList = 0;
    uint32_t word;
    EXPECT_FALSE(encodeArm(uop, word));
}

TEST(Isa, BranchRoundTrip)
{
    for (int32_t offset : {-1, 1, -100000, 100000, 0}) {
        MicroOp uop;
        uop.op = Op::B;
        uop.cond = Cond::LT;
        uop.branchOffset = offset;
        MicroOp back = roundTrip(uop);
        EXPECT_EQ(back.branchOffset, offset);
        EXPECT_EQ(back.cond, Cond::LT);
    }
    MicroOp bl;
    bl.op = Op::BL;
    bl.branchOffset = 42;
    EXPECT_EQ(roundTrip(bl).op, Op::BL);
}

TEST(Isa, ExtendedOpsRoundTrip)
{
    MicroOp mul;
    mul.op = Op::MUL;
    mul.rd = R1;
    mul.rm = R2;
    mul.rs = R3;
    EXPECT_EQ(roundTrip(mul).op, Op::MUL);

    MicroOp mla;
    mla.op = Op::MLA;
    mla.rd = R1;
    mla.rm = R2;
    mla.rs = R3;
    mla.ra = R4;
    MicroOp back = roundTrip(mla);
    EXPECT_EQ(back.ra, R4);

    MicroOp umull;
    umull.op = Op::UMULL;
    umull.rd = R5; // hi
    umull.ra = R6; // lo
    umull.rm = R7;
    umull.rs = R8;
    back = roundTrip(umull);
    EXPECT_EQ(back.rd, R5);
    EXPECT_EQ(back.ra, R6);

    MicroOp movw;
    movw.op = Op::MOVW;
    movw.rd = R9;
    movw.imm = 0xbeef;
    EXPECT_EQ(roundTrip(movw).imm, 0xbeefu);

    MicroOp clz;
    clz.op = Op::CLZ;
    clz.rd = R1;
    clz.rm = R2;
    EXPECT_EQ(roundTrip(clz).op, Op::CLZ);

    for (Op op : {Op::SDIV, Op::UDIV, Op::QADD, Op::QSUB}) {
        MicroOp tri;
        tri.op = op;
        tri.rd = R1;
        tri.rn = R2;
        tri.rm = R3;
        EXPECT_EQ(roundTrip(tri).op, op);
    }
}

TEST(Isa, SystemOpsRoundTrip)
{
    MicroOp swi;
    swi.op = Op::SWI;
    swi.imm = 2;
    EXPECT_EQ(roundTrip(swi).imm, 2u);

    MicroOp ret;
    ret.op = Op::RET;
    ret.cond = Cond::EQ;
    EXPECT_EQ(roundTrip(ret).cond, Cond::EQ);

    MicroOp nop;
    nop.op = Op::NOP;
    EXPECT_EQ(roundTrip(nop).op, Op::NOP);
}

TEST(Isa, DisassemblerSmoke)
{
    MicroOp uop;
    uop.op = Op::ADD;
    uop.rd = R0;
    uop.rn = R1;
    uop.rm = R2;
    uop.op2Kind = Operand2Kind::REG;
    uop.cond = Cond::EQ;
    EXPECT_EQ(disassemble(uop), "addeq r0, r1, r2");

    uop.op2Kind = Operand2Kind::REG_SHIFT_IMM;
    uop.shiftType = ShiftType::LSL;
    uop.shiftAmount = 2;
    EXPECT_EQ(disassemble(uop), "addeq r0, r1, r2, lsl #2");
}

TEST(Isa, ReadsWritesRegisters)
{
    MicroOp uop;
    uop.op = Op::ADD;
    uop.rd = R0;
    uop.rn = R1;
    uop.rm = R2;
    uop.op2Kind = Operand2Kind::REG;
    EXPECT_TRUE(uop.writesReg(R0));
    EXPECT_FALSE(uop.writesReg(R1));
    EXPECT_TRUE(uop.readsReg(R1));
    EXPECT_TRUE(uop.readsReg(R2));
    EXPECT_FALSE(uop.readsReg(R0));

    MicroOp str;
    str.op = Op::STR;
    str.rd = R3;
    str.rn = R4;
    str.memKind = MemOffsetKind::IMM;
    EXPECT_FALSE(str.writesReg(R3));
    EXPECT_TRUE(str.readsReg(R3));
    EXPECT_TRUE(str.readsReg(R4));

    MicroOp pop;
    pop.op = Op::LDM;
    pop.rn = SP;
    pop.regList = (1u << R4) | (1u << LR);
    EXPECT_TRUE(pop.writesReg(R4));
    EXPECT_TRUE(pop.writesReg(LR));
    EXPECT_TRUE(pop.writesReg(SP)); // writeback
    EXPECT_TRUE(pop.readsReg(SP));

    MicroOp bl;
    bl.op = Op::BL;
    EXPECT_TRUE(bl.writesReg(LR));
}

/** Fuzz: every word that decodes must re-encode to the same word. */
TEST(Isa, DecodeEncodeFuzzRoundTrip)
{
    Rng rng(0x15a15a1ull);
    int decoded = 0;
    for (int i = 0; i < 200000; ++i) {
        uint32_t word = rng.next();
        MicroOp uop;
        if (!decodeArm(word, uop))
            continue;
        ++decoded;
        uint32_t back;
        if (!encodeArm(uop, back))
            continue; // some decodable words have no canonical encoding
        MicroOp again;
        ASSERT_TRUE(decodeArm(back, again));
        EXPECT_EQ(disassemble(uop), disassemble(again)) << std::hex
                                                        << word;
    }
    EXPECT_GT(decoded, 1000);
}

TEST(Isa, RegMasksAgreeWithPredicates)
{
    // The scoreboard consumes readRegMask()/writeRegMask(); they must
    // stay bit-for-bit consistent with the per-register predicates
    // across every decodable encoding.
    Rng rng(0x5c07eb0ull);
    int decoded = 0;
    for (int i = 0; i < 200000 && decoded < 5000; ++i) {
        uint32_t word = rng.next();
        MicroOp uop;
        if (!decodeArm(word, uop))
            continue;
        ++decoded;
        uint32_t reads = uop.readRegMask();
        uint32_t writes = uop.writeRegMask();
        for (uint8_t reg = 0; reg < NUM_REGS; ++reg) {
            ASSERT_EQ(((reads >> reg) & 1u) != 0, uop.readsReg(reg))
                << std::hex << word << " reg " << unsigned(reg);
            ASSERT_EQ(((writes >> reg) & 1u) != 0, uop.writesReg(reg))
                << std::hex << word << " reg " << unsigned(reg);
        }
        EXPECT_EQ((reads & kFlagsMask) != 0, uop.readsFlags());
        EXPECT_EQ((writes & kFlagsMask) != 0, uop.setsFlags);
    }
    EXPECT_GE(decoded, 5000);
}

TEST(Isa, ReadsFlagsPredicate)
{
    MicroOp uop;
    uop.op = Op::ADC;
    EXPECT_TRUE(uop.readsFlags()); // carry consumer, even when AL
    uop.op = Op::SBC;
    EXPECT_TRUE(uop.readsFlags());
    uop.op = Op::RSC;
    EXPECT_TRUE(uop.readsFlags());
    uop.op = Op::ADD;
    EXPECT_FALSE(uop.readsFlags());
    uop.cond = Cond::EQ; // any conditional op waits on NZCV
    EXPECT_TRUE(uop.readsFlags());
}

} // namespace
} // namespace pfits
