#include "isa/isa.hh"

#include <array>

#include "common/bitops.hh"
#include "common/logging.hh"

namespace pfits
{

namespace
{

const std::array<const char *, 15> condNames = {
    "eq", "ne", "cs", "cc", "mi", "pl", "vs", "vc",
    "hi", "ls", "ge", "lt", "gt", "le", "",
};

const std::array<const char *, 16> aluNames = {
    "and", "eor", "sub", "rsb", "add", "adc", "sbc", "rsc",
    "tst", "teq", "cmp", "cmn", "orr", "mov", "bic", "mvn",
};

const std::array<const char *, 4> shiftNames = {
    "lsl", "lsr", "asr", "ror",
};

const std::array<const char *, static_cast<size_t>(Op::NUM)> opNames = {
    "and", "eor", "sub", "rsb", "add", "adc", "sbc", "rsc",
    "tst", "teq", "cmp", "cmn", "orr", "mov", "bic", "mvn",
    "mul", "mla", "umull", "smull", "clz", "sdiv", "udiv", "qadd", "qsub",
    "movw", "movt",
    "ldr", "str", "ldrb", "strb", "ldrh", "strh", "ldrsb", "ldrsh",
    "ldm", "stm",
    "b", "bl", "ret", "swi", "nop",
};

/** Map a data-processing AluOp to the corresponding micro Op. */
Op
aluToOp(AluOp op)
{
    return static_cast<Op>(static_cast<uint8_t>(op));
}

/** Map a data-processing micro Op back to the AluOp encoding field. */
bool
opToAlu(Op op, AluOp &alu)
{
    uint8_t v = static_cast<uint8_t>(op);
    if (v < static_cast<uint8_t>(AluOp::NUM)) {
        alu = static_cast<AluOp>(v);
        return true;
    }
    return false;
}

} // namespace

const char *
condName(Cond cond)
{
    return condNames.at(static_cast<size_t>(cond));
}

Cond
invertCond(Cond cond)
{
    if (cond == Cond::AL)
        panic("cannot invert the AL condition");
    // ARM condition pairs differ only in the low bit.
    return static_cast<Cond>(static_cast<uint8_t>(cond) ^ 1u);
}

const char *
aluOpName(AluOp op)
{
    return aluNames.at(static_cast<size_t>(op));
}

bool
isCompareOp(AluOp op)
{
    return op == AluOp::TST || op == AluOp::TEQ || op == AluOp::CMP ||
           op == AluOp::CMN;
}

bool
isMoveOp(AluOp op)
{
    return op == AluOp::MOV || op == AluOp::MVN;
}

const char *
shiftName(ShiftType type)
{
    return shiftNames.at(static_cast<size_t>(type));
}

const char *
opName(Op op)
{
    return opNames.at(static_cast<size_t>(op));
}

bool
MicroOp::writesReg(uint8_t reg) const
{
    switch (op) {
      case Op::TST: case Op::TEQ: case Op::CMP: case Op::CMN:
      case Op::STR: case Op::STRB: case Op::STRH:
      case Op::B: case Op::RET: case Op::SWI: case Op::NOP:
        return false;
      case Op::BL:
        return reg == LR;
      case Op::LDM:
        return ((regList >> reg) & 1u) != 0 || reg == rn;
      case Op::STM:
        return reg == rn;
      case Op::UMULL: case Op::SMULL:
        return reg == rd || reg == ra;
      default:
        return reg == rd;
    }
}

bool
MicroOp::readsReg(uint8_t reg) const
{
    // Operand2 register sources.
    bool op2_reads = false;
    if (isAluLikeOp(op) && op2Kind != Operand2Kind::IMM) {
        op2_reads = (reg == rm);
        if (op2Kind == Operand2Kind::REG_SHIFT_REG)
            op2_reads = op2_reads || reg == rs;
    }

    switch (op) {
      case Op::MOV: case Op::MVN:
        return op2_reads;
      case Op::AND: case Op::EOR: case Op::SUB: case Op::RSB:
      case Op::ADD: case Op::ADC: case Op::SBC: case Op::RSC:
      case Op::TST: case Op::TEQ: case Op::CMP: case Op::CMN:
      case Op::ORR: case Op::BIC:
        return reg == rn || op2_reads;
      case Op::MUL:
        return reg == rm || reg == rs;
      case Op::MLA:
        return reg == rm || reg == rs || reg == ra;
      case Op::UMULL: case Op::SMULL:
        return reg == rm || reg == rs;
      case Op::CLZ:
        return reg == rm;
      case Op::SDIV: case Op::UDIV: case Op::QADD: case Op::QSUB:
        return reg == rn || reg == rm;
      case Op::MOVW:
        return false;
      case Op::MOVT:
        return reg == rd; // inserts the high half, keeps the low half
      case Op::LDR: case Op::LDRB: case Op::LDRH:
      case Op::LDRSB: case Op::LDRSH:
        return reg == rn ||
               (memKind != MemOffsetKind::IMM && reg == rm);
      case Op::STR: case Op::STRB: case Op::STRH:
        return reg == rd || reg == rn ||
               (memKind != MemOffsetKind::IMM && reg == rm);
      case Op::LDM:
        return reg == rn;
      case Op::STM:
        return reg == rn || ((regList >> reg) & 1u) != 0;
      case Op::RET:
        return reg == LR;
      case Op::SWI:
        return reg == R0;
      case Op::B: case Op::BL: case Op::NOP:
        return false;
      default:
        return false;
    }
}

bool
MicroOp::readsFlags() const
{
    if (cond != Cond::AL)
        return true;
    // Carry consumers read C even when unconditional.
    return op == Op::ADC || op == Op::SBC || op == Op::RSC;
}

uint32_t
MicroOp::readRegMask() const
{
    auto bit = [](uint8_t reg) { return 1u << reg; };

    // Operand2 register sources.
    uint32_t op2 = 0;
    if (isAluLikeOp(op) && op2Kind != Operand2Kind::IMM) {
        op2 = bit(rm);
        if (op2Kind == Operand2Kind::REG_SHIFT_REG)
            op2 |= bit(rs);
    }

    uint32_t mask = 0;
    switch (op) {
      case Op::MOV: case Op::MVN:
        mask = op2;
        break;
      case Op::AND: case Op::EOR: case Op::SUB: case Op::RSB:
      case Op::ADD: case Op::ADC: case Op::SBC: case Op::RSC:
      case Op::TST: case Op::TEQ: case Op::CMP: case Op::CMN:
      case Op::ORR: case Op::BIC:
        mask = bit(rn) | op2;
        break;
      case Op::MUL:
        mask = bit(rm) | bit(rs);
        break;
      case Op::MLA:
        mask = bit(rm) | bit(rs) | bit(ra);
        break;
      case Op::UMULL: case Op::SMULL:
        mask = bit(rm) | bit(rs);
        break;
      case Op::CLZ:
        mask = bit(rm);
        break;
      case Op::SDIV: case Op::UDIV: case Op::QADD: case Op::QSUB:
        mask = bit(rn) | bit(rm);
        break;
      case Op::MOVW:
        break;
      case Op::MOVT:
        mask = bit(rd); // inserts the high half, keeps the low half
        break;
      case Op::LDR: case Op::LDRB: case Op::LDRH:
      case Op::LDRSB: case Op::LDRSH:
        mask = bit(rn);
        if (memKind != MemOffsetKind::IMM)
            mask |= bit(rm);
        break;
      case Op::STR: case Op::STRB: case Op::STRH:
        mask = bit(rd) | bit(rn);
        if (memKind != MemOffsetKind::IMM)
            mask |= bit(rm);
        break;
      case Op::LDM:
        mask = bit(rn);
        break;
      case Op::STM:
        mask = bit(rn) | regList;
        break;
      case Op::RET:
        mask = bit(LR);
        break;
      case Op::SWI:
        mask = bit(R0);
        break;
      default:
        break;
    }
    if (readsFlags())
        mask |= kFlagsMask;
    return mask;
}

uint32_t
MicroOp::writeRegMask() const
{
    auto bit = [](uint8_t reg) { return 1u << reg; };

    uint32_t mask = 0;
    switch (op) {
      case Op::TST: case Op::TEQ: case Op::CMP: case Op::CMN:
      case Op::STR: case Op::STRB: case Op::STRH:
      case Op::B: case Op::RET: case Op::SWI: case Op::NOP:
        break;
      case Op::BL:
        mask = bit(LR);
        break;
      case Op::LDM:
        mask = regList | bit(rn);
        break;
      case Op::STM:
        mask = bit(rn);
        break;
      case Op::UMULL: case Op::SMULL:
        mask = bit(rd) | bit(ra);
        break;
      default:
        mask = bit(rd);
        break;
    }
    if (setsFlags)
        mask |= kFlagsMask;
    return mask;
}

void
detail::badCondition(Cond cond)
{
    panic("invalid condition code %u", static_cast<unsigned>(cond));
}

// --- decoding -------------------------------------------------------------

namespace
{

bool
decodeDataProc(uint32_t word, bool has_imm, MicroOp &uop)
{
    auto alu = static_cast<AluOp>(bits(word, 24, 21));
    uop.op = aluToOp(alu);
    uop.setsFlags = bits(word, 20, 20) != 0;
    uop.rn = static_cast<uint8_t>(bits(word, 19, 16));
    uop.rd = static_cast<uint8_t>(bits(word, 15, 12));

    if (isCompareOp(alu))
        uop.setsFlags = true;

    if (has_imm) {
        uop.op2Kind = Operand2Kind::IMM;
        uint32_t imm8 = bits(word, 7, 0);
        uint32_t rot = bits(word, 11, 8) * 2;
        uop.imm = rotr32(imm8, rot);
    } else {
        uop.rm = static_cast<uint8_t>(bits(word, 3, 0));
        uop.shiftType = static_cast<ShiftType>(bits(word, 6, 5));
        if (bits(word, 4, 4)) {
            uop.op2Kind = Operand2Kind::REG_SHIFT_REG;
            uop.rs = static_cast<uint8_t>(bits(word, 11, 8));
        } else {
            uop.shiftAmount = static_cast<uint8_t>(bits(word, 11, 7));
            if (uop.shiftAmount == 0 && uop.shiftType == ShiftType::LSL)
                uop.op2Kind = Operand2Kind::REG;
            else
                uop.op2Kind = Operand2Kind::REG_SHIFT_IMM;
        }
    }
    return true;
}

bool
decodeMem(uint32_t word, bool reg_offset, MicroOp &uop)
{
    bool byte = bits(word, 24, 24) != 0;
    bool load = bits(word, 20, 20) != 0;
    uop.op = load ? (byte ? Op::LDRB : Op::LDR)
                  : (byte ? Op::STRB : Op::STR);
    uop.memAdd = bits(word, 23, 23) != 0;
    uop.rn = static_cast<uint8_t>(bits(word, 19, 16));
    uop.rd = static_cast<uint8_t>(bits(word, 15, 12));

    if (reg_offset) {
        uop.rm = static_cast<uint8_t>(bits(word, 3, 0));
        uop.shiftType = static_cast<ShiftType>(bits(word, 6, 5));
        uop.shiftAmount = static_cast<uint8_t>(bits(word, 11, 7));
        uop.memKind = (uop.shiftAmount == 0 &&
                       uop.shiftType == ShiftType::LSL)
                          ? MemOffsetKind::REG
                          : MemOffsetKind::REG_SHIFT_IMM;
    } else {
        uop.memKind = MemOffsetKind::IMM;
        int32_t disp = static_cast<int32_t>(bits(word, 11, 0));
        uop.memDisp = uop.memAdd ? disp : -disp;
    }
    return true;
}

bool
decodeExt(uint32_t word, MicroOp &uop)
{
    auto ext = static_cast<ExtOp>(bits(word, 24, 21));
    switch (ext) {
      case ExtOp::MUL:
        uop.op = Op::MUL;
        uop.setsFlags = bits(word, 20, 20) != 0;
        uop.rd = static_cast<uint8_t>(bits(word, 19, 16));
        uop.rs = static_cast<uint8_t>(bits(word, 11, 8));
        uop.rm = static_cast<uint8_t>(bits(word, 3, 0));
        return true;
      case ExtOp::MLA:
        uop.op = Op::MLA;
        uop.setsFlags = bits(word, 20, 20) != 0;
        uop.rd = static_cast<uint8_t>(bits(word, 19, 16));
        uop.ra = static_cast<uint8_t>(bits(word, 15, 12));
        uop.rs = static_cast<uint8_t>(bits(word, 11, 8));
        uop.rm = static_cast<uint8_t>(bits(word, 3, 0));
        return true;
      case ExtOp::LDRH: case ExtOp::STRH:
      case ExtOp::LDRSB: case ExtOp::LDRSH:
        switch (ext) {
          case ExtOp::LDRH: uop.op = Op::LDRH; break;
          case ExtOp::STRH: uop.op = Op::STRH; break;
          case ExtOp::LDRSB: uop.op = Op::LDRSB; break;
          default: uop.op = Op::LDRSH; break;
        }
        uop.rn = static_cast<uint8_t>(bits(word, 19, 16));
        uop.rd = static_cast<uint8_t>(bits(word, 15, 12));
        uop.memKind = MemOffsetKind::IMM;
        uop.memDisp = sext(bits(word, 7, 0), 8);
        uop.memAdd = uop.memDisp >= 0;
        return true;
      case ExtOp::MOVW: case ExtOp::MOVT:
        uop.op = ext == ExtOp::MOVW ? Op::MOVW : Op::MOVT;
        uop.rd = static_cast<uint8_t>(bits(word, 19, 16));
        // imm16 lives in [15:0]; for encodability rd also occupies
        // [19:16], so the two never collide.
        uop.imm = bits(word, 15, 0);
        return true;
      case ExtOp::CLZ:
        uop.op = Op::CLZ;
        uop.rd = static_cast<uint8_t>(bits(word, 19, 16));
        uop.rm = static_cast<uint8_t>(bits(word, 3, 0));
        return true;
      case ExtOp::SDIV: case ExtOp::UDIV:
      case ExtOp::QADD: case ExtOp::QSUB:
        switch (ext) {
          case ExtOp::SDIV: uop.op = Op::SDIV; break;
          case ExtOp::UDIV: uop.op = Op::UDIV; break;
          case ExtOp::QADD: uop.op = Op::QADD; break;
          default: uop.op = Op::QSUB; break;
        }
        uop.rd = static_cast<uint8_t>(bits(word, 19, 16));
        uop.rn = static_cast<uint8_t>(bits(word, 15, 12));
        uop.rm = static_cast<uint8_t>(bits(word, 3, 0));
        return true;
      case ExtOp::UMULL: case ExtOp::SMULL:
        uop.op = ext == ExtOp::UMULL ? Op::UMULL : Op::SMULL;
        uop.rd = static_cast<uint8_t>(bits(word, 19, 16)); // high word
        uop.ra = static_cast<uint8_t>(bits(word, 15, 12)); // low word
        uop.rs = static_cast<uint8_t>(bits(word, 11, 8));
        uop.rm = static_cast<uint8_t>(bits(word, 3, 0));
        return true;
      default:
        return false;
    }
}

} // namespace

bool
decodeArm(uint32_t word, MicroOp &uop)
{
    uop = MicroOp{};
    uint32_t cond_field = bits(word, 31, 28);
    if (cond_field >= static_cast<uint32_t>(Cond::NUM))
        return false;
    uop.cond = static_cast<Cond>(cond_field);

    switch (static_cast<InsnClass>(bits(word, 27, 25))) {
      case InsnClass::DP_REG:
        return decodeDataProc(word, false, uop);
      case InsnClass::DP_IMM:
        return decodeDataProc(word, true, uop);
      case InsnClass::MEM_IMM:
        return decodeMem(word, false, uop);
      case InsnClass::MEM_REG:
        return decodeMem(word, true, uop);
      case InsnClass::LDM_STM:
        uop.op = bits(word, 20, 20) ? Op::LDM : Op::STM;
        uop.ldmIsPop = uop.op == Op::LDM;
        uop.rn = static_cast<uint8_t>(bits(word, 19, 16));
        uop.regList = static_cast<uint16_t>(bits(word, 15, 0));
        return uop.regList != 0;
      case InsnClass::BRANCH:
        uop.op = bits(word, 24, 24) ? Op::BL : Op::B;
        uop.branchOffset = sext(bits(word, 23, 0), 24);
        return true;
      case InsnClass::EXT:
        return decodeExt(word, uop);
      case InsnClass::SYS:
        if (bits(word, 24, 24)) {
            uop.op = Op::SWI;
            uop.imm = bits(word, 23, 0);
            return true;
        }
        switch (bits(word, 7, 4)) {
          case 0: uop.op = Op::NOP; return true;
          case 1: uop.op = Op::RET; return true;
          default: return false;
        }
      default:
        return false;
    }
}

// --- encoding -------------------------------------------------------------

namespace
{

uint32_t
base(Cond cond, InsnClass cls)
{
    uint32_t word = 0;
    word = insertBits(word, 31, 28, static_cast<uint32_t>(cond));
    word = insertBits(word, 27, 25, static_cast<uint32_t>(cls));
    return word;
}

bool
encodeOperand2(const MicroOp &uop, uint32_t &word)
{
    switch (uop.op2Kind) {
      case Operand2Kind::REG:
        word = insertBits(word, 3, 0, uop.rm);
        return true;
      case Operand2Kind::REG_SHIFT_IMM:
        if (uop.shiftAmount > 31)
            return false;
        word = insertBits(word, 11, 7, uop.shiftAmount);
        word = insertBits(word, 6, 5,
                          static_cast<uint32_t>(uop.shiftType));
        word = insertBits(word, 3, 0, uop.rm);
        return true;
      case Operand2Kind::REG_SHIFT_REG:
        word = insertBits(word, 11, 8, uop.rs);
        word = insertBits(word, 6, 5,
                          static_cast<uint32_t>(uop.shiftType));
        word = insertBits(word, 4, 4, 1);
        word = insertBits(word, 3, 0, uop.rm);
        return true;
      default:
        return false;
    }
}

} // namespace

bool
encodeArm(const MicroOp &uop, uint32_t &word)
{
    word = 0;
    AluOp alu;
    if (opToAlu(uop.op, alu)) {
        bool imm = uop.op2Kind == Operand2Kind::IMM;
        word = base(uop.cond, imm ? InsnClass::DP_IMM : InsnClass::DP_REG);
        word = insertBits(word, 24, 21, static_cast<uint32_t>(alu));
        word = insertBits(word, 20, 20,
                          (uop.setsFlags || isCompareOp(alu)) ? 1 : 0);
        word = insertBits(word, 19, 16, uop.rn);
        word = insertBits(word, 15, 12, uop.rd);
        if (imm) {
            uint32_t imm8, rot;
            if (!encodeArmImmediate(uop.imm, imm8, rot))
                return false;
            word = insertBits(word, 11, 8, rot / 2);
            word = insertBits(word, 7, 0, imm8);
            return true;
        }
        return encodeOperand2(uop, word);
    }

    switch (uop.op) {
      case Op::LDR: case Op::STR: case Op::LDRB: case Op::STRB: {
        bool byte = uop.op == Op::LDRB || uop.op == Op::STRB;
        bool load = isLoad(uop.op);
        bool reg_off = uop.memKind != MemOffsetKind::IMM;
        word = base(uop.cond,
                    reg_off ? InsnClass::MEM_REG : InsnClass::MEM_IMM);
        word = insertBits(word, 24, 24, byte ? 1 : 0);
        word = insertBits(word, 20, 20, load ? 1 : 0);
        word = insertBits(word, 19, 16, uop.rn);
        word = insertBits(word, 15, 12, uop.rd);
        if (reg_off) {
            word = insertBits(word, 23, 23, uop.memAdd ? 1 : 0);
            word = insertBits(word, 11, 7, uop.shiftAmount);
            word = insertBits(word, 6, 5,
                              static_cast<uint32_t>(uop.shiftType));
            word = insertBits(word, 3, 0, uop.rm);
        } else {
            uint32_t mag = static_cast<uint32_t>(
                uop.memDisp < 0 ? -uop.memDisp : uop.memDisp);
            if (!fitsUnsigned(mag, 12))
                return false;
            word = insertBits(word, 23, 23, uop.memDisp >= 0 ? 1 : 0);
            word = insertBits(word, 11, 0, mag);
        }
        return true;
      }
      case Op::LDRH: case Op::STRH: case Op::LDRSB: case Op::LDRSH: {
        if (uop.memKind != MemOffsetKind::IMM ||
            !fitsSigned(uop.memDisp, 8)) {
            return false;
        }
        ExtOp ext;
        switch (uop.op) {
          case Op::LDRH: ext = ExtOp::LDRH; break;
          case Op::STRH: ext = ExtOp::STRH; break;
          case Op::LDRSB: ext = ExtOp::LDRSB; break;
          default: ext = ExtOp::LDRSH; break;
        }
        word = base(uop.cond, InsnClass::EXT);
        word = insertBits(word, 24, 21, static_cast<uint32_t>(ext));
        word = insertBits(word, 19, 16, uop.rn);
        word = insertBits(word, 15, 12, uop.rd);
        word = insertBits(word, 7, 0,
                          static_cast<uint32_t>(uop.memDisp) & 0xffu);
        return true;
      }
      case Op::LDM: case Op::STM:
        if (uop.regList == 0)
            return false;
        word = base(uop.cond, InsnClass::LDM_STM);
        word = insertBits(word, 20, 20, uop.op == Op::LDM ? 1 : 0);
        word = insertBits(word, 19, 16, uop.rn);
        word = insertBits(word, 15, 0, uop.regList);
        return true;
      case Op::B: case Op::BL:
        if (!fitsSigned(uop.branchOffset, 24))
            return false;
        word = base(uop.cond, InsnClass::BRANCH);
        word = insertBits(word, 24, 24, uop.op == Op::BL ? 1 : 0);
        word = insertBits(word, 23, 0,
                          static_cast<uint32_t>(uop.branchOffset));
        return true;
      case Op::MUL: case Op::MLA:
        word = base(uop.cond, InsnClass::EXT);
        word = insertBits(word, 24, 21,
                          static_cast<uint32_t>(uop.op == Op::MUL
                                                    ? ExtOp::MUL
                                                    : ExtOp::MLA));
        word = insertBits(word, 20, 20, uop.setsFlags ? 1 : 0);
        word = insertBits(word, 19, 16, uop.rd);
        if (uop.op == Op::MLA)
            word = insertBits(word, 15, 12, uop.ra);
        word = insertBits(word, 11, 8, uop.rs);
        word = insertBits(word, 3, 0, uop.rm);
        return true;
      case Op::UMULL: case Op::SMULL:
        word = base(uop.cond, InsnClass::EXT);
        word = insertBits(word, 24, 21,
                          static_cast<uint32_t>(uop.op == Op::UMULL
                                                    ? ExtOp::UMULL
                                                    : ExtOp::SMULL));
        word = insertBits(word, 19, 16, uop.rd);
        word = insertBits(word, 15, 12, uop.ra);
        word = insertBits(word, 11, 8, uop.rs);
        word = insertBits(word, 3, 0, uop.rm);
        return true;
      case Op::MOVW: case Op::MOVT:
        if (!fitsUnsigned(uop.imm, 16))
            return false;
        word = base(uop.cond, InsnClass::EXT);
        word = insertBits(word, 24, 21,
                          static_cast<uint32_t>(uop.op == Op::MOVW
                                                    ? ExtOp::MOVW
                                                    : ExtOp::MOVT));
        word = insertBits(word, 19, 16, uop.rd);
        word = insertBits(word, 15, 0, uop.imm);
        return true;
      case Op::CLZ:
        word = base(uop.cond, InsnClass::EXT);
        word = insertBits(word, 24, 21, static_cast<uint32_t>(ExtOp::CLZ));
        word = insertBits(word, 19, 16, uop.rd);
        word = insertBits(word, 3, 0, uop.rm);
        return true;
      case Op::SDIV: case Op::UDIV: case Op::QADD: case Op::QSUB: {
        ExtOp ext;
        switch (uop.op) {
          case Op::SDIV: ext = ExtOp::SDIV; break;
          case Op::UDIV: ext = ExtOp::UDIV; break;
          case Op::QADD: ext = ExtOp::QADD; break;
          default: ext = ExtOp::QSUB; break;
        }
        word = base(uop.cond, InsnClass::EXT);
        word = insertBits(word, 24, 21, static_cast<uint32_t>(ext));
        word = insertBits(word, 19, 16, uop.rd);
        word = insertBits(word, 15, 12, uop.rn);
        word = insertBits(word, 3, 0, uop.rm);
        return true;
      }
      case Op::SWI:
        if (!fitsUnsigned(uop.imm, 24))
            return false;
        word = base(uop.cond, InsnClass::SYS);
        word = insertBits(word, 24, 24, 1);
        word = insertBits(word, 23, 0, uop.imm);
        return true;
      case Op::NOP:
        word = base(uop.cond, InsnClass::SYS);
        return true;
      case Op::RET:
        word = base(uop.cond, InsnClass::SYS);
        word = insertBits(word, 7, 4, 1);
        return true;
      default:
        return false;
    }
}

// --- disassembly ----------------------------------------------------------

namespace
{

std::string
regName(uint8_t reg)
{
    switch (reg) {
      case SP: return "sp";
      case LR: return "lr";
      default: return "r" + std::to_string(reg);
    }
}

std::string
operand2Text(const MicroOp &uop)
{
    switch (uop.op2Kind) {
      case Operand2Kind::IMM:
        return "#" + std::to_string(uop.imm);
      case Operand2Kind::REG:
        return regName(uop.rm);
      case Operand2Kind::REG_SHIFT_IMM:
        return regName(uop.rm) + ", " + shiftName(uop.shiftType) + " #" +
               std::to_string(uop.shiftAmount);
      case Operand2Kind::REG_SHIFT_REG:
        return regName(uop.rm) + ", " + shiftName(uop.shiftType) + " " +
               regName(uop.rs);
      default:
        return "?";
    }
}

std::string
memOperandText(const MicroOp &uop)
{
    std::string out = "[" + regName(uop.rn);
    if (uop.memKind == MemOffsetKind::IMM) {
        if (uop.memDisp != 0)
            out += ", #" + std::to_string(uop.memDisp);
    } else {
        out += uop.memAdd ? ", " : ", -";
        out += regName(uop.rm);
        if (uop.memKind == MemOffsetKind::REG_SHIFT_IMM) {
            out += ", " + std::string(shiftName(uop.shiftType)) + " #" +
                   std::to_string(uop.shiftAmount);
        }
    }
    return out + "]";
}

std::string
regListText(uint16_t list)
{
    std::string out = "{";
    bool first = true;
    for (unsigned reg = 0; reg < NUM_REGS; ++reg) {
        if ((list >> reg) & 1u) {
            if (!first)
                out += ", ";
            out += regName(static_cast<uint8_t>(reg));
            first = false;
        }
    }
    return out + "}";
}

} // namespace

std::string
disassemble(const MicroOp &uop)
{
    std::string mnem = opName(uop.op);
    mnem += condName(uop.cond);
    AluOp alu;
    if (opToAlu(uop.op, alu)) {
        if (uop.setsFlags && !isCompareOp(alu))
            mnem += "s";
        if (isCompareOp(alu))
            return mnem + " " + regName(uop.rn) + ", " + operand2Text(uop);
        if (isMoveOp(alu))
            return mnem + " " + regName(uop.rd) + ", " + operand2Text(uop);
        return mnem + " " + regName(uop.rd) + ", " + regName(uop.rn) +
               ", " + operand2Text(uop);
    }

    switch (uop.op) {
      case Op::LDR: case Op::STR: case Op::LDRB: case Op::STRB:
      case Op::LDRH: case Op::STRH: case Op::LDRSB: case Op::LDRSH:
        return mnem + " " + regName(uop.rd) + ", " + memOperandText(uop);
      case Op::LDM: case Op::STM:
        return mnem + " " + regName(uop.rn) + "!, " +
               regListText(uop.regList);
      case Op::B: case Op::BL:
        return mnem + " " + (uop.branchOffset >= 0 ? "+" : "") +
               std::to_string(uop.branchOffset);
      case Op::MUL:
        return mnem + " " + regName(uop.rd) + ", " + regName(uop.rm) +
               ", " + regName(uop.rs);
      case Op::MLA:
        return mnem + " " + regName(uop.rd) + ", " + regName(uop.rm) +
               ", " + regName(uop.rs) + ", " + regName(uop.ra);
      case Op::UMULL: case Op::SMULL:
        return mnem + " " + regName(uop.ra) + ", " + regName(uop.rd) +
               ", " + regName(uop.rm) + ", " + regName(uop.rs);
      case Op::MOVW: case Op::MOVT:
        return mnem + " " + regName(uop.rd) + ", #" +
               std::to_string(uop.imm);
      case Op::CLZ:
        return mnem + " " + regName(uop.rd) + ", " + regName(uop.rm);
      case Op::SDIV: case Op::UDIV: case Op::QADD: case Op::QSUB:
        return mnem + " " + regName(uop.rd) + ", " + regName(uop.rn) +
               ", " + regName(uop.rm);
      case Op::SWI:
        return mnem + " #" + std::to_string(uop.imm);
      case Op::RET: case Op::NOP:
        return mnem;
      default:
        return "undef";
    }
}

std::string
disassembleArm(uint32_t word)
{
    MicroOp uop;
    if (!decodeArm(word, uop))
        return "undef";
    return disassemble(uop);
}

} // namespace pfits
