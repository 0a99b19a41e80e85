/**
 * @file
 * The uARM instruction set.
 *
 * uARM is an ARM-flavoured 32-bit RISC ISA defined from scratch for this
 * reproduction (the paper's toolchain targeted real ARM; see DESIGN.md §2
 * for why this substitution is sound). It keeps the ARM features that the
 * FITS synthesis exploits:
 *
 *  - 16 general-purpose registers (r13=sp, r14=lr by convention);
 *  - a 4-bit condition field on (almost) every instruction;
 *  - a flexible second operand: register, register-with-shift, or an
 *    8-bit immediate rotated right by an even amount;
 *  - load/store with immediate and (shifted-)register offsets;
 *  - load/store-multiple with a 16-bit register list;
 *  - MOVW/MOVT wide-immediate pairs standing in for GCC literal pools.
 *
 * Encoding summary (bit 31..28 is always `cond`):
 *
 *   class [27:25] = 000  data-processing, register operand2
 *                   001  data-processing, rotated-imm8 operand2
 *                   010  load/store word/byte, imm12 offset
 *                   011  load/store word/byte, (shifted) register offset
 *                   100  load/store multiple (reglist16)
 *                   101  branch / branch-and-link (signed imm24 words)
 *                   110  extended ops (mul/mla/div/clz/movw/movt/ldrh/...)
 *                   111  system (swi, nop, ret)
 */

#ifndef POWERFITS_ISA_ISA_HH
#define POWERFITS_ISA_ISA_HH

#include <cstdint>
#include <string>

#include "common/fields.hh"

namespace pfits
{

/** Architectural register indices. */
enum Reg : uint8_t
{
    R0, R1, R2, R3, R4, R5, R6, R7,
    R8, R9, R10, R11, R12,
    SP = 13,  //!< stack pointer by convention
    LR = 14,  //!< link register by convention
    R15 = 15, //!< valid GPR; never the program counter in uARM
    NUM_REGS = 16,
};

/** Condition codes, ARM numbering. AL executes unconditionally. */
enum class Cond : uint8_t
{
    EQ = 0, NE, CS, CC, MI, PL, VS, VC,
    HI, LS, GE, LT, GT, LE, AL,
    NUM,
};

/** @return the textual name ("eq", "al", ...) of a condition. */
const char *condName(Cond cond);

/** @return the condition with inverted sense (EQ <-> NE, ...). */
Cond invertCond(Cond cond);

/** Data-processing opcodes (field [24:21] of classes 000/001). */
enum class AluOp : uint8_t
{
    AND = 0, EOR, SUB, RSB, ADD, ADC, SBC, RSC,
    TST, TEQ, CMP, CMN, ORR, MOV, BIC, MVN,
    NUM,
};

/** @return the mnemonic for a data-processing opcode. */
const char *aluOpName(AluOp op);

/** @return true when @p op compares only (TST/TEQ/CMP/CMN: no rd). */
bool isCompareOp(AluOp op);

/** @return true when @p op ignores rn (MOV/MVN). */
bool isMoveOp(AluOp op);

/** Barrel-shifter operation applied to the register second operand. */
enum class ShiftType : uint8_t { LSL = 0, LSR, ASR, ROR, NUM };

/** @return the mnemonic for a shift type. */
const char *shiftName(ShiftType type);

/** Extended opcodes (field [24:21] of class 110). */
enum class ExtOp : uint8_t
{
    MUL = 0, MLA,
    LDRH, STRH, LDRSB, LDRSH,
    MOVW, MOVT,
    CLZ, SDIV, UDIV,
    QADD, QSUB,
    UMULL, SMULL,
    NUM,
};

/** Semantic operation kinds carried by the micro-op IR. */
enum class Op : uint8_t
{
    // Data processing (flexible operand2).
    AND, EOR, SUB, RSB, ADD, ADC, SBC, RSC,
    TST, TEQ, CMP, CMN, ORR, MOV, BIC, MVN,
    // Extended arithmetic.
    MUL, MLA, UMULL, SMULL, CLZ, SDIV, UDIV, QADD, QSUB,
    MOVW, MOVT,
    // Memory.
    LDR, STR, LDRB, STRB, LDRH, STRH, LDRSB, LDRSH,
    LDM, STM,
    // Control.
    B, BL, RET, SWI, NOP,
    NUM,
};

/** @return the mnemonic of a micro-op kind. */
const char *opName(Op op);

/** Class bits of a micro-op kind; opClass() returns an OR of these. */
enum OpClassBit : uint8_t
{
    kOpLoad = 1u << 0,    //!< LDR/LDRB/LDRH/LDRSB/LDRSH/LDM
    kOpStore = 1u << 1,   //!< STR/STRB/STRH/STM
    kOpBranch = 1u << 2,  //!< B/BL/RET
    kOpMulDiv = 1u << 3,  //!< MUL/MLA/UMULL/SMULL/SDIV/UDIV
    kOpAluLike = 1u << 4, //!< data-processing incl. compares and moves
};

namespace detail
{

constexpr uint8_t
opClassOf(Op op)
{
    switch (op) {
      case Op::LDR: case Op::LDRB: case Op::LDRH:
      case Op::LDRSB: case Op::LDRSH: case Op::LDM:
        return kOpLoad;
      case Op::STR: case Op::STRB: case Op::STRH: case Op::STM:
        return kOpStore;
      case Op::B: case Op::BL: case Op::RET:
        return kOpBranch;
      case Op::MUL: case Op::MLA: case Op::UMULL: case Op::SMULL:
      case Op::SDIV: case Op::UDIV:
        return kOpMulDiv;
      default:
        return static_cast<uint8_t>(op) <= static_cast<uint8_t>(Op::MVN)
                   ? kOpAluLike
                   : 0;
    }
}

/** One entry per byte value, so a corrupt Op classifies as nothing. */
struct OpClassTable
{
    uint8_t bits[256] = {};

    constexpr OpClassTable()
    {
        for (unsigned op = 0; op < static_cast<unsigned>(Op::NUM); ++op)
            bits[op] = opClassOf(static_cast<Op>(op));
    }
};

inline constexpr OpClassTable kOpClassTable{};

} // namespace detail

/** @return the OpClassBit set of @p op (0 for SWI/NOP/MOVW/...). */
constexpr uint8_t
opClass(Op op)
{
    return detail::kOpClassTable.bits[static_cast<uint8_t>(op)];
}

/** Classification helpers used by the timing model and the profiler. */
constexpr bool isLoad(Op op) { return opClass(op) & kOpLoad; }
constexpr bool isStore(Op op) { return opClass(op) & kOpStore; }
constexpr bool isMemOp(Op op) { return opClass(op) & (kOpLoad | kOpStore); }
constexpr bool isBranchOp(Op op) { return opClass(op) & kOpBranch; }
constexpr bool isAluLikeOp(Op op) { return opClass(op) & kOpAluLike; }
constexpr bool isMulDivOp(Op op) { return opClass(op) & kOpMulDiv; }

/** How the second operand of a data-processing micro-op is formed. */
enum class Operand2Kind : uint8_t
{
    IMM,           //!< 32-bit immediate (already rotated/assembled)
    REG,           //!< plain register
    REG_SHIFT_IMM, //!< register shifted by a constant amount
    REG_SHIFT_REG, //!< register shifted by a register
};

/** How a load/store forms its address offset. */
enum class MemOffsetKind : uint8_t
{
    IMM,           //!< signed immediate displacement
    REG,           //!< +/- register
    REG_SHIFT_IMM, //!< +/- register shifted by a constant
};

/** Well-known software-interrupt numbers. */
enum SwiNum : uint32_t
{
    SWI_EXIT = 0,      //!< terminate the program
    SWI_PUTC = 1,      //!< write low byte of r0 to the console stream
    SWI_EMIT_WORD = 2, //!< append r0 to the machine's output buffer
};

/**
 * The decoded, ISA-neutral form of one instruction.
 *
 * Both the fixed uARM decoder and the programmable FITS decoder produce
 * MicroOps; the execution engine in src/sim/ only ever sees this struct,
 * which is what makes the "same datapath, different front-end" design of
 * the paper directly executable.
 */
struct MicroOp
{
    Op op = Op::NOP;
    Cond cond = Cond::AL;
    bool setsFlags = false;

    uint8_t rd = 0; //!< destination (or transfer register for mem ops)
    uint8_t rn = 0; //!< first source / base register
    uint8_t rm = 0; //!< register second operand / offset register
    uint8_t rs = 0; //!< shift-amount register / multiplier
    uint8_t ra = 0; //!< accumulator (MLA) / rdLo (long multiplies)

    Operand2Kind op2Kind = Operand2Kind::IMM;
    ShiftType shiftType = ShiftType::LSL;
    uint8_t shiftAmount = 0;
    uint32_t imm = 0; //!< operand2 immediate / MOVW-MOVT imm16 / SWI number

    MemOffsetKind memKind = MemOffsetKind::IMM;
    bool memAdd = true;    //!< U bit: add (true) or subtract the offset
    int32_t memDisp = 0;   //!< immediate displacement (bytes)

    uint16_t regList = 0;  //!< LDM/STM register list
    bool ldmIsPop = true;  //!< LDM: increment-after; STM: decrement-before

    int32_t branchOffset = 0; //!< branch displacement in *instructions*

    /** @return true when this op writes @p reg. */
    bool writesReg(uint8_t reg) const;
    /** @return true when this op reads @p reg. */
    bool readsReg(uint8_t reg) const;

    /**
     * @return true when issue must wait for the NZCV flags: any
     * conditional op, plus the carry consumers (ADC/SBC/RSC) even when
     * unconditional.
     */
    bool readsFlags() const;

    /**
     * Source-operand bitmask: bit r (r < NUM_REGS) set when this op
     * reads register r, bit kFlagsBit set when readsFlags(). The
     * scoreboard consumes this instead of probing readsReg() for all
     * 16 registers per retired instruction.
     */
    uint32_t readRegMask() const;

    /** Destination bitmask, same layout; kFlagsBit set for S-forms. */
    uint32_t writeRegMask() const;
};

/** Bit index of the NZCV flags in read/writeRegMask (one past r15). */
inline constexpr unsigned kFlagsBit = NUM_REGS;
/** Mask with only the flags bit set. */
inline constexpr uint32_t kFlagsMask = 1u << kFlagsBit;

/** Condition evaluation against the NZCV flags. */
struct Flags
{
    bool n = false;
    bool z = false;
    bool c = false;
    bool v = false;

    /** The field list (common/fields.hh). */
    template <class V>
    static void
    fields(V &visit)
    {
        visit("n", &Flags::n);
        visit("z", &Flags::z);
        visit("c", &Flags::c);
        visit("v", &Flags::v);
    }
};

namespace detail
{

/** The ARM condition tests, for the compile-time truth table below. */
constexpr bool
condHolds(Cond cond, bool n, bool z, bool c, bool v)
{
    switch (cond) {
      case Cond::EQ: return z;
      case Cond::NE: return !z;
      case Cond::CS: return c;
      case Cond::CC: return !c;
      case Cond::MI: return n;
      case Cond::PL: return !n;
      case Cond::VS: return v;
      case Cond::VC: return !v;
      case Cond::HI: return c && !z;
      case Cond::LS: return !c || z;
      case Cond::GE: return n == v;
      case Cond::LT: return n != v;
      case Cond::GT: return !z && n == v;
      case Cond::LE: return z || n != v;
      default: return true; // AL
    }
}

/** Bit (n<<3 | z<<2 | c<<1 | v) of pass[cond] is the test's outcome. */
struct CondTable
{
    uint16_t pass[static_cast<unsigned>(Cond::NUM)] = {};

    constexpr CondTable()
    {
        for (unsigned cond = 0; cond < static_cast<unsigned>(Cond::NUM);
             ++cond)
            for (unsigned nzcv = 0; nzcv < 16; ++nzcv)
                if (condHolds(static_cast<Cond>(cond), nzcv & 8u,
                              nzcv & 4u, nzcv & 2u, nzcv & 1u))
                    pass[cond] |= static_cast<uint16_t>(1u << nzcv);
    }
};

inline constexpr CondTable kCondTable{};

/** panic()s on a condition code outside Cond::NUM. */
[[noreturn]] void badCondition(Cond cond);

} // namespace detail

/** @return true when @p cond passes under @p flags. */
inline bool
condPasses(Cond cond, const Flags &flags)
{
    if (cond == Cond::AL)
        return true;
    const unsigned c = static_cast<unsigned>(cond);
    if (c >= static_cast<unsigned>(Cond::NUM)) [[unlikely]]
        detail::badCondition(cond);
    const unsigned nzcv = (flags.n << 3) | (flags.z << 2) |
                          (flags.c << 1) | unsigned(flags.v);
    return (detail::kCondTable.pass[c] >> nzcv) & 1u;
}

// --- 32-bit uARM encoding ------------------------------------------------

/** Instruction classes (bits [27:25]). */
enum class InsnClass : uint8_t
{
    DP_REG = 0, DP_IMM, MEM_IMM, MEM_REG, LDM_STM, BRANCH, EXT, SYS,
};

/**
 * Decode a 32-bit uARM word into a micro-op.
 *
 * @param word the instruction word
 * @param uop  out: the decoded micro-op
 * @return true on success; false for an undefined encoding.
 */
bool decodeArm(uint32_t word, MicroOp &uop);

/**
 * Encode a micro-op into a 32-bit uARM word.
 *
 * Fails (returns false) when a field does not fit its encoding slot, e.g.
 * an operand2 immediate that is not an ARM-style rotated imm8.
 */
bool encodeArm(const MicroOp &uop, uint32_t &word);

/** Disassemble one uARM word into assembler-like text. */
std::string disassembleArm(uint32_t word);

/** Disassemble a micro-op (used for both front-ends). */
std::string disassemble(const MicroOp &uop);

} // namespace pfits

#endif // POWERFITS_ISA_ISA_HH
