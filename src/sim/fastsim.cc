/**
 * @file
 * The engine: the production Tile (sim/tile.hh) every Machine and Chip
 * runs.
 *
 * A per-access interpreter pays per *dynamic* instruction for work
 * that only depends on the *static* instruction: two virtual front-end
 * calls, a full ExecInfo reset, the operand2/offset-kind decode
 * switches, and the tag scan of a 32-way I-cache set for a fetch that
 * almost always lands in the line it just hit. The engine hoists all
 * of it out of the loop:
 *
 *  - predecode: once per tile, one pass over the static code builds a
 *    flat FastOp trace — per instruction a handler function pointer
 *    specialized on (op, operand kind, S-bit), the byte address, raw
 *    encoding, read-register mask, immediates, the absolute branch
 *    target, and every ExecInfo field that is a pure function of the
 *    static instruction (destination register, extra latency,
 *    base-writeback, classification bits);
 *  - dispatch: the loop is condition-check + one indirect call; the
 *    handler updates the register file and at most two effect scalars
 *    (branch target index, memory access list) — everything else the
 *    scoreboard consumes comes straight from the FastOp;
 *  - timing: the analytic issue/writeback scoreboard is inlined, and
 *    fetches/data accesses that stay within the most-recently-hit
 *    cache line accumulate in plain counters that flush through
 *    Cache::applyRepeatsAt() only when the streak breaks (same final
 *    cache state, no per-access tag scan or counter RMW);
 *  - superblocks: with no observer and no fault plan, straight-line
 *    runs retire a run at a time, with the per-op checks and the
 *    fetch-side counters hoisted to run granularity;
 *  - observers: the built-in counters are plain locals; external
 *    observers get the same typed event stream via the HasExtra
 *    template stamp, so TimingInvariantChecker, interval stats and
 *    traces replay against the engine unchanged. A second HasFaults
 *    stamp drops the soft-error machinery from fault-free runs;
 *  - chips: the tile steps in quanta and routes L1 misses through a
 *    shared CoherentL2, releasing its line streaks around every L2
 *    call and every coherence action taken on it;
 *  - profiling: runFunctional drives the same trace and handlers with
 *    no caches, scoreboard or observers, a superblock at a time, for
 *    the profiler's dynamic pass (fits/profile.cc).
 *
 * CORRECTNESS CONTRACT: every handler and every timing statement here
 * reproduces the cycle-exact interpreter oracle (verify/oracle.cc over
 * sim/executor.cc) — same operation order, same partial state on
 * traps, same trap message text. The differential harness
 * (src/verify/differential.cc) cross-executes the engine against the
 * oracle over every kernel and seeded random programs, single-core and
 * as chips, and requires field-for-field equal results; pfits_verify
 * and tests/test_verify.cc gate it.
 */

#include <algorithm>
#include <bit>
#include <functional>
#include <limits>
#include <memory>
#include <tuple>
#include <utility>
#include <vector>

#include "common/bitops.hh"
#include "common/logging.hh"
#include "obs/metrics.hh"
#include "sim/machine.hh"
#include "sim/probe.hh"
#include "sim/tile.hh"

namespace pfits
{

namespace
{

struct FastOp;
struct FastCtx;

using FastExecFn = void (*)(FastCtx &, const FastOp &);

/** Static per-op classification bits, precomputed at predecode. */
enum : uint16_t
{
    kSetsFlags = 1u << 0,
    kIsLoad = 1u << 1,
    kIsStore = 1u << 2,
    kIsMulDiv = 1u << 3,
    kIsBranch = 1u << 4,
    kIsLdm = 1u << 5,
    kIsStm = 1u << 6,
    kIsLongMul = 1u << 7,
    kBaseWb = 1u << 8,   //!< LDM/STM with the base not in the list
    kWideRead = 1u << 9, //!< readMask has > 4 bits (STM lists): the
                         //!< issue stage walks the mask instead of the
                         //!< fixed-width readRegs[] operand slots
    kReadsFlags = 1u << 10, //!< waits on the NZCV scoreboard entry
    kManyReads = 1u << 11,  //!< more than two register sources
};

/** One fully-resolved static instruction of the predecoded trace. */
struct FastOp
{
    FastExecFn fn = nullptr;      //!< executed-path handler
    const MicroOp *uop = nullptr; //!< source micro-op, for events
    uint64_t branchTarget = 0;    //!< absolute target index (B/BL)
    uint32_t addr = 0;            //!< byte address of the fetch
    uint32_t encoding = 0;        //!< raw bits for toggle counting
    uint32_t readMask = 0;        //!< MicroOp::readRegMask()
    uint32_t imm = 0;             //!< op2 imm / SWI number / BL link addr
    int32_t memDisp = 0;
    uint16_t regList = 0;
    uint16_t flags = 0;      //!< kSetsFlags | kIsLoad | ...
    uint8_t rd = 0, rn = 0, rm = 0, rs = 0, ra = 0;
    uint8_t cond = 0;        //!< static_cast<uint8_t>(Cond)
    uint8_t shiftType = 0;   //!< static_cast<uint8_t>(ShiftType)
    uint8_t shiftAmount = 0;
    uint8_t wbReg = 0xff;    //!< ExecInfo::destReg when executed
    uint8_t baseLatency = 0; //!< ExecInfo::extraLatency when executed

    /**
     * readMask unpacked into at most four operand slots, padded with
     * the always-ready scoreboard scratch index: the issue stage takes
     * four branch-free maxes instead of a data-dependent bit loop.
     * Ops with more than four sources (STM lists) set kWideRead and
     * keep the mask walk.
     */
    uint8_t readRegs[4] = {0, 0, 0, 0};

    /**
     * Fetch-toggle count against the STATIC predecessor op (index - 1,
     * masked to the fetch width), valid whenever control arrived
     * sequentially; op 0 is precomputed against an all-zero bus. Only
     * a taken branch makes the dynamic predecessor differ from the
     * static one, so only post-branch fetches pay the runtime XOR +
     * popcount.
     */
    uint8_t toggleSeq = 0;

    /** Dense hot-dispatch id consumed by the execute switch; 0 means
     * "cold: call fn through the pointer table". */
    uint8_t hot = 0;
};

/**
 * Execution context shared by the loop and the handlers: architectural
 * state plus the only two per-instruction effects that are not a pure
 * function of the static instruction — the dynamic control-flow target
 * (written by branch handlers, read only when the op is an executed
 * branch) and the memory access list (written by memory handlers, read
 * only when the op is an executed memory op, so stale values from a
 * previous instruction are never observed and nothing is re-armed
 * between dispatches).
 */
struct FastCtx
{
    CpuState state;
    Memory &mem;
    IoSinks io;
    AddrCodec codec{};

    uint64_t nextIndex = 0;
    unsigned numMem = 0;
    ExecInfo::MemAccess memAcc[ExecInfo::kMaxMem];

    explicit FastCtx(Memory &m) : mem(m) {}
};

// --- functional helpers (verbatim executor.cc semantics) -----------------

inline void
setNZ(CpuState &state, uint32_t result)
{
    state.flags.n = (result >> 31) != 0;
    state.flags.z = result == 0;
}

/** result = a + b + carry_in, with full NZCV update when SF. */
template <bool SF>
inline uint32_t
addWithCarry(CpuState &state, uint32_t a, uint32_t b, uint32_t carry_in)
{
    uint64_t wide = static_cast<uint64_t>(a) + b + carry_in;
    uint32_t result = static_cast<uint32_t>(wide);
    if constexpr (SF) {
        setNZ(state, result);
        state.flags.c = (wide >> 32) != 0;
        // Overflow: operands share a sign the result does not.
        state.flags.v = (~(a ^ b) & (a ^ result) & 0x80000000u) != 0;
    }
    return result;
}

inline int32_t
saturate64(int64_t v)
{
    if (v > std::numeric_limits<int32_t>::max())
        return std::numeric_limits<int32_t>::max();
    if (v < std::numeric_limits<int32_t>::min())
        return std::numeric_limits<int32_t>::min();
    return static_cast<int32_t>(v);
}

/** The flexible second operand, specialized on its kind. */
template <Operand2Kind K>
inline uint32_t
evalOp2(const FastCtx &c, const FastOp &o)
{
    if constexpr (K == Operand2Kind::IMM) {
        return o.imm;
    } else if constexpr (K == Operand2Kind::REG) {
        return c.state.regs[o.rm];
    } else if constexpr (K == Operand2Kind::REG_SHIFT_IMM) {
        uint32_t v = c.state.regs[o.rm];
        unsigned amount = o.shiftAmount;
        switch (static_cast<ShiftType>(o.shiftType)) {
          case ShiftType::LSL: return amount ? v << amount : v;
          case ShiftType::LSR: return amount ? v >> amount : v;
          case ShiftType::ASR:
            return amount ? static_cast<uint32_t>(
                                static_cast<int32_t>(v) >> amount)
                          : v;
          case ShiftType::ROR: return rotr32(v, amount);
          default: panic("bad shift type");
        }
    } else { // REG_SHIFT_REG
        uint32_t v = c.state.regs[o.rm];
        unsigned amount = c.state.regs[o.rs] & 0xffu;
        switch (static_cast<ShiftType>(o.shiftType)) {
          case ShiftType::LSL:
            return amount >= 32 ? 0u : (amount ? v << amount : v);
          case ShiftType::LSR:
            return amount >= 32 ? 0u : (amount ? v >> amount : v);
          case ShiftType::ASR:
            if (amount >= 32)
                amount = 31;
            return static_cast<uint32_t>(static_cast<int32_t>(v) >>
                                         amount);
          case ShiftType::ROR:
            return rotr32(v, amount & 31u);
          default: panic("bad shift type");
        }
    }
}

// --- handlers ------------------------------------------------------------

/** All 16 data-processing ops, specialized on (op, op2 kind, S bit). */
template <Op OP, Operand2Kind K, bool SF>
void
opDp(FastCtx &c, const FastOp &o)
{
    const uint32_t a = c.state.regs[o.rn];
    const uint32_t b = evalOp2<K>(c, o);

    if constexpr (OP == Op::AND || OP == Op::EOR || OP == Op::ORR ||
                  OP == Op::BIC || OP == Op::MOV || OP == Op::MVN ||
                  OP == Op::TST || OP == Op::TEQ) {
        uint32_t result;
        if constexpr (OP == Op::AND || OP == Op::TST)
            result = a & b;
        else if constexpr (OP == Op::EOR || OP == Op::TEQ)
            result = a ^ b;
        else if constexpr (OP == Op::ORR)
            result = a | b;
        else if constexpr (OP == Op::BIC)
            result = a & ~b;
        else if constexpr (OP == Op::MOV)
            result = b;
        else
            result = ~b; // MVN
        // Logical ops update N and Z; C and V are preserved (uARM
        // simplification: no shifter carry-out).
        if constexpr (SF)
            setNZ(c.state, result);
        if constexpr (OP != Op::TST && OP != Op::TEQ)
            c.state.regs[o.rd] = result;
    } else if constexpr (OP == Op::ADD || OP == Op::ADC ||
                         OP == Op::CMN) {
        uint32_t cin =
            OP == Op::ADC ? (c.state.flags.c ? 1u : 0u) : 0u;
        uint32_t result = addWithCarry<SF>(c.state, a, b, cin);
        if constexpr (OP != Op::CMN)
            c.state.regs[o.rd] = result;
    } else if constexpr (OP == Op::SUB || OP == Op::SBC ||
                         OP == Op::CMP) {
        uint32_t cin =
            OP == Op::SBC ? (c.state.flags.c ? 1u : 0u) : 1u;
        uint32_t result = addWithCarry<SF>(c.state, a, ~b, cin);
        if constexpr (OP != Op::CMP)
            c.state.regs[o.rd] = result;
    } else { // RSB / RSC
        static_assert(OP == Op::RSB || OP == Op::RSC);
        uint32_t cin =
            OP == Op::RSC ? (c.state.flags.c ? 1u : 0u) : 1u;
        c.state.regs[o.rd] = addWithCarry<SF>(c.state, b, ~a, cin);
    }
}

void
opMovw(FastCtx &c, const FastOp &o)
{
    c.state.regs[o.rd] = o.imm & 0xffffu;
}

void
opMovt(FastCtx &c, const FastOp &o)
{
    c.state.regs[o.rd] =
        (c.state.regs[o.rd] & 0xffffu) | (o.imm << 16);
}

template <bool SF>
void
opMul(FastCtx &c, const FastOp &o)
{
    uint32_t result = c.state.regs[o.rm] * c.state.regs[o.rs];
    if constexpr (SF)
        setNZ(c.state, result);
    c.state.regs[o.rd] = result;
}

template <bool SF>
void
opMla(FastCtx &c, const FastOp &o)
{
    uint32_t result =
        c.state.regs[o.rm] * c.state.regs[o.rs] + c.state.regs[o.ra];
    if constexpr (SF)
        setNZ(c.state, result);
    c.state.regs[o.rd] = result;
}

void
opUmull(FastCtx &c, const FastOp &o)
{
    if (o.rd == o.ra)
        trap("umull with rdLo == rdHi (r%u) is unpredictable", o.rd);
    uint64_t wide =
        static_cast<uint64_t>(c.state.regs[o.rm]) * c.state.regs[o.rs];
    c.state.regs[o.ra] = static_cast<uint32_t>(wide);
    c.state.regs[o.rd] = static_cast<uint32_t>(wide >> 32);
}

void
opSmull(FastCtx &c, const FastOp &o)
{
    if (o.rd == o.ra)
        trap("smull with rdLo == rdHi (r%u) is unpredictable", o.rd);
    int64_t wide = static_cast<int64_t>(
                       static_cast<int32_t>(c.state.regs[o.rm])) *
                   static_cast<int32_t>(c.state.regs[o.rs]);
    c.state.regs[o.ra] = static_cast<uint32_t>(wide);
    c.state.regs[o.rd] =
        static_cast<uint32_t>(static_cast<uint64_t>(wide) >> 32);
}

void
opClz(FastCtx &c, const FastOp &o)
{
    // Same result as executor.cc's count loop, including 32 for zero.
    c.state.regs[o.rd] = static_cast<uint32_t>(
        std::countl_zero(c.state.regs[o.rm]));
}

void
opSdiv(FastCtx &c, const FastOp &o)
{
    int32_t num = static_cast<int32_t>(c.state.regs[o.rn]);
    int32_t den = static_cast<int32_t>(c.state.regs[o.rm]);
    int32_t q;
    if (den == 0)
        q = 0;
    else if (num == std::numeric_limits<int32_t>::min() && den == -1)
        q = num;
    else
        q = num / den;
    c.state.regs[o.rd] = static_cast<uint32_t>(q);
}

void
opUdiv(FastCtx &c, const FastOp &o)
{
    uint32_t den = c.state.regs[o.rm];
    c.state.regs[o.rd] = den ? c.state.regs[o.rn] / den : 0u;
}

void
opQadd(FastCtx &c, const FastOp &o)
{
    int64_t sum = static_cast<int64_t>(
                      static_cast<int32_t>(c.state.regs[o.rn])) +
                  static_cast<int32_t>(c.state.regs[o.rm]);
    c.state.regs[o.rd] = static_cast<uint32_t>(saturate64(sum));
}

void
opQsub(FastCtx &c, const FastOp &o)
{
    int64_t diff = static_cast<int64_t>(
                       static_cast<int32_t>(c.state.regs[o.rn])) -
                   static_cast<int32_t>(c.state.regs[o.rm]);
    c.state.regs[o.rd] = static_cast<uint32_t>(saturate64(diff));
}

/** Single-transfer loads/stores, specialized on (op, offset, U bit). */
template <Op OP, MemOffsetKind K, bool ADD>
void
opMem(FastCtx &c, const FastOp &o)
{
    uint32_t offset;
    if constexpr (K == MemOffsetKind::IMM) {
        offset = static_cast<uint32_t>(o.memDisp);
    } else {
        uint32_t rm_val = c.state.regs[o.rm];
        if constexpr (K == MemOffsetKind::REG_SHIFT_IMM)
            rm_val <<= o.shiftAmount;
        offset = ADD ? rm_val : 0u - rm_val;
    }
    const uint32_t addr = c.state.regs[o.rn] + offset;
    constexpr bool kStore =
        OP == Op::STR || OP == Op::STRB || OP == Op::STRH;
    c.memAcc[0] = ExecInfo::MemAccess{addr, kStore};
    c.numMem = 1;

    if constexpr (OP == Op::LDR) {
        c.state.regs[o.rd] = c.mem.read32(addr);
    } else if constexpr (OP == Op::LDRB) {
        c.state.regs[o.rd] = c.mem.read8(addr);
    } else if constexpr (OP == Op::LDRH) {
        c.state.regs[o.rd] = c.mem.read16(addr);
    } else if constexpr (OP == Op::LDRSB) {
        c.state.regs[o.rd] = static_cast<uint32_t>(static_cast<int32_t>(
            static_cast<int8_t>(c.mem.read8(addr))));
    } else if constexpr (OP == Op::LDRSH) {
        c.state.regs[o.rd] = static_cast<uint32_t>(static_cast<int32_t>(
            static_cast<int16_t>(c.mem.read16(addr))));
    } else if constexpr (OP == Op::STR) {
        c.mem.write32(addr, c.state.regs[o.rd]);
    } else if constexpr (OP == Op::STRB) {
        c.mem.write8(addr, static_cast<uint8_t>(c.state.regs[o.rd]));
    } else {
        static_assert(OP == Op::STRH);
        c.mem.write16(addr, static_cast<uint16_t>(c.state.regs[o.rd]));
    }
}

void
opLdm(FastCtx &c, const FastOp &o)
{
    // Pop style: LDMIA rn!, {list}
    uint32_t addr = c.state.regs[o.rn];
    unsigned n = 0;
    const bool base_in_list = ((o.regList >> o.rn) & 1u) != 0;
    for (uint32_t m = o.regList; m != 0; m &= m - 1) {
        const unsigned reg =
            static_cast<unsigned>(std::countr_zero(m));
        c.state.regs[reg] = c.mem.read32(addr);
        c.memAcc[n++] = ExecInfo::MemAccess{addr, false};
        addr += 4;
    }
    c.numMem = n;
    if (!base_in_list)
        c.state.regs[o.rn] = addr; // writeback
}

void
opStm(FastCtx &c, const FastOp &o)
{
    // Push style: STMDB rn!, {list}
    const unsigned count = popcount32(o.regList);
    uint32_t addr = c.state.regs[o.rn] - 4u * count;
    const uint32_t new_base = addr;
    // Base-in-list stores the *original* base value (the register
    // file is read before writeback) and, mirroring LDM, suppresses
    // the writeback instead of clobbering the base.
    const bool base_in_list = ((o.regList >> o.rn) & 1u) != 0;
    unsigned n = 0;
    for (uint32_t m = o.regList; m != 0; m &= m - 1) {
        const unsigned reg =
            static_cast<unsigned>(std::countr_zero(m));
        c.mem.write32(addr, c.state.regs[reg]);
        c.memAcc[n++] = ExecInfo::MemAccess{addr, true};
        addr += 4;
    }
    c.numMem = n;
    if (!base_in_list)
        c.state.regs[o.rn] = new_base;
}

void
opB(FastCtx &c, const FastOp &o)
{
    c.nextIndex = o.branchTarget;
}

void
opBl(FastCtx &c, const FastOp &o)
{
    c.state.regs[LR] = o.imm; // precomputed codec.addrOf(index + 1)
    c.nextIndex = o.branchTarget;
}

void
opRet(FastCtx &c, const FastOp &)
{
    const uint32_t target = c.state.regs[LR];
    if (target < c.codec.base ||
        ((target - c.codec.base) & ((1u << c.codec.shift) - 1u)) != 0) {
        trap("ret to unaligned or out-of-range address 0x%08x",
             target);
    }
    c.nextIndex = c.codec.indexOf(target);
}

void
opSwi(FastCtx &c, const FastOp &o)
{
    switch (o.imm) {
      case SWI_EXIT:
        c.state.halted = true;
        break;
      case SWI_PUTC:
        c.io.console.push_back(
            static_cast<char>(c.state.regs[R0] & 0xffu));
        break;
      case SWI_EMIT_WORD:
        c.io.emitted.push_back(c.state.regs[R0]);
        break;
      default:
        trap("unknown swi #%u", o.imm);
    }
}

void
opNop(FastCtx &, const FastOp &)
{
}

// --- predecode -----------------------------------------------------------

template <Op OP, Operand2Kind K>
FastExecFn
pickDpSf(const MicroOp &u)
{
    return u.setsFlags ? &opDp<OP, K, true> : &opDp<OP, K, false>;
}

template <Op OP>
FastExecFn
pickDp(const MicroOp &u)
{
    switch (u.op2Kind) {
      case Operand2Kind::IMM:
        return pickDpSf<OP, Operand2Kind::IMM>(u);
      case Operand2Kind::REG:
        return pickDpSf<OP, Operand2Kind::REG>(u);
      case Operand2Kind::REG_SHIFT_IMM:
        return pickDpSf<OP, Operand2Kind::REG_SHIFT_IMM>(u);
      case Operand2Kind::REG_SHIFT_REG:
        return pickDpSf<OP, Operand2Kind::REG_SHIFT_REG>(u);
      default: panic("bad operand2 kind");
    }
}

template <Op OP>
FastExecFn
pickMem(const MicroOp &u)
{
    switch (u.memKind) {
      case MemOffsetKind::IMM:
        return &opMem<OP, MemOffsetKind::IMM, true>;
      case MemOffsetKind::REG:
        return u.memAdd ? &opMem<OP, MemOffsetKind::REG, true>
                        : &opMem<OP, MemOffsetKind::REG, false>;
      case MemOffsetKind::REG_SHIFT_IMM:
        return u.memAdd
                   ? &opMem<OP, MemOffsetKind::REG_SHIFT_IMM, true>
                   : &opMem<OP, MemOffsetKind::REG_SHIFT_IMM, false>;
      default: panic("bad memory offset kind");
    }
}

FastExecFn
pickHandler(const MicroOp &u)
{
    switch (u.op) {
      case Op::AND: return pickDp<Op::AND>(u);
      case Op::EOR: return pickDp<Op::EOR>(u);
      case Op::SUB: return pickDp<Op::SUB>(u);
      case Op::RSB: return pickDp<Op::RSB>(u);
      case Op::ADD: return pickDp<Op::ADD>(u);
      case Op::ADC: return pickDp<Op::ADC>(u);
      case Op::SBC: return pickDp<Op::SBC>(u);
      case Op::RSC: return pickDp<Op::RSC>(u);
      case Op::TST: return pickDp<Op::TST>(u);
      case Op::TEQ: return pickDp<Op::TEQ>(u);
      case Op::CMP: return pickDp<Op::CMP>(u);
      case Op::CMN: return pickDp<Op::CMN>(u);
      case Op::ORR: return pickDp<Op::ORR>(u);
      case Op::MOV: return pickDp<Op::MOV>(u);
      case Op::BIC: return pickDp<Op::BIC>(u);
      case Op::MVN: return pickDp<Op::MVN>(u);
      case Op::MUL: return u.setsFlags ? &opMul<true> : &opMul<false>;
      case Op::MLA: return u.setsFlags ? &opMla<true> : &opMla<false>;
      case Op::UMULL: return &opUmull;
      case Op::SMULL: return &opSmull;
      case Op::CLZ: return &opClz;
      case Op::SDIV: return &opSdiv;
      case Op::UDIV: return &opUdiv;
      case Op::QADD: return &opQadd;
      case Op::QSUB: return &opQsub;
      case Op::MOVW: return &opMovw;
      case Op::MOVT: return &opMovt;
      case Op::LDR: return pickMem<Op::LDR>(u);
      case Op::STR: return pickMem<Op::STR>(u);
      case Op::LDRB: return pickMem<Op::LDRB>(u);
      case Op::STRB: return pickMem<Op::STRB>(u);
      case Op::LDRH: return pickMem<Op::LDRH>(u);
      case Op::STRH: return pickMem<Op::STRH>(u);
      case Op::LDRSB: return pickMem<Op::LDRSB>(u);
      case Op::LDRSH: return pickMem<Op::LDRSH>(u);
      case Op::LDM: return &opLdm;
      case Op::STM: return &opStm;
      case Op::B: return &opB;
      case Op::BL: return &opBl;
      case Op::RET: return &opRet;
      case Op::SWI: return &opSwi;
      case Op::NOP: return &opNop;
      default: panic("unexecutable op %s", opName(u.op));
    }
}

/** ExecInfo::extraLatency is a pure function of the static op (the
 * LDM/STM word count is the register-list popcount). */
uint8_t
staticLatency(const MicroOp &u)
{
    switch (u.op) {
      case Op::MUL: case Op::MLA: return 2;
      case Op::UMULL: case Op::SMULL: return 3;
      case Op::SDIV: case Op::UDIV: return 11;
      case Op::LDM: case Op::STM:
        return static_cast<uint8_t>(popcount32(u.regList));
      default: return 0;
    }
}

/** ExecInfo::destReg is a pure function of the static op: every op
 * that writes a destination writes its static rd (executor.cc's
 * writeRd), except BL which links into LR; the rest leave 0xff. */
uint8_t
staticDest(const MicroOp &u)
{
    switch (u.op) {
      case Op::TST: case Op::TEQ: case Op::CMP: case Op::CMN:
      case Op::STR: case Op::STRB: case Op::STRH:
      case Op::LDM: case Op::STM:
      case Op::B: case Op::RET: case Op::SWI: case Op::NOP:
        return 0xff;
      case Op::BL:
        return static_cast<uint8_t>(LR);
      default:
        return u.rd;
    }
}

uint16_t
staticFlags(const MicroOp &u)
{
    uint16_t flags = 0;
    if (u.setsFlags)
        flags |= kSetsFlags;
    if (isLoad(u.op))
        flags |= kIsLoad;
    if (isStore(u.op))
        flags |= kIsStore;
    if (isMulDivOp(u.op))
        flags |= kIsMulDiv;
    if (isBranchOp(u.op))
        flags |= kIsBranch;
    if (u.op == Op::LDM || u.op == Op::STM) {
        flags |= u.op == Op::LDM ? kIsLdm : kIsStm;
        if (((u.regList >> u.rn) & 1u) == 0)
            flags |= kBaseWb;
    }
    if (u.op == Op::UMULL || u.op == Op::SMULL)
        flags |= kIsLongMul;
    return flags;
}

/** Always-ready scoreboard pad index used by FastOp::readRegs (the
 * reg_ready array has one extra never-written slot past the NZCV
 * entry, so padded operand reads always see cycle 0). */
constexpr unsigned kReadPad = NUM_REGS + 1;

/**
 * Writeback scratch slot: ops with no destination register predecode
 * their wbReg to this never-read scoreboard entry, so the hot
 * writeback path is one unconditional store instead of a branch.
 */
constexpr unsigned kWritePad = NUM_REGS + 2;

/**
 * One register-resident line streak: repeat hits of @p line accumulate
 * in @p reads / @p writes and are applied in one applyRepeatsAt()
 * batch when the streak flushes. @p idx is the lines_ slot captured
 * from Cache::lastHitIdx() when the streak opened; it stays valid for
 * the streak's whole life because, by construction, every access in
 * between lands on a tracked line and touches nothing in the array.
 *
 * The loop keeps TWO streaks per cache and flushes them in last-touch
 * order, which preserves the relative in-set LRU stamp order of a
 * per-access run (see Cache::applyRepeatsAt). Two entries make the
 * common alternating patterns — a loop body spanning a line boundary,
 * a kernel walking one buffer against a table — run entirely in
 * registers.
 */
struct Streak
{
    uint64_t line = Cache::kNoLine;
    size_t idx = 0;
    uint32_t reads = 0;
    uint32_t writes = 0;
    /**
     * How many of the pending touches were way-memo hits — accesses
     * whose *dynamically previous* access (across both streaks and the
     * full path) was to this same line. With two interleaved streaks a
     * touch that re-enters this streak after the other one is a repeat
     * hit but not a memo hit, so the count is carried explicitly
     * instead of assuming reads + writes (Cache::applyRepeatsAt).
     * Always <= reads + writes.
     */
    uint32_t memoHits = 0;
    /**
     * D-side only: a write to this line can be absorbed without an
     * S->M upgrade. Always true without an L2; with one, true only
     * when the access that opened the streak wrote the line (so the
     * directory holds it Modified for this tile).
     */
    bool writeOk = true;
};

__attribute__((always_inline)) inline void
flushStreak(Cache &cache, Streak &s)
{
    if ((s.reads | s.writes) != 0) {
        cache.applyRepeatsAt(s.idx, s.reads, s.writes, s.memoHits);
        s.reads = s.writes = s.memoHits = 0;
    }
}

/**
 * One L1's two streaks, which was used last, and the way-memo mirror
 * prevLine: the line of the dynamically previous access, mirroring
 * Cache::lastLineAddr() across streak touches (which leave the Cache
 * hint alone). A streak touch is a way-memo hit only when the access
 * before it was to the same line. Full accesses count memo hits inside
 * Cache — at a full-access site the hint is kNoLine or a tracked
 * streak line, and the new line is neither, so the internal check
 * agrees with prevLine — and the caller resyncs the mirror afterwards.
 * prevLine is always kNoLine, the cache's own hint, or a streak line.
 */
struct LineTrack
{
    Streak a;
    Streak b;
    bool lastB = false;
    uint64_t prevLine = Cache::kNoLine;

    /** The streak touch() or arm() used last. */
    Streak &last() { return lastB ? b : a; }

    /** Count @p n repeat reads (writes if @p write) of @p line into
     * the streak tracking it, if it may absorb them (Streak::writeOk).
     * The first is a memo hit iff prevLine is this line; the rest are.
     * @return false when a full access is needed. */
    __attribute__((always_inline)) bool
    touch(uint64_t line, uint32_t n, bool write)
    {
        if (line == a.line && (!write || a.writeOk))
            lastB = false;
        else if (line == b.line && (!write || b.writeOk))
            lastB = true;
        else
            return false;
        Streak &s = last();
        (write ? s.writes : s.reads) += n;
        s.memoHits += n - 1 + (line == prevLine ? 1u : 0u);
        prevLine = line;
        return true;
    }

    /** After a full access to @p line: if it is resident and clean
     * (the repeat-hint contract), track it in the older streak, so an
     * alternating pair converges to both being tracked, with @p reads
     * memo-hit repeat reads pending. @return whether it did. */
    __attribute__((always_inline)) bool
    arm(const Cache &cache, uint64_t line, uint32_t reads, bool writeOk)
    {
        if (cache.lastLineAddr() != line)
            return false;
        if (lastB)
            open(a, line, cache.lastHitIdx(), reads, writeOk);
        else
            open(b, line, cache.lastHitIdx(), reads, writeOk);
        lastB = !lastB;
        return true;
    }

    /** Flush both streaks' pending hits, older-touched first, so their
     * batched LRU stamps land in the order of the accesses they stand
     * for. Must run before ANY full cache access (or fault injection)
     * so no later tick can slip under a pending one. */
    __attribute__((always_inline)) void
    flush(Cache &cache)
    {
        if (lastB) {
            flushStreak(cache, a);
            flushStreak(cache, b);
        } else {
            flushStreak(cache, b);
            flushStreak(cache, a);
        }
    }

    /** Stop tracking both (flushed) lines: a refill or a fault may
     * have taken them away. */
    void drop() { a.line = b.line = Cache::kNoLine; }

    /**
     * Flush both streaks, stop tracking their lines, and re-point the
     * cache's repeat hint at the line the memo mirror names, so the
     * full accesses that follow memo-count exactly like a per-access
     * run. Runs before every L2 call and every coherence action on the
     * tile: the L2 may drop or clean any tracked line, and a streak
     * must neither outlive its line nor absorb a write that needs an
     * S->M upgrade.
     */
    __attribute__((always_inline)) void
    release(Cache &cache)
    {
        flush(cache);
        if (prevLine != Cache::kNoLine &&
            prevLine != cache.lastLineAddr()) {
            if (prevLine == a.line)
                cache.restoreHint(a.line, a.idx);
            else if (prevLine == b.line)
                cache.restoreHint(b.line, b.idx);
        }
        drop();
    }

  private:
    __attribute__((always_inline)) static void
    open(Streak &s, uint64_t line, size_t idx, uint32_t reads, bool writeOk)
    {
        s = Streak{line, idx, reads, 0, reads, writeOk};
    }
};

/**
 * Dense id for the execute switch: every data-processing shape short
 * of REG_SHIFT_REG, the add-direction single-register loads/stores,
 * and the unconditional control ops get an inlined case; everything
 * else returns 0 and dispatches through the handler pointer.
 */
uint8_t
hotId(const MicroOp &u)
{
    const unsigned opi = static_cast<unsigned>(u.op);
    const unsigned ki = static_cast<unsigned>(u.op2Kind);
    const unsigned mki = static_cast<unsigned>(u.memKind);
    if (opi < 16 && ki < 3)
        return static_cast<uint8_t>(1 + opi * 6 + ki * 2 +
                                    (u.setsFlags ? 1 : 0));
    if ((u.op == Op::LDR || u.op == Op::STR || u.op == Op::LDRB ||
         u.op == Op::STRB) &&
        u.memAdd && mki < 3)
        return static_cast<uint8_t>(97 + (opi - 27) * 3 + mki);
    if (u.op == Op::B)
        return 109;
    if (u.op == Op::BL)
        return 110;
    if (u.op == Op::RET)
        return 111;
    return 0;
}

std::vector<FastOp>
predecode(const FrontEnd &fe)
{
    const AddrCodec codec = fe.codec();
    const size_t n = fe.numInstructions();
    const uint32_t enc_mask = detail::encodingMask(fe.instrBits());
    std::vector<FastOp> ops(n);
    for (size_t i = 0; i < n; ++i) {
        const MicroOp &u = fe.uopAt(i);
        FastOp &o = ops[i];
        o.fn = pickHandler(u);
        o.hot = hotId(u);
        o.uop = &u;
        o.addr = codec.addrOf(i);
        o.encoding = fe.encodingAt(i);
        o.readMask = u.readRegMask();
        o.imm = u.imm;
        o.memDisp = u.memDisp;
        o.regList = u.regList;
        o.rd = u.rd;
        o.rn = u.rn;
        o.rm = u.rm;
        o.rs = u.rs;
        o.ra = u.ra;
        o.cond = static_cast<uint8_t>(u.cond);
        o.shiftType = static_cast<uint8_t>(u.shiftType);
        o.shiftAmount = u.shiftAmount;
        o.flags = staticFlags(u);
        o.wbReg = staticDest(u);
        if (o.wbReg == 0xff)
            o.wbReg = static_cast<uint8_t>(kWritePad);
        o.baseLatency = staticLatency(u);
        o.toggleSeq = static_cast<uint8_t>(popcount32(
            (o.encoding ^ (i ? ops[i - 1].encoding : 0u)) & enc_mask));
        if (o.readMask & (1u << NUM_REGS))
            o.flags |= kReadsFlags;
        if (popcount32(o.readMask & 0xffffu) > 2)
            o.flags |= kManyReads;
        unsigned nread = 0;
        for (uint32_t m = o.readMask & 0xffffu; m != 0; m &= m - 1) {
            if (nread == 4) {
                o.flags |= kWideRead;
                break;
            }
            o.readRegs[nread++] = static_cast<uint8_t>(
                std::countr_zero(m));
        }
        while (nread < 4)
            o.readRegs[nread++] = static_cast<uint8_t>(kReadPad);
        if (u.op == Op::B || u.op == Op::BL) {
            // Same uint64 wrap as the interpreter's index+branchOffset:
            // a transfer below index 0 lands on AddrCodec::kBadIndex or
            // an out-of-range index and traps identically in the loop.
            o.branchTarget =
                i + static_cast<uint64_t>(
                        static_cast<int64_t>(u.branchOffset));
            if (u.op == Op::BL)
                o.imm = codec.addrOf(i + 1); // precomputed link address
        }
    }
    return ops;
}


/**
 * The superblock run-length rule. A run is a maximal straight-line
 * span: it ends at the first op that can redirect control or halt
 * (branches, cold shapes, the program's last op). Element i is the
 * length of the run entered at i — valid from ANY entry index, so
 * branch targets need no leader bookkeeping. It depends on the trace
 * alone, so the tiles and the functional run (runFunctional) share it.
 */
std::vector<uint32_t>
runLengths(const std::vector<FastOp> &ops)
{
    const size_t n = ops.size();
    std::vector<uint32_t> len(n);
    for (size_t i = n; i-- > 0;) {
        const bool term = (ops[i].flags & kIsBranch) != 0 ||
                          ops[i].hot == 0 || i == n - 1;
        len[i] = term ? 1u : len[i + 1] + 1u;
    }
    return len;
}

/**
 * A tile's immutable program: the predecoded trace plus the superblock
 * tables. runLen is the run-length rule above (runLengths),
 * segOps[i] the length of the sequential same-I-line stretch from i,
 * wordPre/seqPre prefix sums of fetched words and sequential toggle
 * bits for range queries and trap-site reconciliation. Tiles running
 * one program share it (engineTileFactory).
 */
struct Predecoded
{
    Predecoded(const FrontEnd &fe, const CoreConfig &config);

    std::vector<FastOp> ops;
    std::vector<uint32_t> runLen;
    std::vector<uint32_t> segOps;
    std::vector<uint32_t> wordPre;
    std::vector<uint64_t> seqPre;
};

Predecoded::Predecoded(const FrontEnd &fe, const CoreConfig &config)
    : ops(predecode(fe)), runLen(runLengths(ops)), segOps(ops.size()),
      wordPre(ops.size() + 1), seqPre(ops.size() + 1)
{
    const FastOp *const code = ops.data();
    const size_t n = ops.size();
    const unsigned iline_shift = static_cast<unsigned>(
        std::countr_zero(config.icache.lineBytes));
    for (size_t i = 0; i < n; ++i) {
        // Mirrors the per-op path's new_word rule: without the
        // packed-fetch buffer EVERY fetch accesses the cache, even
        // when consecutive 2-byte encodings share a 32-bit word.
        // Word-transition counting here is only correct under packed
        // fetch (where mid-run static predecessors equal dynamic
        // ones); applying it unpacked undercounts I-cache reads on
        // sub-word streams.
        const bool new_w =
            !config.packedFetch || i == 0 ||
            (code[i].addr >> 2) != (code[i - 1].addr >> 2);
        wordPre[i + 1] = wordPre[i] + (new_w ? 1u : 0u);
        seqPre[i + 1] = seqPre[i] + code[i].toggleSeq;
    }
    for (size_t i = n; i-- > 0;) {
        const bool same_line =
            i + 1 < n && (code[i].addr >> iline_shift) ==
                             (code[i + 1].addr >> iline_shift);
        segOps[i] = same_line ? segOps[i + 1] + 1u : 1u;
    }
}

/**
 * The engine tile: the predecoded trace and the dispatch loop below.
 * Between quanta the loop's scalar state lives in one LoopState, the
 * scoreboard in regReady_ and each L1's streaks in a LineTrack.
 * stepImpl copies each into one local on entry and back once after
 * every exit path has joined, so a step boundary is unobservable.
 */
class FastTile final : public Tile
{
  public:
    FastTile(const FrontEnd &fe, const CoreConfig &config, Memory &mem,
             unsigned tileId, std::shared_ptr<const Predecoded> trace);

    void
    attachL2(CoherentL2 *l2, uint32_t addrBase) override
    {
        l2_ = l2;
        addrBase_ = addrBase;
    }

    void step(uint64_t budget, FaultPlan *faults,
              const ObserverList *observers) override;
    bool done() const override { return done_; }
    RunResult finish(const ObserverList *observers) override;

    bool
    coherenceInvalidate(uint32_t lineAddr) override
    {
        releaseTracks();
        const uint32_t virt = lineAddr - addrBase_;
        // The packed-fetch buffer may hold a word of the dropped line.
        if (icache_.invalidateLine(virt).present)
            fetchPoisoned_ = true;
        const bool dirty = dcache_.invalidateLine(virt).dirty;
        // invalidateLine clears a repeat hint naming the dropped line.
        itrack_.prevLine = icache_.lastLineAddr();
        dtrack_.prevLine = dcache_.lastLineAddr();
        return dirty;
    }

    bool
    coherenceDowngrade(uint32_t lineAddr) override
    {
        // The line turns clean, so no streak may keep absorbing writes
        // to it. I-side lines are never dirty and stay resident.
        releaseTracks();
        return dcache_.cleanLine(lineAddr - addrBase_).dirty;
    }

    void
    enumerateLines(
        const std::function<void(uint32_t, bool)> &fn) const override
    {
        for (const Cache *cache : {&icache_, &dcache_})
            cache->forEachValidLine([&](uint32_t la, bool dirty) {
                fn(addrBase_ + la, dirty);
            });
    }

  private:
    struct LoopState;

    template <bool HasExtra, bool HasFaults, bool Packed>
    void stepImpl(uint64_t budget, FaultPlan *faults,
                  const ObserverList *extra);

    /**
     * The L2 seam: the fill of L1 miss @p miss (draining a dirty victim
     * first, so its data is in the L2 when the fill's own victim
     * selection runs), or with @p miss null a write hit's S->M
     * upgrade. Both caches' streaks are released before the call (the
     * directory may drop or clean any of our lines, the requesting
     * tile included); the memo mirrors and the packed-fetch buffer
     * resync after it. @return the penalty in cycles.
     */
    __attribute__((always_inline)) uint32_t
    callL2(LoopState &s, LineTrack &itrack, LineTrack &dtrack,
           uint32_t addr, bool write, const CacheAccessResult *miss)
    {
        itrack.release(icache_);
        dtrack.release(dcache_);
        if (miss && miss->writeback)
            l2_->l1Writeback(tileId_, addrBase_ + miss->victimAddr);
        const uint32_t penalty =
            miss ? l2_->accessFill(tileId_, addrBase_ + addr, write)
                 : l2_->upgradeForWrite(tileId_, addrBase_ + addr);
        itrack.prevLine = icache_.lastLineAddr();
        dtrack.prevLine = dcache_.lastLineAddr();
        if (fetchPoisoned_) {
            s.prevWordAddr = kNoFetchWord;
            fetchPoisoned_ = false;
        }
        return penalty;
    }

    /** Release both L1s' member streaks (between steps). */
    void
    releaseTracks()
    {
        itrack_.release(icache_);
        dtrack_.release(dcache_);
    }

    const CoreConfig config_;
    const unsigned tileId_;
    Cache icache_;
    Cache dcache_;
    const std::shared_ptr<const Predecoded> trace_;
    FastCtx ctx_;
    const unsigned fetchBits_;

    // Scoreboard: index NUM_REGS is the retired NZCV slot kept for
    // layout, NUM_REGS + 1 (kReadPad) is never written and pads
    // readRegs slots, NUM_REGS + 2 (kWritePad) absorbs writebacks of
    // ops with no destination; the NZCV ready cycle is
    // LoopState::flagsReady.
    uint64_t regReady_[NUM_REGS + 3] = {};

    static constexpr uint64_t kNoFetchWord = ~0ull;

    /**
     * The loop's scalar state. stepImpl works on one local copy the
     * compiler can keep in registers, so no field's address may leave
     * it: a pointer into it, or a lambda capture nested in another
     * closure, pins the whole copy to the stack.
     */
    struct LoopState
    {
        // Issue timing: the scoreboard's flag slot, the issue slot,
        // port and unit state, and the front end.
        uint64_t flagsReady = 0, issueCycle = 0;
        unsigned slotsUsed = 0;
        bool memPortUsed = false, mulUnitUsed = false;
        uint64_t frontReady = 0, lastIssue = 0;

        uint64_t prevWordAddr = kNoFetchWord; //!< packed-fetch buffer tag
        uint64_t index = 0;
        uint64_t retired = 0; //!< watchdog / fault-schedule clock

        // The RunResult counters (retired is the instruction count).
        uint64_t annulled = 0, takenBranches = 0, dmemAccesses = 0;
        uint64_t toggleBits = 0, bitsTotal = 0, refillWords = 0;
        // Sequential-fetch toggle fast path: while control flow arrives
        // sequentially the per-op toggle count is the predecoded
        // toggleSeq; only the first fetch after a taken branch runs
        // the XOR + popcount against its encoding (dynEnc).
        bool seqFetch = true;
        uint32_t dynEnc = 0;
        uint64_t batchedOps = 0; //!< ops retired in superblock batches
    };
    LoopState loop_;

    LineTrack itrack_;
    LineTrack dtrack_;

    RunResult result_;
    bool done_ = false;
    bool finished_ = false;

    CoherentL2 *l2_ = nullptr;
    uint32_t addrBase_ = 0;

    //! A coherence invalidation dropped an I-line the packed-fetch
    //! buffer may hold a word of (packed-fetch buffer contract,
    //! sim/machine.hh); checked at step entry and after every L2 call.
    bool fetchPoisoned_ = false;
};

FastTile::FastTile(const FrontEnd &fe, const CoreConfig &config,
                   Memory &mem, unsigned tileId,
                   std::shared_ptr<const Predecoded> trace)
    : config_(config), tileId_(tileId), icache_(config_.icache),
      dcache_(config_.dcache), trace_(std::move(trace)), ctx_(mem),
      fetchBits_(fe.instrBits())
{
    ctx_.state.regs[SP] = fe.stackTop();
    ctx_.codec = fe.codec();
    result_.benchmark = fe.name();
    result_.config = config_.name;
    result_.clockHz = config_.clockHz;
    result_.outcome = RunOutcome::Completed;
}

} // namespace

// --- the loop ------------------------------------------------------------

/**
 * The dispatch loop, stamped out per static shape so the hot path
 * carries no dead branches: HasExtra (external observers attached),
 * HasFaults (a fault plan is active) and Packed (16-bit packed fetch,
 * which needs the same-word filter) are all template parameters. The
 * zero-observer, zero-fault instantiation is the one the experiment
 * engine runs; everything it skips is code that never executes rather
 * than predicated-off work. An attached L2 is a runtime property: it
 * only adds work on L1 misses and S->M upgrades.
 */
template <bool HasExtra, bool HasFaults, bool Packed>
void
FastTile::stepImpl(uint64_t budget, [[maybe_unused]] FaultPlan *faults,
                   [[maybe_unused]] const ObserverList *extra)
{
    Cache &icache = icache_;
    Cache &dcache = dcache_;
    FastCtx &ctx = ctx_;
    Memory &mem = ctx.mem;
    const Predecoded &trace = *trace_;
    const FastOp *const code = trace.ops.data();
    const size_t num_insns = trace.ops.size();
    CoherentL2 *const l2 = l2_;

    const unsigned fetch_bits = fetchBits_;
    const uint32_t enc_mask = detail::encodingMask(fetch_bits);
    const uint32_t line_words = config_.icache.lineBytes / 4;
    // Line sizes are validated powers of two: shifts replace divisions
    // in the per-fetch repeat-hint comparison.
    const unsigned iline_shift = static_cast<unsigned>(
        std::countr_zero(config_.icache.lineBytes));
    const unsigned dline_shift = static_cast<unsigned>(
        std::countr_zero(config_.dcache.lineBytes));

    // Hot config fields and the loop state mirrored into locals: the
    // indirect handler call makes every member reload non-hoistable,
    // so the loop works on copies and stores the state back once.
    const uint64_t max_instructions = config_.maxInstructions;
    const unsigned issue_width = config_.issueWidth;
    const uint32_t icache_miss_penalty = config_.icacheMissPenalty;
    const uint32_t dcache_miss_penalty = config_.dcacheMissPenalty;
    const uint32_t branch_penalty = config_.branchPenalty;

    LoopState s = loop_;
    uint64_t reg_ready[NUM_REGS + 3];
    std::copy(std::begin(regReady_), std::end(regReady_),
              std::begin(reg_ready));

    // Two-line streak accumulators per cache: repeat hits of a
    // tracked line are counted in registers and flushed through
    // applyRepeatsAt() when a full access is needed, before a fault
    // strikes the array, before any L2 call, and at finish(). While
    // the step runs the locals own them; the members stay empty, so a
    // coherence action triggered by this step's own L2 calls finds
    // nothing stale to flush (releaseTracks).
    LineTrack itrack = std::exchange(itrack_, LineTrack{});
    LineTrack dtrack = std::exchange(dtrack_, LineTrack{});

    // This step ends once `stop` instructions have retired in total;
    // the watchdog and the quantum share one clamp for superblocks.
    const uint64_t stop =
        budget > ~0ull - s.retired ? ~0ull : s.retired + budget;
    const uint64_t limit = std::min(stop, max_instructions);

    // A remote tile may have invalidated the buffered I-line between
    // our quanta.
    if (fetchPoisoned_) {
        s.prevWordAddr = kNoFetchWord;
        fetchPoisoned_ = false;
    }

    // Superblock dispatch (the zero-observer, zero-fault stamps only):
    // ops are retired a run at a time, so the bounds/watchdog checks
    // and the fetch-side accounting hoist from op to run granularity.
    // With an L2 attached every L2 call can take lines away mid-run,
    // so segments shrink to one op (fetch stays exact per op) and the
    // packed-fetch buffer, which such a call can poison, disables
    // batching altogether.
    constexpr bool RunBatch = !HasExtra && !HasFaults;
    [[maybe_unused]] const bool batch_ok = !(Packed && l2);
    [[maybe_unused]] const bool lazy_segs = l2 != nullptr;
    [[maybe_unused]] const uint32_t *const run_len = trace.runLen.data();
    [[maybe_unused]] const uint32_t *const seg_ops = trace.segOps.data();
    [[maybe_unused]] const uint32_t *const word_pre = trace.wordPre.data();
    [[maybe_unused]] const uint64_t *const seq_pre = trace.seqPre.data();

    // The one I-fetch: op k's I-line supplies @p words (>= 1) words to
    // ops [k, j), one word per op or a superblock's same-line segment.
    // A tracked streak takes them all as repeats; otherwise the first
    // word is one full access and the line is re-armed with words - 1
    // pending. For the superblock's trap back-out, @p tracked says
    // itrack.last() holds them and @p first_memo that the first word
    // was a memo hit. A parity error returns at once. The loop state is
    // a parameter, not a capture: fetchSeg captures this lambda, and a
    // nested capture would pin the LoopState to the stack.
    auto fetchLine = [&](LoopState &s, uint64_t k, uint64_t j,
                         uint32_t words, bool &tracked, bool &first_memo)
        __attribute__((always_inline)) -> CacheAccessResult
    {
        const uint32_t addr = code[k].addr;
        const uint64_t iline = addr >> iline_shift;
        // A guaranteed clean re-hit of a tracked line: the first word
        // is a memo hit iff the access before it was in this line;
        // the words - 1 that follow all are.
        first_memo = iline == itrack.prevLine;
        tracked = itrack.touch(iline, words, false);
        if (tracked)
            return CacheAccessResult{.hit = true};
        itrack.flush(icache);
        const CacheAccessResult f = icache.accessFast(addr, false);
        // Full accesses memo-count inside the Cache; resync the mirror
        // to the line they left resident.
        itrack.prevLine = icache.lastLineAddr();
        // Without a fault plan (every superblock stamp) parity errors
        // and corrupt deliveries cannot occur.
        if constexpr (HasFaults) {
            if (f.parityError)
                return f;
            // No checker: the flipped bits reach the decoder. The
            // tag-only cache model cannot alter the functional stream,
            // so the escape is counted rather than acted out (see
            // docs/RESILIENCE.md).
            if (f.corruptDelivered) {
                faults->recordEscaped(FaultTarget::ICACHE);
                if constexpr (HasExtra)
                    extra->fault(FaultEvent{FaultTarget::ICACHE,
                                            FaultEvent::Kind::Escaped,
                                            s.retired, addr});
            }
        }
        if (!f.hit) {
            // The refill may have evicted a tracked line.
            itrack.drop();
            const uint32_t penalty =
                l2 ? callL2(s, itrack, dtrack, addr, false, &f)
                   : icache_miss_penalty;
            s.frontReady = std::max(s.frontReady, s.lastIssue) + penalty;
            s.refillWords += line_words;
        }
        // The first word went through the full access (which
        // memo-counted it inside Cache); the rest are intra-line
        // repeats. kept >= 1 always holds at a trap here, so first_memo
        // is moot — keep the reconciliation formula uniform.
        first_memo = true;
        tracked = itrack.arm(icache, iline, words - 1, true);
        if (!tracked) {
            // Unreachable without fault injection — a read always
            // leaves its line resident — but stay exact: access the
            // rest of the words in full.
            for (uint64_t w = k + 1; w < j; ++w)
                if (word_pre[w + 1] != word_pre[w])
                    icache.accessFast(code[w].addr, false);
            itrack.prevLine = icache.lastLineAddr();
        }
        return f;
    };

    // One instruction through execute, issue timing, data-memory
    // timing, writeback and commit. Shared by the per-op entry path
    // and the superblock batch path below; fetch and the fetch-side
    // counters stay with the caller, which knows whether they are
    // accounted per op or per run. Must inline: the loop's state
    // lives in the caller's registers.
    // InRun = a mid-run op on the superblock path: it cannot branch,
    // halt or be observed, so commit collapses to the annulled check —
    // the run-level counters land in bulk at the end of the batch.
    auto retire = [&]<bool InRun>(const FastOp &op,
                                  const uint64_t op_index)
        __attribute__((always_inline))
    {
        // --- execute (functional) ------------------------------------
        const Cond cond = static_cast<Cond>(op.cond);
        const bool executed =
            cond == Cond::AL || condPasses(cond, ctx.state.flags);
        if (executed) {
            // Hot shapes dispatch through an inlined switch (the
            // compiler keeps the loop's state in registers across the
            // case bodies); cold ones go through the pointer table.
            // Both call the SAME handler instantiations — hotId() only
            // picks the route, never the semantics.
            switch (op.hot) {
              case 1: opDp<Op::AND, Operand2Kind::IMM, false>(ctx, op); break;
              case 2: opDp<Op::AND, Operand2Kind::IMM, true>(ctx, op); break;
              case 3: opDp<Op::AND, Operand2Kind::REG, false>(ctx, op); break;
              case 4: opDp<Op::AND, Operand2Kind::REG, true>(ctx, op); break;
              case 5: opDp<Op::AND, Operand2Kind::REG_SHIFT_IMM, false>(ctx, op); break;
              case 6: opDp<Op::AND, Operand2Kind::REG_SHIFT_IMM, true>(ctx, op); break;
              case 7: opDp<Op::EOR, Operand2Kind::IMM, false>(ctx, op); break;
              case 8: opDp<Op::EOR, Operand2Kind::IMM, true>(ctx, op); break;
              case 9: opDp<Op::EOR, Operand2Kind::REG, false>(ctx, op); break;
              case 10: opDp<Op::EOR, Operand2Kind::REG, true>(ctx, op); break;
              case 11: opDp<Op::EOR, Operand2Kind::REG_SHIFT_IMM, false>(ctx, op); break;
              case 12: opDp<Op::EOR, Operand2Kind::REG_SHIFT_IMM, true>(ctx, op); break;
              case 13: opDp<Op::SUB, Operand2Kind::IMM, false>(ctx, op); break;
              case 14: opDp<Op::SUB, Operand2Kind::IMM, true>(ctx, op); break;
              case 15: opDp<Op::SUB, Operand2Kind::REG, false>(ctx, op); break;
              case 16: opDp<Op::SUB, Operand2Kind::REG, true>(ctx, op); break;
              case 17: opDp<Op::SUB, Operand2Kind::REG_SHIFT_IMM, false>(ctx, op); break;
              case 18: opDp<Op::SUB, Operand2Kind::REG_SHIFT_IMM, true>(ctx, op); break;
              case 19: opDp<Op::RSB, Operand2Kind::IMM, false>(ctx, op); break;
              case 20: opDp<Op::RSB, Operand2Kind::IMM, true>(ctx, op); break;
              case 21: opDp<Op::RSB, Operand2Kind::REG, false>(ctx, op); break;
              case 22: opDp<Op::RSB, Operand2Kind::REG, true>(ctx, op); break;
              case 23: opDp<Op::RSB, Operand2Kind::REG_SHIFT_IMM, false>(ctx, op); break;
              case 24: opDp<Op::RSB, Operand2Kind::REG_SHIFT_IMM, true>(ctx, op); break;
              case 25: opDp<Op::ADD, Operand2Kind::IMM, false>(ctx, op); break;
              case 26: opDp<Op::ADD, Operand2Kind::IMM, true>(ctx, op); break;
              case 27: opDp<Op::ADD, Operand2Kind::REG, false>(ctx, op); break;
              case 28: opDp<Op::ADD, Operand2Kind::REG, true>(ctx, op); break;
              case 29: opDp<Op::ADD, Operand2Kind::REG_SHIFT_IMM, false>(ctx, op); break;
              case 30: opDp<Op::ADD, Operand2Kind::REG_SHIFT_IMM, true>(ctx, op); break;
              case 31: opDp<Op::ADC, Operand2Kind::IMM, false>(ctx, op); break;
              case 32: opDp<Op::ADC, Operand2Kind::IMM, true>(ctx, op); break;
              case 33: opDp<Op::ADC, Operand2Kind::REG, false>(ctx, op); break;
              case 34: opDp<Op::ADC, Operand2Kind::REG, true>(ctx, op); break;
              case 35: opDp<Op::ADC, Operand2Kind::REG_SHIFT_IMM, false>(ctx, op); break;
              case 36: opDp<Op::ADC, Operand2Kind::REG_SHIFT_IMM, true>(ctx, op); break;
              case 37: opDp<Op::SBC, Operand2Kind::IMM, false>(ctx, op); break;
              case 38: opDp<Op::SBC, Operand2Kind::IMM, true>(ctx, op); break;
              case 39: opDp<Op::SBC, Operand2Kind::REG, false>(ctx, op); break;
              case 40: opDp<Op::SBC, Operand2Kind::REG, true>(ctx, op); break;
              case 41: opDp<Op::SBC, Operand2Kind::REG_SHIFT_IMM, false>(ctx, op); break;
              case 42: opDp<Op::SBC, Operand2Kind::REG_SHIFT_IMM, true>(ctx, op); break;
              case 43: opDp<Op::RSC, Operand2Kind::IMM, false>(ctx, op); break;
              case 44: opDp<Op::RSC, Operand2Kind::IMM, true>(ctx, op); break;
              case 45: opDp<Op::RSC, Operand2Kind::REG, false>(ctx, op); break;
              case 46: opDp<Op::RSC, Operand2Kind::REG, true>(ctx, op); break;
              case 47: opDp<Op::RSC, Operand2Kind::REG_SHIFT_IMM, false>(ctx, op); break;
              case 48: opDp<Op::RSC, Operand2Kind::REG_SHIFT_IMM, true>(ctx, op); break;
              case 49: opDp<Op::TST, Operand2Kind::IMM, false>(ctx, op); break;
              case 50: opDp<Op::TST, Operand2Kind::IMM, true>(ctx, op); break;
              case 51: opDp<Op::TST, Operand2Kind::REG, false>(ctx, op); break;
              case 52: opDp<Op::TST, Operand2Kind::REG, true>(ctx, op); break;
              case 53: opDp<Op::TST, Operand2Kind::REG_SHIFT_IMM, false>(ctx, op); break;
              case 54: opDp<Op::TST, Operand2Kind::REG_SHIFT_IMM, true>(ctx, op); break;
              case 55: opDp<Op::TEQ, Operand2Kind::IMM, false>(ctx, op); break;
              case 56: opDp<Op::TEQ, Operand2Kind::IMM, true>(ctx, op); break;
              case 57: opDp<Op::TEQ, Operand2Kind::REG, false>(ctx, op); break;
              case 58: opDp<Op::TEQ, Operand2Kind::REG, true>(ctx, op); break;
              case 59: opDp<Op::TEQ, Operand2Kind::REG_SHIFT_IMM, false>(ctx, op); break;
              case 60: opDp<Op::TEQ, Operand2Kind::REG_SHIFT_IMM, true>(ctx, op); break;
              case 61: opDp<Op::CMP, Operand2Kind::IMM, false>(ctx, op); break;
              case 62: opDp<Op::CMP, Operand2Kind::IMM, true>(ctx, op); break;
              case 63: opDp<Op::CMP, Operand2Kind::REG, false>(ctx, op); break;
              case 64: opDp<Op::CMP, Operand2Kind::REG, true>(ctx, op); break;
              case 65: opDp<Op::CMP, Operand2Kind::REG_SHIFT_IMM, false>(ctx, op); break;
              case 66: opDp<Op::CMP, Operand2Kind::REG_SHIFT_IMM, true>(ctx, op); break;
              case 67: opDp<Op::CMN, Operand2Kind::IMM, false>(ctx, op); break;
              case 68: opDp<Op::CMN, Operand2Kind::IMM, true>(ctx, op); break;
              case 69: opDp<Op::CMN, Operand2Kind::REG, false>(ctx, op); break;
              case 70: opDp<Op::CMN, Operand2Kind::REG, true>(ctx, op); break;
              case 71: opDp<Op::CMN, Operand2Kind::REG_SHIFT_IMM, false>(ctx, op); break;
              case 72: opDp<Op::CMN, Operand2Kind::REG_SHIFT_IMM, true>(ctx, op); break;
              case 73: opDp<Op::ORR, Operand2Kind::IMM, false>(ctx, op); break;
              case 74: opDp<Op::ORR, Operand2Kind::IMM, true>(ctx, op); break;
              case 75: opDp<Op::ORR, Operand2Kind::REG, false>(ctx, op); break;
              case 76: opDp<Op::ORR, Operand2Kind::REG, true>(ctx, op); break;
              case 77: opDp<Op::ORR, Operand2Kind::REG_SHIFT_IMM, false>(ctx, op); break;
              case 78: opDp<Op::ORR, Operand2Kind::REG_SHIFT_IMM, true>(ctx, op); break;
              case 79: opDp<Op::MOV, Operand2Kind::IMM, false>(ctx, op); break;
              case 80: opDp<Op::MOV, Operand2Kind::IMM, true>(ctx, op); break;
              case 81: opDp<Op::MOV, Operand2Kind::REG, false>(ctx, op); break;
              case 82: opDp<Op::MOV, Operand2Kind::REG, true>(ctx, op); break;
              case 83: opDp<Op::MOV, Operand2Kind::REG_SHIFT_IMM, false>(ctx, op); break;
              case 84: opDp<Op::MOV, Operand2Kind::REG_SHIFT_IMM, true>(ctx, op); break;
              case 85: opDp<Op::BIC, Operand2Kind::IMM, false>(ctx, op); break;
              case 86: opDp<Op::BIC, Operand2Kind::IMM, true>(ctx, op); break;
              case 87: opDp<Op::BIC, Operand2Kind::REG, false>(ctx, op); break;
              case 88: opDp<Op::BIC, Operand2Kind::REG, true>(ctx, op); break;
              case 89: opDp<Op::BIC, Operand2Kind::REG_SHIFT_IMM, false>(ctx, op); break;
              case 90: opDp<Op::BIC, Operand2Kind::REG_SHIFT_IMM, true>(ctx, op); break;
              case 91: opDp<Op::MVN, Operand2Kind::IMM, false>(ctx, op); break;
              case 92: opDp<Op::MVN, Operand2Kind::IMM, true>(ctx, op); break;
              case 93: opDp<Op::MVN, Operand2Kind::REG, false>(ctx, op); break;
              case 94: opDp<Op::MVN, Operand2Kind::REG, true>(ctx, op); break;
              case 95: opDp<Op::MVN, Operand2Kind::REG_SHIFT_IMM, false>(ctx, op); break;
              case 96: opDp<Op::MVN, Operand2Kind::REG_SHIFT_IMM, true>(ctx, op); break;
              case 97: opMem<Op::LDR, MemOffsetKind::IMM, true>(ctx, op); break;
              case 98: opMem<Op::LDR, MemOffsetKind::REG, true>(ctx, op); break;
              case 99: opMem<Op::LDR, MemOffsetKind::REG_SHIFT_IMM, true>(ctx, op); break;
              case 100: opMem<Op::STR, MemOffsetKind::IMM, true>(ctx, op); break;
              case 101: opMem<Op::STR, MemOffsetKind::REG, true>(ctx, op); break;
              case 102: opMem<Op::STR, MemOffsetKind::REG_SHIFT_IMM, true>(ctx, op); break;
              case 103: opMem<Op::LDRB, MemOffsetKind::IMM, true>(ctx, op); break;
              case 104: opMem<Op::LDRB, MemOffsetKind::REG, true>(ctx, op); break;
              case 105: opMem<Op::LDRB, MemOffsetKind::REG_SHIFT_IMM, true>(ctx, op); break;
              case 106: opMem<Op::STRB, MemOffsetKind::IMM, true>(ctx, op); break;
              case 107: opMem<Op::STRB, MemOffsetKind::REG, true>(ctx, op); break;
              case 108: opMem<Op::STRB, MemOffsetKind::REG_SHIFT_IMM, true>(ctx, op); break;
              case 109: opB(ctx, op); break;
              case 110: opBl(ctx, op); break;
              case 111: opRet(ctx, op); break;
              default: op.fn(ctx, op); break;
            }
        }

        // --- issue timing --------------------------------------------
        const uint64_t prev_issue = s.lastIssue;
        const uint64_t base_ready = std::max(s.frontReady, s.lastIssue);
        uint64_t earliest = base_ready;
        if (op.flags & kReadsFlags)
            earliest = std::max(earliest, s.flagsReady);
        // Fixed-width operand probe, sized for the common case: at
        // most two register sources (pad slots read the never-written
        // kReadPad entry, always cycle 0). Three- and four-source
        // shapes take the kManyReads branch; STM lists wider than the
        // slots walk the full mask (max is idempotent, so re-probing
        // slots 0-1 is harmless).
        earliest = std::max(earliest, reg_ready[op.readRegs[0]]);
        earliest = std::max(earliest, reg_ready[op.readRegs[1]]);
        if (op.flags & kManyReads) {
            if (op.flags & kWideRead) {
                for (uint32_t m = op.readMask & 0xffffu; m != 0;
                     m &= m - 1) {
                    const unsigned reg =
                        static_cast<unsigned>(std::countr_zero(m));
                    earliest = std::max(earliest, reg_ready[reg]);
                }
            } else {
                earliest =
                    std::max(earliest, reg_ready[op.readRegs[2]]);
                earliest =
                    std::max(earliest, reg_ready[op.readRegs[3]]);
            }
        }
        const bool operand_stall = earliest > base_ready;

        const bool wants_mem =
            executed && (op.flags & (kIsLoad | kIsStore)) != 0;
        const bool wants_mul =
            executed && (op.flags & kIsMulDiv) != 0;
        bool structural_stall = false;
        if (earliest == s.issueCycle) {
            if (s.slotsUsed >= issue_width ||
                (wants_mem && s.memPortUsed) ||
                (wants_mul && s.mulUnitUsed)) {
                earliest += 1;
                structural_stall = true;
            }
        }
        if (earliest != s.issueCycle) {
            s.issueCycle = earliest;
            s.slotsUsed = 0;
            s.memPortUsed = false;
            s.mulUnitUsed = false;
        }
        ++s.slotsUsed;
        s.memPortUsed = s.memPortUsed || wants_mem;
        s.mulUnitUsed = s.mulUnitUsed || wants_mul;
        s.lastIssue = s.issueCycle;

        if constexpr (HasExtra) {
            // Priority mirrors the computation above: a structural
            // bump is applied last, operand readiness can only raise a
            // front-end-ready baseline.
            StallReason reason = StallReason::None;
            if (s.issueCycle != prev_issue) {
                reason = structural_stall ? StallReason::Structural
                         : operand_stall ? StallReason::Operands
                                         : StallReason::FrontEnd;
            }
            extra->issue(IssueEvent{op_index, s.issueCycle, s.slotsUsed - 1,
                                    s.issueCycle - prev_issue, reason});
        }

        // --- data memory timing --------------------------------------
        const uint32_t extra_latency = executed ? op.baseLatency : 0u;
        uint64_t result_ready = s.issueCycle + 1 + extra_latency;
        // The memory list is only meaningful when an executed memory
        // op wrote it this dispatch; stale entries are never read.
        const unsigned num_mem = wants_mem ? ctx.numMem : 0u;
        for (unsigned m = 0; m < num_mem; ++m) {
            const uint32_t daddr = ctx.memAcc[m].addr;
            const bool dwrite = ctx.memAcc[m].write;
            const uint64_t dline = daddr >> dline_shift;
            CacheAccessResult dres{.hit = true};
            if (!dtrack.touch(dline, 1, dwrite)) {
                // A write its line's streak may not absorb: the full
                // access below memo-counts against the cache's own hint,
                // so point that at the mirror first (and stop tracking,
                // so the line is re-armed fresh below).
                if (dline == dtrack.a.line || dline == dtrack.b.line)
                    dtrack.release(dcache);
                else
                    dtrack.flush(dcache);
                dres = dcache.accessFast(daddr, dwrite);
                dtrack.prevLine = dcache.lastLineAddr();
                // A refill may have evicted a tracked line.
                if (!dres.hit)
                    dtrack.drop();
                // Without an L2 no write ever needs an upgrade; with
                // one, only a line this access wrote is known to be
                // held Modified.
                dtrack.arm(dcache, dline, 0, !l2 || dwrite);
            }
            ++s.dmemAccesses;
            if constexpr (HasExtra)
                extra->dataAccess(
                    DataAccessEvent{op_index, daddr, dwrite, dres});
            if (!dres.hit) {
                const uint32_t penalty =
                    l2 ? callL2(s, itrack, dtrack, daddr, dwrite, &dres)
                       : dcache_miss_penalty;
                // Blocking cache: the whole pipeline waits.
                result_ready += penalty;
                s.frontReady =
                    std::max(s.frontReady, s.issueCycle + penalty);
            } else if (dres.writeUpgrade && l2) {
                // Write hit on a clean line: the S->M edge. Remote
                // copies are invalidated; only then may this store's
                // data land.
                const uint32_t penalty =
                    callL2(s, itrack, dtrack, daddr, true, nullptr);
                if (penalty != 0) {
                    result_ready += penalty;
                    s.frontReady =
                        std::max(s.frontReady, s.issueCycle + penalty);
                }
            }
        }
        if (executed && (op.flags & kIsLoad))
            result_ready += 1; // load-use bubble

        // --- writeback scoreboard ------------------------------------
        if (executed) {
            if (op.flags & (kIsLdm | kIsStm | kIsLongMul)) {
                if (op.flags & kIsLdm) {
                    for (uint32_t m = op.regList; m != 0; m &= m - 1)
                        reg_ready[std::countr_zero(m)] = result_ready;
                    if (op.flags & kBaseWb)
                        reg_ready[op.rn] =
                            std::max(reg_ready[op.rn], s.issueCycle + 1);
                } else if (op.flags & kIsLongMul) {
                    reg_ready[op.rd] = result_ready;
                    reg_ready[op.ra] = result_ready;
                }
                if ((op.flags & kIsStm) && (op.flags & kBaseWb))
                    reg_ready[op.rn] =
                        std::max(reg_ready[op.rn], s.issueCycle + 1);
                if (op.flags & kSetsFlags)
                    s.flagsReady = result_ready;
            } else {
                // Common shapes: one unconditional store (destination
                // or the kWritePad scratch slot) and a flag-select.
                // S-forms deliver NZCV with the result: a dependent
                // conditional or ADC must not issue early.
                reg_ready[op.wbReg] = result_ready;
                s.flagsReady = (op.flags & kSetsFlags) ? result_ready
                                                      : s.flagsReady;
            }
        }

        // --- commit / control flow -----------------------------------
        if (!executed)
            ++s.annulled; // a failed condition implies cond != AL
        if constexpr (InRun)
            return;
        const bool branch_taken =
            executed && (op.flags & kIsBranch) != 0;
        const uint64_t next_index =
            branch_taken ? ctx.nextIndex : op_index + 1;
        if constexpr (HasExtra) {
            ExecInfo info{};
            info.executed = executed;
            info.branch = (op.flags & kIsBranch) != 0;
            info.branchTaken = branch_taken;
            info.nextIndex = next_index;
            info.numMem = num_mem;
            for (unsigned m = 0; m < num_mem; ++m)
                info.mem[m] = ctx.memAcc[m];
            info.isLoad = executed && (op.flags & kIsLoad) != 0;
            info.isStore = executed && (op.flags & kIsStore) != 0;
            info.isMulDiv = executed && (op.flags & kIsMulDiv) != 0;
            info.baseWriteback =
                executed && (op.flags & kBaseWb) != 0;
            info.destReg = (executed && op.wbReg != kWritePad)
                               ? op.wbReg : 0xff;
            info.extraLatency = extra_latency;
            extra->commit(CommitEvent{op_index, op.uop, &info,
                                      s.issueCycle});
        }
        ++s.retired;
        if (branch_taken) {
            ++s.takenBranches;
            s.frontReady = std::max(s.frontReady,
                                   s.issueCycle + 1 + branch_penalty);
            // The next fetch's toggle predecessor is this branch, not
            // the static index - 1 op: take the dynamic toggle path.
            s.seqFetch = false;
            s.dynEnc = op.encoding;
        }
        s.index = next_index;
    };

    try {
    while (!ctx.state.halted && s.retired < stop) {
        if (s.index >= num_insns) {
            if (s.index == AddrCodec::kBadIndex)
                trap("control transfer below the code base");
            trap("fell off the end of the program at index %llu",
                 static_cast<unsigned long long>(s.index));
        }
        if (s.retired >= max_instructions) {
            // Runaway guard: report the expiry with partial statistics
            // instead of tearing the whole sweep down.
            result_.outcome = RunOutcome::WatchdogExpired;
            result_.trapReason = detail::format(
                "exceeded the %llu-instruction cap",
                static_cast<unsigned long long>(max_instructions));
            done_ = true;
            break;
        }

        // --- soft-error injection ------------------------------------
        if constexpr (HasFaults) {
            if (faults->due(FaultTarget::ICACHE, s.retired)) {
                itrack.flush(icache);
                if (icache.injectBitFlip(faults->rng())) {
                    // The struck line may be a tracked streak line and
                    // is now corrupt: drop both so its next touch goes
                    // through the parity-checking full access.
                    itrack.drop();
                    // injectBitFlip cleared the repeat hint, and a
                    // per-access run would no longer memo-count the
                    // next same-line fetch; mirror that.
                    itrack.prevLine = Cache::kNoLine;
                    faults->recordInjected(FaultTarget::ICACHE);
                    if constexpr (HasExtra)
                        extra->fault(
                            FaultEvent{FaultTarget::ICACHE,
                                       FaultEvent::Kind::Injected,
                                       s.retired, 0});
                    // Packed-fetch buffer contract (sim/machine.hh):
                    // drop the buffered word so parity can see the
                    // corruption.
                    s.prevWordAddr = kNoFetchWord;
                }
            }
            if (faults->due(FaultTarget::MEMORY, s.retired) &&
                mem.injectBitFlip(faults->rng())) {
                faults->recordInjected(FaultTarget::MEMORY);
                if constexpr (HasExtra)
                    extra->fault(FaultEvent{FaultTarget::MEMORY,
                                            FaultEvent::Kind::Injected,
                                            s.retired, 0});
            }
        }

        [[maybe_unused]] const uint64_t run_base = s.index;
        uint64_t span = 1;
        if constexpr (RunBatch) {
            // Clamp to the watchdog and quantum budget so both expire
            // at exactly the same op as on the per-op path.
            if (batch_ok) {
                span = run_len[s.index];
                const uint64_t room = limit - s.retired;
                if (span > room)
                    span = room;
            }
        }

        const FastOp &op = code[s.index];
        const uint32_t addr = op.addr;

        // --- fetch ---------------------------------------------------
        bool new_word = true;
        if constexpr (Packed) {
            new_word = (addr >> 2) != s.prevWordAddr;
            s.prevWordAddr = addr >> 2;
        }
        CacheAccessResult fetch;
        bool tracked, first_memo; // for the superblock back-out only
        if (new_word)
            fetch = fetchLine(s, s.index, s.index + 1, 1, tracked, first_memo);
        if (HasFaults && fetch.parityError) {
            // Machine-check: parity caught a corrupt line on consumption.
            // The run is not trustworthy past this point; the harness
            // reloads and retries. No FetchEvent is emitted for the
            // poisoned word, and the packed-fetch buffer is emptied so
            // no stale word survives the detection.
            faults->recordDetected(FaultTarget::ICACHE);
            if constexpr (HasExtra)
                extra->fault(FaultEvent{FaultTarget::ICACHE,
                                        FaultEvent::Kind::Detected,
                                        s.retired, addr});
            s.prevWordAddr = kNoFetchWord;
            result_.outcome = RunOutcome::FaultDetected;
            result_.trapReason =
                detail::format("I-cache parity error at 0x%08x", addr);
            done_ = true;
            break;
        }
        if (s.seqFetch) {
            s.toggleBits += op.toggleSeq;
        } else {
            s.toggleBits += popcount32((op.encoding ^ s.dynEnc) &
                                      enc_mask);
            s.seqFetch = true;
        }
        s.bitsTotal += fetch_bits;
        if constexpr (HasExtra)
            extra->fetch(FetchEvent{s.index, addr, op.encoding,
                                    fetch_bits, new_word, fetch,
                                    line_words});
        retire.template operator()<false>(op, s.index);

        // --- superblock batch --------------------------------------
        // The remaining ops of the run (none unless RunBatch): fetch
        // advances a same-line segment at a time, the per-op checks
        // and fetch-side counters are hoisted to run granularity, and
        // the shared retire() does the rest. Exactness argument: only
        // a segment's first word can miss, and it is accessed at the
        // same point in the issue stream as the per-op path would;
        // repeat hits only touch streak counters, which flush
        // identically; mid-run ops cannot branch, trap-site
        // reconciliation restores the per-op counter semantics, and
        // runs end at every op that can redirect control or halt.
        if constexpr (RunBatch) {
          if (span > 1) {
            const uint64_t run_end = run_base + span;
            uint64_t k = run_base + 1;
            uint64_t fetched_to = k;
            bool seg_tracked = false; // itrack.last() holds its repeats
            // Trap-site memo reconciliation state for the open
            // segment: the word-prefix index of its first word and
            // whether that first word was itself a memo hit.
            uint32_t seg_word_base = 0;
            bool seg_first_memo = false;
            // Fetch the same-I-line segment [k, j) when the op stream
            // reaches its first op.
            auto fetchSeg = [&](uint64_t k)
                __attribute__((always_inline))
            {
                const uint64_t j =
                    lazy_segs ? k + 1
                              : k + std::min<uint64_t>(seg_ops[k],
                                                       run_end - k);
                const uint32_t words = word_pre[j] - word_pre[k];
                seg_tracked = false;
                seg_word_base = word_pre[k];
                if (words != 0)
                    fetchLine(s, k, j, words, seg_tracked, seg_first_memo);
                fetched_to = j;
            };
            const uint64_t last = run_end - 1;
            try {
                while (k < last) {
                    if (k == fetched_to)
                        fetchSeg(k);
                    retire.template operator()<true>(code[k], k);
                    ++k;
                }
                if (k == fetched_to)
                    fetchSeg(k);
                retire.template operator()<false>(code[last], last);
                s.retired += span - 2;
                s.batchedOps += span - 1;
            } catch (const TrapError &) {
                // Op k trapped during execute: the per-op path counts
                // its fetch but nothing behind it. The batch counters
                // have not landed yet (they follow the loop), so add
                // the partial run; the segment's eagerly-counted
                // repeat hits beyond op k are backed out of the
                // streak counter that took them.
                s.toggleBits += seq_pre[k + 1] - seq_pre[run_base + 1];
                s.bitsTotal += (k - run_base) * fetch_bits;
                s.retired += k - (run_base + 1);
                s.batchedOps += k - (run_base + 1);
                if (seg_tracked) {
                    const uint32_t backed =
                        word_pre[fetched_to] - word_pre[k + 1];
                    const uint32_t kept =
                        word_pre[k + 1] - seg_word_base;
                    // The memo back-out matches the eager count: every
                    // backed-out word was counted as a memo hit except,
                    // when nothing of the segment survives, the first
                    // word — whose memo credit depended on the line
                    // the segment entered with (seg_first_memo).
                    Streak &seg = itrack.last();
                    seg.reads -= backed;
                    seg.memoHits -= (kept == 0 && !seg_first_memo)
                                        ? backed - 1
                                        : backed;
                }
                throw;
            }
            s.toggleBits += seq_pre[run_end] - seq_pre[run_base + 1];
            s.bitsTotal += (run_end - (run_base + 1)) * fetch_bits;
            if constexpr (Packed)
                s.prevWordAddr = code[run_end - 1].addr >> 2;
          }
        }
    }
    } catch (const TrapError &e) {
        // Architectural trap raised by a handler or the memory system:
        // a measured outcome with partial statistics, not an abort.
        result_.outcome = RunOutcome::Trapped;
        result_.trapReason = e.what();
        done_ = true;
    }
    if (ctx.state.halted)
        done_ = true;

    loop_ = s;
    std::copy(std::begin(reg_ready), std::end(reg_ready),
              std::begin(regReady_));
    itrack_ = itrack;
    dtrack_ = dtrack;
}

void
FastTile::step(uint64_t budget, FaultPlan *faults,
               const ObserverList *observers)
{
    if (done_ || budget == 0)
        return;
    const bool has_extra = observers && !observers->empty();
    const ObserverList *extra = has_extra ? observers : nullptr;
    switch ((config_.packedFetch ? 4 : 0) | (has_extra ? 2 : 0) |
            (faults ? 1 : 0)) {
      case 0: return stepImpl<false, false, false>(budget, faults, extra);
      case 1: return stepImpl<false, true, false>(budget, faults, extra);
      case 2: return stepImpl<true, false, false>(budget, faults, extra);
      case 3: return stepImpl<true, true, false>(budget, faults, extra);
      case 4: return stepImpl<false, false, true>(budget, faults, extra);
      case 5: return stepImpl<false, true, true>(budget, faults, extra);
      case 6: return stepImpl<true, false, true>(budget, faults, extra);
      default: return stepImpl<true, true, true>(budget, faults, extra);
    }
}

RunResult
FastTile::finish(const ObserverList *observers)
{
    if (finished_)
        return result_;
    finished_ = true;

    // Flush any open line streaks so the stats below match a
    // per-access run exactly. Then drain the pipeline
    // (fetch/decode/execute/mem/writeback): all outcomes finalize, a
    // trapped or watchdog-expired run still reports the activity it
    // accumulated. Built-in totals publish before the external
    // observers' onRunEnd fan-out.
    releaseTracks();
    const LoopState &s = loop_;
    result_.cycles = s.lastIssue + 4;
    result_.icache = icache_.stats();
    result_.dcache = dcache_.stats();
    result_.finalState = ctx_.state;
    result_.io = std::move(ctx_.io);
    result_.instructions = s.retired;
    result_.annulled = s.annulled;
    result_.takenBranches = s.takenBranches;
    result_.dmemAccesses = s.dmemAccesses;
    result_.fetchToggleBits = s.toggleBits;
    result_.fetchBitsTotal = s.bitsTotal;
    result_.icacheRefillWords = s.refillWords;

    // The engine's exact work counters, tallied once per run rather
    // than in the loop: how many retired ops the superblock batches
    // carried and how many took the per-op entry. Host-independent,
    // so bench_regress.sh compares them exactly.
    if (MetricRegistry *metrics = MetricRegistry::current()) {
        metrics->counter("engine.ops_batched").add(s.batchedOps);
        metrics->counter("engine.ops_per_op")
            .add(s.retired - s.batchedOps);
    }

    if (observers && !observers->empty())
        observers->runEnd(result_);
    return result_;
}

TileFactory
engineTileFactory()
{
    // The trace depends on the program, the packed-fetch rule and the
    // I-line size; tiles agreeing on all three share one.
    using Key = std::tuple<const FrontEnd *, bool, uint32_t>;
    using Entry = std::pair<Key, std::shared_ptr<const Predecoded>>;
    auto traces = std::make_shared<std::vector<Entry>>();
    return [traces](const FrontEnd &fe, const CoreConfig &config,
                    Memory &mem, unsigned tileId) {
        const Key key{&fe, config.packedFetch, config.icache.lineBytes};
        auto it = std::find_if(traces->begin(), traces->end(),
                               [&](const Entry &e) { return e.first == key; });
        if (it == traces->end())
            it = traces->insert(
                it, {key, std::make_shared<Predecoded>(fe, config)});
        return std::unique_ptr<Tile>(std::make_unique<FastTile>(
            fe, config, mem, tileId, it->second));
    };
}

namespace
{

/** A non-owning FrontEnd over a Program and its decoded micro-ops, so
 * predecode() reads the caller's decode instead of a second one. */
class ProgramView final : public FrontEnd
{
  public:
    ProgramView(const Program &prog, const std::vector<MicroOp> &uops)
        : prog_(prog), uops_(uops)
    {
    }

    const std::string &name() const override { return prog_.name; }
    size_t numInstructions() const override { return uops_.size(); }
    const MicroOp &uopAt(size_t i) const override { return uops_[i]; }
    uint32_t encodingAt(size_t i) const override { return prog_.code[i]; }
    unsigned instrBits() const override { return 32; }
    AddrCodec codec() const override { return {prog_.codeBase, 2}; }

    const std::vector<DataSegment> &
    dataSegments() const override
    {
        return prog_.data;
    }

    uint32_t stackTop() const override { return prog_.stackTop; }
    uint32_t codeBytes() const override { return prog_.codeBytes(); }

  private:
    const Program &prog_;
    const std::vector<MicroOp> &uops_;
};

} // namespace

FunctionalRun
runFunctional(const Program &prog, const std::vector<MicroOp> &uops,
              uint64_t max_instrs)
{
    const ProgramView view(prog, uops);
    const std::vector<FastOp> ops = predecode(view);
    const std::vector<uint32_t> run_len = runLengths(ops);
    const FastOp *const code = ops.data();
    const size_t n = ops.size();

    Memory mem;
    for (const DataSegment &seg : prog.data)
        mem.writeBytes(seg.base, seg.bytes);
    FastCtx ctx(mem);
    ctx.state.regs[SP] = prog.stackTop;
    ctx.codec = view.codec();

    // The condition check plus one handler call; @return executed.
    auto exec = [&ctx](const FastOp &op) __attribute__((always_inline))
    {
        const Cond cond = static_cast<Cond>(op.cond);
        const bool executed =
            cond == Cond::AL || condPasses(cond, ctx.state.flags);
        if (executed)
            op.fn(ctx, op);
        return executed;
    };

    FunctionalRun run;
    // dynCounts as a difference array: +1 at a run's entry, -1 (mod
    // 2^64) past its end; one prefix sum turns it into the counts.
    std::vector<uint64_t> &diff = run.dynCounts;
    diff.assign(n + 1, 0);
    uint64_t index = 0;
    uint64_t executed = 0;
    while (!ctx.state.halted) {
        // The profiler's per-op checks, in its order: bounds, then cap.
        if (index >= n) {
            run.end = FunctionalEnd::FellOff;
            return run;
        }
        if (executed >= max_instrs) {
            run.end = FunctionalEnd::CapExceeded;
            return run;
        }
        uint64_t span = run_len[index];
        if (span > max_instrs - executed)
            span = 1; // step per op up to the cap
        ++diff[index];
        --diff[index + span];
        ++run.runs;
        executed += span;
        // Mid-run ops cannot branch or halt; only the last one can.
        const uint64_t last = index + span - 1;
        for (; index < last; ++index)
            exec(code[index]);
        const FastOp &op = code[last];
        index = exec(op) && (op.flags & kIsBranch) != 0 ? ctx.nextIndex
                                                        : last + 1;
    }
    uint64_t count = 0;
    for (uint64_t &c : diff) {
        count += c;
        c = count;
    }
    diff.pop_back();
    run.instructions = executed;
    run.io = std::move(ctx.io);
    return run;
}

} // namespace pfits
