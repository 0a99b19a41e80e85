#include "sim/executor.hh"

#include <limits>

#include "common/bitops.hh"
#include "common/logging.hh"

namespace pfits
{

namespace
{

/** Evaluate the flexible second operand. */
uint32_t
operand2(const MicroOp &uop, const CpuState &state)
{
    switch (uop.op2Kind) {
      case Operand2Kind::IMM:
        return uop.imm;
      case Operand2Kind::REG:
        return state.regs[uop.rm];
      case Operand2Kind::REG_SHIFT_IMM: {
        uint32_t v = state.regs[uop.rm];
        unsigned amount = uop.shiftAmount;
        switch (uop.shiftType) {
          case ShiftType::LSL: return amount ? v << amount : v;
          case ShiftType::LSR: return amount ? v >> amount : v;
          case ShiftType::ASR:
            return amount
                       ? static_cast<uint32_t>(
                             static_cast<int32_t>(v) >> amount)
                       : v;
          case ShiftType::ROR: return rotr32(v, amount);
          default: panic("bad shift type");
        }
      }
      case Operand2Kind::REG_SHIFT_REG: {
        uint32_t v = state.regs[uop.rm];
        unsigned amount = state.regs[uop.rs] & 0xffu;
        switch (uop.shiftType) {
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
      default:
        panic("bad operand2 kind");
    }
}

void
setNZ(CpuState &state, uint32_t result)
{
    state.flags.n = (result >> 31) != 0;
    state.flags.z = result == 0;
}

/** result = a + b + carry_in, with full NZCV update. */
uint32_t
addWithCarry(CpuState &state, uint32_t a, uint32_t b, uint32_t carry_in,
             bool set_flags)
{
    uint64_t wide = static_cast<uint64_t>(a) + b + carry_in;
    uint32_t result = static_cast<uint32_t>(wide);
    if (set_flags) {
        setNZ(state, result);
        state.flags.c = (wide >> 32) != 0;
        // Overflow: operands share a sign the result does not.
        state.flags.v = (~(a ^ b) & (a ^ result) & 0x80000000u) != 0;
    }
    return result;
}

int32_t
saturate64(int64_t v)
{
    if (v > std::numeric_limits<int32_t>::max())
        return std::numeric_limits<int32_t>::max();
    if (v < std::numeric_limits<int32_t>::min())
        return std::numeric_limits<int32_t>::min();
    return static_cast<int32_t>(v);
}

} // namespace

void
execute(const MicroOp &uop, uint64_t index, const AddrCodec &codec,
        CpuState &state, Memory &mem, IoSinks &io, ExecInfo &info)
{
    // Rewrite the scalar fields only: readers stop at mem[numMem], and
    // clearing all of mem[] (136 bytes) per op dominated the profiler.
    const uint8_t cls = opClass(uop.op);
    info.branch = (cls & kOpBranch) != 0;
    info.branchTaken = false;
    info.baseWriteback = false;
    info.destReg = 0xff;
    info.extraLatency = 0;
    info.numMem = 0;
    info.nextIndex = index + 1;

    if (!condPasses(uop.cond, state.flags)) {
        // Annulled: consumes a slot, changes nothing.
        info.executed = info.isLoad = info.isStore = info.isMulDiv = false;
        return;
    }
    info.executed = true;
    info.isLoad = (cls & kOpLoad) != 0;
    info.isStore = (cls & kOpStore) != 0;
    info.isMulDiv = (cls & kOpMulDiv) != 0;

    auto writeRd = [&](uint32_t value) {
        state.regs[uop.rd] = value;
        info.destReg = uop.rd;
    };

    switch (uop.op) {
      // --- data processing ------------------------------------------------
      case Op::AND: case Op::EOR: case Op::ORR: case Op::BIC:
      case Op::MOV: case Op::MVN: case Op::TST: case Op::TEQ: {
        uint32_t a = state.regs[uop.rn];
        uint32_t b = operand2(uop, state);
        uint32_t result;
        switch (uop.op) {
          case Op::AND: case Op::TST: result = a & b; break;
          case Op::EOR: case Op::TEQ: result = a ^ b; break;
          case Op::ORR: result = a | b; break;
          case Op::BIC: result = a & ~b; break;
          case Op::MOV: result = b; break;
          default: result = ~b; break; // MVN
        }
        // Logical ops update N and Z; C and V are preserved (uARM
        // simplification: no shifter carry-out).
        if (uop.setsFlags)
            setNZ(state, result);
        if (uop.op != Op::TST && uop.op != Op::TEQ)
            writeRd(result);
        break;
      }
      case Op::ADD: case Op::ADC: case Op::CMN: {
        uint32_t a = state.regs[uop.rn];
        uint32_t b = operand2(uop, state);
        uint32_t cin = uop.op == Op::ADC ? (state.flags.c ? 1u : 0u) : 0u;
        uint32_t result = addWithCarry(state, a, b, cin, uop.setsFlags);
        if (uop.op != Op::CMN)
            writeRd(result);
        break;
      }
      case Op::SUB: case Op::SBC: case Op::CMP: {
        uint32_t a = state.regs[uop.rn];
        uint32_t b = operand2(uop, state);
        uint32_t cin = uop.op == Op::SBC ? (state.flags.c ? 1u : 0u) : 1u;
        uint32_t result =
            addWithCarry(state, a, ~b, cin, uop.setsFlags);
        if (uop.op != Op::CMP)
            writeRd(result);
        break;
      }
      case Op::RSB: case Op::RSC: {
        uint32_t a = state.regs[uop.rn];
        uint32_t b = operand2(uop, state);
        uint32_t cin = uop.op == Op::RSC ? (state.flags.c ? 1u : 0u) : 1u;
        writeRd(addWithCarry(state, b, ~a, cin, uop.setsFlags));
        break;
      }

      // --- wide moves -----------------------------------------------------
      case Op::MOVW:
        writeRd(uop.imm & 0xffffu);
        break;
      case Op::MOVT:
        writeRd((state.regs[uop.rd] & 0xffffu) | (uop.imm << 16));
        break;

      // --- multiply / divide ------------------------------------------------
      case Op::MUL: {
        uint32_t result = state.regs[uop.rm] * state.regs[uop.rs];
        if (uop.setsFlags)
            setNZ(state, result);
        writeRd(result);
        info.extraLatency = 2;
        break;
      }
      case Op::MLA: {
        uint32_t result =
            state.regs[uop.rm] * state.regs[uop.rs] + state.regs[uop.ra];
        if (uop.setsFlags)
            setNZ(state, result);
        writeRd(result);
        info.extraLatency = 2;
        break;
      }
      case Op::UMULL: {
        if (uop.rd == uop.ra)
            trap("umull with rdLo == rdHi (r%u) is unpredictable",
                 uop.rd);
        uint64_t wide = static_cast<uint64_t>(state.regs[uop.rm]) *
                        state.regs[uop.rs];
        state.regs[uop.ra] = static_cast<uint32_t>(wide);
        state.regs[uop.rd] = static_cast<uint32_t>(wide >> 32);
        info.destReg = uop.rd;
        info.extraLatency = 3;
        break;
      }
      case Op::SMULL: {
        if (uop.rd == uop.ra)
            trap("smull with rdLo == rdHi (r%u) is unpredictable",
                 uop.rd);
        int64_t wide =
            static_cast<int64_t>(
                static_cast<int32_t>(state.regs[uop.rm])) *
            static_cast<int32_t>(state.regs[uop.rs]);
        state.regs[uop.ra] = static_cast<uint32_t>(wide);
        state.regs[uop.rd] =
            static_cast<uint32_t>(static_cast<uint64_t>(wide) >> 32);
        info.destReg = uop.rd;
        info.extraLatency = 3;
        break;
      }
      case Op::CLZ: {
        uint32_t v = state.regs[uop.rm];
        uint32_t count = 32;
        while (v) {
            --count;
            v >>= 1;
        }
        writeRd(count);
        break;
      }
      case Op::SDIV: {
        int32_t num = static_cast<int32_t>(state.regs[uop.rn]);
        int32_t den = static_cast<int32_t>(state.regs[uop.rm]);
        int32_t q;
        if (den == 0)
            q = 0;
        else if (num == std::numeric_limits<int32_t>::min() && den == -1)
            q = num;
        else
            q = num / den;
        writeRd(static_cast<uint32_t>(q));
        info.extraLatency = 11;
        break;
      }
      case Op::UDIV: {
        uint32_t den = state.regs[uop.rm];
        writeRd(den ? state.regs[uop.rn] / den : 0u);
        info.extraLatency = 11;
        break;
      }
      case Op::QADD: {
        int64_t sum =
            static_cast<int64_t>(
                static_cast<int32_t>(state.regs[uop.rn])) +
            static_cast<int32_t>(state.regs[uop.rm]);
        writeRd(static_cast<uint32_t>(saturate64(sum)));
        break;
      }
      case Op::QSUB: {
        int64_t diff =
            static_cast<int64_t>(
                static_cast<int32_t>(state.regs[uop.rn])) -
            static_cast<int32_t>(state.regs[uop.rm]);
        writeRd(static_cast<uint32_t>(saturate64(diff)));
        break;
      }

      // --- memory ------------------------------------------------------------
      case Op::LDR: case Op::LDRB: case Op::LDRH:
      case Op::LDRSB: case Op::LDRSH:
      case Op::STR: case Op::STRB: case Op::STRH: {
        uint32_t offset;
        if (uop.memKind == MemOffsetKind::IMM) {
            offset = static_cast<uint32_t>(uop.memDisp);
        } else {
            uint32_t rm_val = state.regs[uop.rm];
            if (uop.memKind == MemOffsetKind::REG_SHIFT_IMM)
                rm_val <<= uop.shiftAmount;
            offset = uop.memAdd ? rm_val : 0u - rm_val;
        }
        uint32_t addr = state.regs[uop.rn] + offset;
        info.mem[info.numMem++] = ExecInfo::MemAccess{addr, info.isStore};
        switch (uop.op) {
          case Op::LDR: writeRd(mem.read32(addr)); break;
          case Op::LDRB: writeRd(mem.read8(addr)); break;
          case Op::LDRH: writeRd(mem.read16(addr)); break;
          case Op::LDRSB:
            writeRd(static_cast<uint32_t>(
                static_cast<int32_t>(static_cast<int8_t>(
                    mem.read8(addr)))));
            break;
          case Op::LDRSH:
            writeRd(static_cast<uint32_t>(
                static_cast<int32_t>(static_cast<int16_t>(
                    mem.read16(addr)))));
            break;
          case Op::STR:
            mem.write32(addr, state.regs[uop.rd]);
            break;
          case Op::STRB:
            mem.write8(addr, static_cast<uint8_t>(state.regs[uop.rd]));
            break;
          default: // STRH
            mem.write16(addr,
                        static_cast<uint16_t>(state.regs[uop.rd]));
            break;
        }
        break;
      }
      case Op::LDM: {
        // Pop style: LDMIA rn!, {list}
        uint32_t addr = state.regs[uop.rn];
        unsigned count = 0;
        bool base_in_list = false;
        for (unsigned reg = 0; reg < NUM_REGS; ++reg) {
            if (!((uop.regList >> reg) & 1u))
                continue;
            state.regs[reg] = mem.read32(addr);
            info.mem[info.numMem++] = ExecInfo::MemAccess{addr, false};
            addr += 4;
            ++count;
            if (reg == uop.rn)
                base_in_list = true;
        }
        if (!base_in_list)
            state.regs[uop.rn] = addr; // writeback
        info.baseWriteback = !base_in_list;
        info.extraLatency = count; // one word per cycle
        break;
      }
      case Op::STM: {
        // Push style: STMDB rn!, {list}
        unsigned count = popcount32(uop.regList);
        uint32_t addr = state.regs[uop.rn] - 4u * count;
        uint32_t new_base = addr;
        // Base-in-list stores the *original* base value (the register
        // file is read before writeback) and, mirroring LDM, suppresses
        // the writeback instead of clobbering the base.
        bool base_in_list = ((uop.regList >> uop.rn) & 1u) != 0;
        for (unsigned reg = 0; reg < NUM_REGS; ++reg) {
            if (!((uop.regList >> reg) & 1u))
                continue;
            mem.write32(addr, state.regs[reg]);
            info.mem[info.numMem++] = ExecInfo::MemAccess{addr, true};
            addr += 4;
        }
        if (!base_in_list)
            state.regs[uop.rn] = new_base;
        info.baseWriteback = !base_in_list;
        info.extraLatency = count;
        break;
      }

      // --- control -------------------------------------------------------------
      case Op::B:
        info.branchTaken = true;
        info.nextIndex = index + uop.branchOffset;
        break;
      case Op::BL:
        info.branchTaken = true;
        state.regs[LR] = codec.addrOf(index + 1);
        info.destReg = LR;
        info.nextIndex = index + uop.branchOffset;
        break;
      case Op::RET: {
        info.branchTaken = true;
        uint32_t target = state.regs[LR];
        if (target < codec.base || ((target - codec.base) &
                                    ((1u << codec.shift) - 1u)) != 0) {
            trap("ret to unaligned or out-of-range address 0x%08x",
                 target);
        }
        info.nextIndex = codec.indexOf(target);
        break;
      }
      case Op::SWI:
        switch (uop.imm) {
          case SWI_EXIT:
            state.halted = true;
            break;
          case SWI_PUTC:
            io.console.push_back(
                static_cast<char>(state.regs[R0] & 0xffu));
            break;
          case SWI_EMIT_WORD:
            io.emitted.push_back(state.regs[R0]);
            break;
          default:
            trap("unknown swi #%u", uop.imm);
        }
        break;
      case Op::NOP:
        break;

      default:
        panic("unexecutable op %s", opName(uop.op));
    }
}

} // namespace pfits
