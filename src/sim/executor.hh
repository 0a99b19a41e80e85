/**
 * @file
 * The micro-op datapath of the cycle-exact oracle (src/verify/oracle.cc),
 * plus the architectural types every simulator shares (CpuState,
 * AddrCodec, ExecInfo, IoSinks). The production engine is
 * src/sim/fastsim.cc; execute() here is its straight-line reference.
 *
 * Both front-ends (the fixed ARM decoder and the programmable FITS
 * decoder) feed MicroOps into this datapath, mirroring the paper's design
 * where instruction synthesis changes the decode, never the functional
 * units. Instruction addresses are abstracted behind instruction
 * *indices*; an AddrCodec translates between indices and byte addresses
 * so the same datapath runs 4-byte ARM and 2-byte FITS streams.
 */

#ifndef POWERFITS_SIM_EXECUTOR_HH
#define POWERFITS_SIM_EXECUTOR_HH

#include <cstdint>

#include "isa/isa.hh"
#include "sim/memory.hh"

namespace pfits
{

/** Architectural state of the core. */
struct CpuState
{
    uint32_t regs[NUM_REGS] = {};
    Flags flags;
    bool halted = false;

    /** The field list (common/fields.hh). */
    template <class V>
    static void
    fields(V &v)
    {
        v("regs", &CpuState::regs);
        v("flags", &CpuState::flags);
        v("halted", &CpuState::halted);
    }
};

/** Index <-> byte-address mapping for one instruction stream. */
struct AddrCodec
{
    uint32_t base = 0;
    uint32_t shift = 2; //!< log2(bytes per instruction): 2=ARM, 1=FITS

    /** indexOf() result for an address below the code base. */
    static constexpr uint64_t kBadIndex = ~0ull;

    uint32_t addrOf(uint64_t index) const
    {
        return base + (static_cast<uint32_t>(index) << shift);
    }

    /**
     * @return the instruction index at @p addr, or kBadIndex when the
     * address sits below the code base — `addr - base` would otherwise
     * wrap to a huge offset and masquerade as an in-range index.
     */
    uint64_t indexOf(uint32_t addr) const
    {
        if (addr < base)
            return kBadIndex;
        return static_cast<uint64_t>(addr - base) >> shift;
    }
};

/**
 * Everything the timing/power layers need to know about one exec.
 *
 * execute() rewrites every scalar field on each call but only the
 * first numMem entries of mem[]; readers must stop at numMem.
 */
struct ExecInfo
{
    bool executed = false;     //!< condition passed
    bool branch = false;       //!< is a control instruction
    bool branchTaken = false;  //!< redirected the front-end
    bool isLoad = false;
    bool isStore = false;
    bool isMulDiv = false;
    //! LDM/STM wrote the base register back (false when rn is in the
    //! register list — base-in-list forms suppress writeback).
    bool baseWriteback = false;
    uint8_t destReg = 0xff;    //!< 0xff when no register result
    uint32_t extraLatency = 0; //!< functional-unit latency beyond 1 cycle
    unsigned numMem = 0;
    uint64_t nextIndex = 0;    //!< instruction index to run next

    //! Data-memory accesses performed (LDM/STM make several).
    struct MemAccess
    {
        uint32_t addr;
        bool write;
    };
    static constexpr unsigned kMaxMem = 17;
    MemAccess mem[kMaxMem];
};

/** Console/result sinks filled in by SWI instructions. */
struct IoSinks
{
    std::string console;
    std::vector<uint32_t> emitted;

    /** The field list (common/fields.hh). */
    template <class V>
    static void
    fields(V &v)
    {
        v("console", &IoSinks::console);
        v("emitted", &IoSinks::emitted);
    }
};

/**
 * Execute one micro-op.
 *
 * @param uop   the decoded instruction
 * @param index its instruction index
 * @param codec index/address mapping of the running stream
 * @param state architectural state (updated in place)
 * @param mem   data memory
 * @param io    SWI output sinks
 * @param info  out: effects for the timing model
 */
void execute(const MicroOp &uop, uint64_t index, const AddrCodec &codec,
             CpuState &state, Memory &mem, IoSinks &io, ExecInfo &info);

} // namespace pfits

#endif // POWERFITS_SIM_EXECUTOR_HH
