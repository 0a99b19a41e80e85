/**
 * @file
 * The FITS profiler — stage 1 of the paper's design flow (Figure 1).
 *
 * Performs the "extensive requirement analysis related to each element
 * that makes up an instruction set": per-signature static and dynamic
 * counts, value histograms (immediates per category, displacements,
 * shift amounts, trap numbers), register pressure and free registers,
 * distinct LDM/STM register lists, and merged MOVW/MOVT constants.
 */

#ifndef POWERFITS_FITS_PROFILE_HH
#define POWERFITS_FITS_PROFILE_HH

#include <array>
#include <cstdint>
#include <map>
#include <vector>

#include "assembler/program.hh"
#include "fits/signature.hh"

namespace pfits
{

/** Counts and value histogram for one signature. */
struct SigStats
{
    Signature sig;
    uint64_t staticCount = 0;
    uint64_t dynCount = 0;
    /**
     * Histogram over the signature's characteristic value:
     * IMM -> immediate value; MEM_IMM -> displacement;
     * SHIFT_IMM / MEM_REG -> shift amount; B/BL -> branch offset;
     * SWI -> trap number. Keys are the value, weights are dynamic
     * counts (static count is added when the program never runs).
     */
    std::map<int64_t, uint64_t> values;
    uint64_t rdEqRnCount = 0; //!< two-operand (rd==rn) usage, plain ALU
    /** (rd << 8) | ra combinations of REG4 long ops, for slot baking. */
    std::map<uint16_t, uint64_t> regPairs;
};

/** The complete requirement analysis of one program. */
struct ProfileInfo
{
    std::map<uint64_t, SigStats> sigs; //!< keyed by Signature::key()

    std::array<uint64_t, NUM_REGS> regReads{};
    std::array<uint64_t, NUM_REGS> regWrites{};
    uint16_t regsUsed = 0; //!< bitmask of registers the program touches

    std::map<uint16_t, uint64_t> regLists; //!< LDM/STM lists (dyn counts)

    /**
     * 32-bit constants produced by adjacent MOVW/MOVT pairs that the
     * peephole may merge into a single dictionary move.
     */
    std::map<uint32_t, uint64_t> pairConstants;
    /** Instruction indices (of the MOVW) of mergeable pairs. */
    std::vector<uint32_t> mergeablePairs;

    std::vector<uint64_t> dynCounts; //!< per-instruction execution count
    uint64_t totalStatic = 0;
    uint64_t totalDynamic = 0;

    /** Number of distinct registers used. */
    unsigned numRegsUsed() const;
    /** Highest-numbered unused register, or -1 when none is free. */
    int pickScratchReg() const;
    /** Look up a signature's stats (nullptr when absent). */
    const SigStats *find(const Signature &sig) const;
};

/**
 * Profile @p prog.
 *
 * @param prog        the ARM program
 * @param run_dynamic run the program functionally on the engine's
 *                    handlers (runFunctional, sim/tile.hh) to obtain
 *                    dynamic counts (otherwise static counts are used
 *                    as the dynamic estimate, as a pure static profile
 *                    would)
 * @param max_instrs  cap on profiled dynamic instructions
 */
ProfileInfo profileProgram(const Program &prog, bool run_dynamic = true,
                           uint64_t max_instrs = 400'000'000);

/**
 * Find mergeable MOVW/MOVT pairs: adjacent, same rd, both AL and not
 * flag-setting, and the MOVT is not a branch target. @return indices of
 * the MOVW halves.
 */
std::vector<uint32_t> findMovPairs(const Program &prog,
                                   const std::vector<MicroOp> &uops);

} // namespace pfits

#endif // POWERFITS_FITS_PROFILE_HH
