/**
 * @file
 * The golden reference interpreter: a deliberately naive, single-file
 * uARM/MicroOp interpreter that shares no execution code with the
 * engine (src/sim/fastsim.cc) or with the cycle-exact oracle's
 * datapath (src/sim/executor.cc, driven by src/verify/oracle.cc).
 *
 * The engine is written for speed (pre-decoded handlers, batched
 * timing); the oracle's datapath carries ExecInfo plumbing for its
 * timing model. This interpreter is written
 * for obviousness — one switch, straight-line semantics transcribed
 * from the ISA description in src/isa/isa.hh and the documented uARM
 * deviations (DESIGN.md §7: no shifter carry-out, shift amount 0 is
 * identity). Running both over the same program and comparing final
 * state is the differential check in src/verify/differential.hh.
 *
 * Deliberate non-features: no scoreboard, no caches, no ExecInfo, no
 * observers — just architectural state, so a disagreement can only be
 * a semantics bug on one of the two sides.
 */

#ifndef POWERFITS_VERIFY_GOLDEN_HH
#define POWERFITS_VERIFY_GOLDEN_HH

#include <cstdint>
#include <string>

#include "sim/frontend.hh"
#include "sim/machine.hh"
#include "sim/memory.hh"

namespace pfits
{

/** Architectural outcome of one golden-model run. */
struct GoldenResult
{
    CpuState finalState;
    IoSinks io;
    uint64_t retired = 0;  //!< dynamic instructions, incl. annulled
    uint64_t annulled = 0; //!< condition-failed instructions
    RunOutcome outcome = RunOutcome::Completed;
    std::string trapReason; //!< diagnostic for non-Completed outcomes
};

/**
 * Interpret a FrontEnd's instruction stream functionally.
 *
 * Loads the stream's data segments into a private Memory at
 * construction; run() interprets from instruction 0 until SWI_EXIT, an
 * architectural trap, or the @p max_instructions watchdog. The memory
 * remains accessible afterwards for differential comparison.
 */
class GoldenInterpreter
{
  public:
    explicit GoldenInterpreter(const FrontEnd &fe);

    GoldenResult run(uint64_t max_instructions = 400'000'000);

    Memory &mem() { return mem_; }
    const Memory &mem() const { return mem_; }

  private:
    const FrontEnd &fe_;
    Memory mem_;
};

} // namespace pfits

#endif // POWERFITS_VERIFY_GOLDEN_HH
