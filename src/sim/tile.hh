/**
 * @file
 * A Tile: one core's worth of simulation state, steppable in bounded
 * instruction quanta.
 *
 * A tile owns the core's analytic scoreboard, its private I/D L1s, the
 * built-in counters and the in-progress RunResult, so execution can
 * stop after a bounded number of instructions and resume later with
 * bit-identical results. A Machine runs exactly one tile to
 * completion; a Chip (sim/chip.hh) runs N tiles round-robin and wires
 * their L1 miss paths into a shared CoherentL2. The production tile is
 * the predecoded engine (engineTileFactory, sim/fastsim.cc); the
 * differential harness plugs its cycle-exact interpreter oracle
 * (makeOracleTile, verify/differential.hh) into the same seam through
 * a TileFactory. One virtual call per quantum is the whole cost of the
 * indirection.
 *
 * Address coloring: a tile attached to an L2 presents its references
 * as physical addresses virt + addrBase, where the Chip assigns each
 * tile a disjoint base (tileId << tileShift). Tiles therefore never
 * share lines by accident in multiprogrammed runs, while the verify
 * fuzz drives CoherentL2 with deliberately overlapping addresses to
 * exercise the protocol.
 */

#ifndef POWERFITS_SIM_TILE_HH
#define POWERFITS_SIM_TILE_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "cache/coherence.hh"
#include "common/fault.hh"
#include "sim/frontend.hh"
#include "sim/machine.hh"
#include "sim/memory.hh"

namespace pfits
{

class ObserverList; // sim/probe.hh

/** One core plus private L1s, steppable in instruction quanta. */
class Tile : public CoherencePort
{
  public:
    Tile() = default;
    // An attached L2 holds the tile's address as its coherence port.
    Tile(const Tile &) = delete;
    Tile &operator=(const Tile &) = delete;

    /**
     * Route L1 misses through @p l2 (not owned), presenting addresses
     * as virt + @p addrBase. Call before the first step. Without an
     * L2, misses cost the flat CoreConfig penalties — bit-identical to
     * the single-core Machine.
     */
    virtual void attachL2(CoherentL2 *l2, uint32_t addrBase) = 0;

    /**
     * Execute up to @p budget further instructions. Returns early when
     * the run ends (SWI_EXIT, trap, watchdog, parity machine-check);
     * after that done() is true and further steps are no-ops. Faults
     * and observers follow the Machine::run contract; pass the same
     * arguments to every step of one run.
     */
    virtual void step(uint64_t budget, FaultPlan *faults = nullptr,
                      const ObserverList *observers = nullptr) = 0;

    /** The run has ended (in any RunOutcome). */
    virtual bool done() const = 0;

    /**
     * Finalize and return the result: drain cycles, cache stats, final
     * state, observer publication. Call once, after stepping is over —
     * also valid for an unfinished run, which reports partial
     * statistics.
     */
    virtual RunResult finish(const ObserverList *observers = nullptr) = 0;
};

/**
 * The production engine tiles (sim/fastsim.cc). Tiles one factory
 * builds share one predecoded trace per program, so a homogeneous chip
 * predecodes once; use each factory from one thread at a time.
 */
TileFactory engineTileFactory();

/** How a functional run (runFunctional) ended. */
enum class FunctionalEnd : uint8_t
{
    Halted,      //!< SWI_EXIT
    FellOff,     //!< control reached an index past the last op
    CapExceeded, //!< the next op would exceed the instruction cap
};

/** The architectural outcome of a functional run. */
struct FunctionalRun
{
    FunctionalEnd end = FunctionalEnd::Halted;
    /** Per-instruction execution counts (annulled ops included);
     * complete only when the run halted. */
    std::vector<uint64_t> dynCounts;
    uint64_t instructions = 0; //!< ops executed, annulled included
    uint64_t runs = 0;         //!< superblock entries
    IoSinks io;
};

/**
 * Run @p prog functionally on the engine's predecoded handlers, with
 * no caches, scoreboard or observers: a superblock at a time, stepping
 * per op only where a run would cross @p max_instrs. @p uops must be
 * prog.decodeAll(); the trace points into it, so the caller's single
 * decode serves both. Architectural traps propagate as TrapError with
 * the same text as execute(). The profiler's dynamic pass.
 */
FunctionalRun runFunctional(const Program &prog,
                            const std::vector<MicroOp> &uops,
                            uint64_t max_instrs);

} // namespace pfits

#endif // POWERFITS_SIM_TILE_HH
