/**
 * @file
 * The Machine: an SA-1100-flavoured dual-issue in-order core with split
 * I/D caches, run execution-driven over a FrontEnd.
 *
 * Timing is an analytic in-order scoreboard (earliest-issue computation
 * per instruction) rather than a cycle loop, which keeps full-program
 * simulation fast while modelling the effects the paper's evaluation
 * depends on: dual-issue pairing rules, load-use and multiply latencies,
 * taken-branch bubbles, and blocking I/D-cache misses.
 *
 * The engine keeps the RunResult counters — including the activity
 * counts the power models consume (fetch-bus Hamming toggles, refill
 * words) — in its own loop state, and the fault plan keeps the fault
 * accounting. Any other instrument (interval stats, trace rings,
 * anything new) is an observer over the typed event stream the run
 * emits (sim/probe.hh), registered through an ObserverList without
 * touching the hot loop.
 *
 * The execution loop itself is a Tile (sim/tile.hh): Machine::run
 * builds one engine tile (sim/fastsim.cc) and steps it to completion,
 * and a Chip (sim/chip.hh) runs N such tiles round-robin against a
 * shared coherent L2. The Machine remains the single-core entry point
 * the experiment engine and differential harness build on.
 */

#ifndef POWERFITS_SIM_MACHINE_HH
#define POWERFITS_SIM_MACHINE_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "cache/cache.hh"
#include "common/fault.hh"
#include "common/fields.hh"
#include "sim/executor.hh"
#include "sim/frontend.hh"
#include "sim/memory.hh"

namespace pfits
{

class ObserverList; // sim/probe.hh

/**
 * How a simulated run ended. Everything except Completed used to abort
 * the toolchain via fatal(); under fault injection they are expected,
 * countable outcomes, and the harness decides what is retryable.
 */
enum class RunOutcome : uint8_t
{
    Completed,       //!< SWI_EXIT reached; results are architectural
    Trapped,         //!< architectural trap (misalignment, wild ret, ...)
    WatchdogExpired, //!< hit the maxInstructions runaway guard
    FaultDetected,   //!< a hardware checker (parity) raised machine-check
};

/** @return "completed"/"trapped"/"watchdog-expired"/"fault-detected". */
const char *runOutcomeName(RunOutcome outcome);

template <>
struct FieldEnum<RunOutcome>
{
    static constexpr unsigned kCount = 4;
    static const char *name(RunOutcome o) { return runOutcomeName(o); }
};

/** Core configuration (defaults model the Intel SA-1100). */
struct CoreConfig
{
    std::string name = "sa1100";
    unsigned issueWidth = 2;       //!< paper: dual-issue, IPC max 2
    unsigned branchPenalty = 2;    //!< bubbles after a taken branch
    unsigned icacheMissPenalty = 24; //!< cycles to refill a line
    unsigned dcacheMissPenalty = 24;
    CacheConfig icache{"icache", 16 * 1024, 32, 32, ReplPolicy::LRU,
                       true};
    CacheConfig dcache{"dcache", 8 * 1024, 32, 32, ReplPolicy::LRU,
                       true};
    uint64_t maxInstructions = 400'000'000; //!< runaway guard
    double clockHz = 200e6;        //!< paper: fixed 200 MHz

    /**
     * Model a fetch buffer: the I-cache is only accessed when the fetch
     * crosses into a new 32-bit word, so a 16-bit stream makes ~half the
     * array accesses. Off by default — the paper's (sim-panalyzer)
     * average-power model charges one access per instruction, which its
     * Figure 8 (FITS16 internal ~ ARM16) pins down; this switch exists
     * for the fetch-packing ablation (bench/ext_fetch_packing).
     *
     * Packed-fetch buffer contract: the buffer caches exactly one
     * 32-bit word, tagged by word address; it starts a run empty, and
     * it is invalidated whenever the fetch path can no longer vouch
     * for the word — a soft error landing in the I-cache (the struck
     * line may be the buffered one, and the next fetch must go back to
     * the array so parity can see the corruption) and a parity
     * machine-check ending the run. It is never serviced across those
     * events with stale contents.
     */
    bool packedFetch = false;

    /** The field list (common/fields.hh). clock_hz hashes as whole
     * millihertz. */
    template <class V>
    static void
    fields(V &v)
    {
        v("name", &CoreConfig::name, kKey);
        v("issue_width", &CoreConfig::issueWidth, kKey);
        v("branch_penalty", &CoreConfig::branchPenalty, kKey);
        v("icache_miss_penalty", &CoreConfig::icacheMissPenalty, kKey);
        v("dcache_miss_penalty", &CoreConfig::dcacheMissPenalty, kKey);
        v("icache", &CoreConfig::icache, kKey);
        v("dcache", &CoreConfig::dcache, kKey);
        v("max_instructions", &CoreConfig::maxInstructions, kKey);
        v("clock_hz", &CoreConfig::clockHz, kKey);
        v("packed_fetch", &CoreConfig::packedFetch, kKey);
    }
};

/** Everything a run produces, for the metrics and power layers. */
struct RunResult
{
    std::string benchmark;
    std::string config;

    uint64_t instructions = 0; //!< dynamic instructions (incl. annulled)
    uint64_t annulled = 0;     //!< condition-failed instructions
    uint64_t cycles = 0;
    double clockHz = 200e6;

    CacheStats icache;
    CacheStats dcache;

    uint64_t fetchToggleBits = 0; //!< output-bus Hamming toggles
    uint64_t fetchBitsTotal = 0;  //!< bits delivered by the I-cache
    uint64_t icacheRefillWords = 0;
    uint64_t dmemAccesses = 0;
    uint64_t takenBranches = 0;

    IoSinks io;
    CpuState finalState;
    RunOutcome outcome = RunOutcome::Trapped;
    std::string trapReason;    //!< diagnostic for non-Completed outcomes

    /** The field list (common/fields.hh). */
    template <class V>
    static void
    fields(V &v)
    {
        v("benchmark", &RunResult::benchmark);
        v("config", &RunResult::config);
        v("instructions", &RunResult::instructions);
        v("annulled", &RunResult::annulled);
        v("cycles", &RunResult::cycles);
        v("clock_hz", &RunResult::clockHz);
        v("icache", &RunResult::icache);
        v("dcache", &RunResult::dcache);
        v("fetch_toggle_bits", &RunResult::fetchToggleBits);
        v("fetch_bits_total", &RunResult::fetchBitsTotal);
        v("icache_refill_words", &RunResult::icacheRefillWords);
        v("dmem_accesses", &RunResult::dmemAccesses);
        v("taken_branches", &RunResult::takenBranches);
        v("io", &RunResult::io);
        v("final_state", &RunResult::finalState);
        v("outcome", &RunResult::outcome);
        v("trap_reason", &RunResult::trapReason);
    }

    double
    ipc() const
    {
        return cycles ? static_cast<double>(instructions) / cycles : 0.0;
    }

    double seconds() const { return cycles / clockHz; }
};

class Tile; // sim/tile.hh

/** Builds the tile for one core (sim/tile.hh); @p fe and @p mem, pre-
 * loaded with the data segments, must outlive it. Empty = the engine
 * (engineTileFactory). */
using TileFactory = std::function<std::unique_ptr<Tile>(
    const FrontEnd &fe, const CoreConfig &config, Memory &mem,
    unsigned tileId)>;

/** An execution-driven simulated machine: one tile run to completion. */
class Machine
{
  public:
    /**
     * @param fe      the instruction stream (not owned; must outlive us)
     * @param config  core parameters
     * @param factory the tile to run; empty = the production engine
     *                (the differential harness passes its oracle)
     */
    Machine(const FrontEnd &fe, const CoreConfig &config,
            TileFactory factory = {});

    /**
     * Run from instruction 0 until SWI_EXIT, an architectural trap, a
     * parity machine-check, or the instruction cap — all reported as
     * the RunResult's outcome (with partial statistics), never by
     * aborting. An optional @p faults plan injects scheduled soft
     * errors into the I-cache and data memory while running; optional
     * @p observers receive the run's typed event stream (sim/probe.hh)
     * and must be registered before the call — an empty or absent list
     * costs nothing measurable.
     */
    RunResult run(FaultPlan *faults = nullptr,
                  ObserverList *observers = nullptr);

    Memory &mem() { return mem_; }
    const Memory &mem() const { return mem_; }
    const CoreConfig &config() const { return config_; }

  private:
    const FrontEnd &fe_;
    CoreConfig config_;
    Memory mem_;
    TileFactory factory_;
};

} // namespace pfits

#endif // POWERFITS_SIM_MACHINE_HH
