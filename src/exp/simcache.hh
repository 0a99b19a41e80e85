/**
 * @file
 * The parallel experiment engine's memoization half: a process-wide,
 * thread-safe cache of simulation results.
 *
 * Every figure bench and the test suite simulate the same 21 MiBench
 * kernels under the same handful of configurations; simulation is a
 * pure function of (instruction stream, core configuration, fault
 * schedule), so the second request for any triple is a lookup, not a
 * re-run. The key is content-based — a hash of the program's decoded
 * stream, encodings, and data image; a hash of every key row of the
 * CoreConfig (and ChipConfig) field lists; and a hash of the fault
 * plan's seed and schedule parameters — so two FrontEnds with
 * identical contents hit the same entry regardless of identity.
 *
 * Fault-injected runs are memoized as the outcome of the whole
 * reload-and-retry loop (a FaultPlan is deterministic from its seed,
 * so the retry sequence is too), counters summed over every attempt.
 */

#ifndef POWERFITS_EXP_SIMCACHE_HH
#define POWERFITS_EXP_SIMCACHE_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/fault.hh"
#include "obs/manifest.hh"
#include "sim/chip.hh"
#include "sim/frontend.hh"
#include "sim/machine.hh"
#include "sim/probe.hh"

namespace pfits
{

/**
 * Content hash of @p fe: name, stream, encodings, data image. Walked
 * once per FrontEnd and memoized on it (FrontEnd::memoHash).
 */
uint64_t hashFrontEnd(const FrontEnd &fe);

/**
 * Hash of every kKey row of @p core and its caches (the field lists,
 * common/fields.hh), in list order.
 */
uint64_t hashCoreConfig(const CoreConfig &core);

/**
 * Hash of a chip configuration. Returns 0 for the default (one tile,
 * no shared L2): a default chip run *is* a Machine run, so it must
 * share the Machine run's memo entry — and every pre-chip key must
 * keep its exact value.
 */
uint64_t hashChipConfig(const ChipConfig &chip);

/**
 * The memo key's "config" component: hashCoreConfig alone for a
 * default chip, the (core, chip) pair folded together otherwise. This
 * is the wall between cached single-core results and multi-tile
 * requests — a chip run under L2 contention must never be answered
 * from a Machine entry, or vice versa.
 */
uint64_t hashConfigKey(const CoreConfig &core, const ChipConfig &chip);

/** Hash of a fault schedule (0 when @p faults is disabled). */
uint64_t hashFaultParams(const FaultParams &faults,
                         unsigned max_retries);

/** Hash of an instrumentation request (0 when nothing is armed). */
uint64_t hashObserverSpec(const ObserverSpec &spec);

/**
 * Chip-level products of a multi-tile run: what the aggregate power
 * and IPC analyses need beyond one tile's RunResult. Empty (no
 * tileCycles) for single-core runs.
 */
struct ChipRunStats
{
    uint64_t chipCycles = 0; //!< slowest tile's cycle count
    std::vector<uint64_t> tileCycles;       //!< index = tileId
    std::vector<uint64_t> tileInstructions; //!< index = tileId
    CacheStats l2;            //!< shared-L2 array activity
    CoherenceStats coherence; //!< directory/protocol activity

    bool ranAsChip() const { return !tileCycles.empty(); }
};

/** A memoized simulation: the final run plus instrument products. */
struct SimResult
{
    RunResult run;
    unsigned faultRetries = 0; //!< reload-and-retry attempts consumed

    //! Phase series of the final attempt (ObserverSpec intervals).
    std::vector<IntervalSample> intervals;

    //! JSONL file trace dumps were appended to ("" unless armed).
    std::string tracePath;

    //! Chip-run extras; run is tile 0's result in that case.
    ChipRunStats chip;

    //! The fault plan's counters, summed over every attempt (all zero
    //! unless faults are armed).
    FaultTally faultTally{};

    /**
     * The field list (common/fields.hh): the store entry's "result".
     * chip and faultTally have no row, because pfitsd serves
     * single-core, fault-free runs only.
     */
    template <class V>
    static void
    fields(V &v)
    {
        v("run", &SimResult::run);
        v("fault_retries", &SimResult::faultRetries);
        v("intervals", &SimResult::intervals);
        v("trace_path", &SimResult::tracePath);
    }
};

/**
 * One simulation request as the Runner phrases it. The FrontEnd and
 * CoreConfig are authoritative (they define the content-addressed
 * key); bench/isFits name the same workload symbolically so a remote
 * service can rebuild it without shipping the instruction stream.
 */
struct SimRequest
{
    const FrontEnd *fe = nullptr;
    const CoreConfig *core = nullptr;
    FaultParams faults = {};  //!< final derived schedule (post seed mix)
    unsigned maxRetries = 0;  //!< reload-and-retry bound under faults

    /**
     * Instruments to attach (interval series, trap tracing). They join
     * the key, since their products only exist for runs that executed
     * with them attached.
     */
    ObserverSpec spec = {};

    /**
     * Chip-level shape of the run. Default = one tile, no shared L2 —
     * a plain Machine run. Non-default requests run a homogeneous
     * chip.tiles-tile Chip and are resolved locally (the daemon
     * protocol is single-core); the chip joins the content-addressed
     * key via hashConfigKey, so a cached single-core result never
     * answers a multi-tile request.
     */
    ChipConfig chip = {};

    /**
     * MiBench suite benchmark this program was built from, "" when the
     * request is not suite-addressable (hand-built programs in tests).
     */
    std::string bench = {};
    bool isFits = false; //!< bench's FITS translation vs its ARM form

    /**
     * The content-addressed identity of this request: the one place a
     * memo key is built, for SimCache, the pfitsd client and pfitsd.
     */
    SimKey
    key() const
    {
        return {hashFrontEnd(*fe), hashConfigKey(*core, chip),
                hashFaultParams(faults, maxRetries),
                hashObserverSpec(spec)};
    }
};

/**
 * Simulate @p request, uncached. When its faults are armed the whole
 * reload-and-retry loop (up to maxRetries reloads after a parity
 * machine-check) runs here; its ObserverSpec attaches the interval
 * series and the trap tracer. A non-default chip runs the program as
 * a homogeneous Chip — chip.tiles copies of (fe, core), round-robin
 * over the shared L2 — and reports tile 0's RunResult plus the
 * chip-level extras in SimResult::chip. Fault injection is single-core
 * only: armed faults with a non-default chip are a fatal usage error.
 * A trap-armed run appends one bounded dump per qualifying attempt to
 * <traceDir>/<fe name>_<core name>.trace.jsonl.
 *
 * Each call is one "sim" trace span and one simcache.sim_ms sample.
 * SimCache memoizes it per process; pfitsd calls it directly, since
 * its store and single-flight map already are its memo.
 */
SimResult runSimulation(const SimRequest &request);

/**
 * Process-wide memo over runSimulation: one unbounded map from
 * SimRequest::key() to result, so keys() is every simulation this
 * process asked for — the manifest's "sims" provenance. Beneath it a
 * second map computes each distinct *run* once: requests that differ
 * only in the core's name, or in the capacity of an I-cache that holds
 * the whole program, share one runSimulation (simcache.cc,
 * runIdentity).
 */
class SimCache
{
  public:
    /** The process-wide instance every Runner shares. */
    static SimCache &instance();

    /**
     * runSimulation(@p request), memoized under request.key().
     * Thread-safe; two threads asking for the same key simulate once.
     * A request whose run another request already made (or is making)
     * gets a copy of it with run.config set to its own core's name.
     */
    SimResult simulate(const SimRequest &request);

    /**
     * The completed entry under @p key, if one is resident. Never
     * computes, never blocks on an in-flight computation, and does not
     * count as a hit or a miss — this is the probe the daemon client
     * uses to decide whether a socket round trip is needed at all.
     */
    std::optional<SimResult> tryGet(const SimKey &key);

    /**
     * Insert a result computed elsewhere (a pfitsd store hit) under
     * @p key, so later simulate()/tryGet() calls — and the manifest's
     * "sims" provenance section — see it exactly as if it had been
     * simulated here. A no-op when the key is already resident or
     * being computed. @return true when the entry was inserted.
     */
    bool seed(const SimKey &key, SimResult result);

    /** Requests answered by their own key's entry. */
    uint64_t hits() const { return hits_.load(); }
    /** Fresh runSimulation calls. */
    uint64_t misses() const { return misses_.load(); }
    /** Requests answered by another request's run. */
    uint64_t shared() const { return shared_.load(); }
    size_t entries() const;

    /**
     * Content hashes of every memoized simulation, sorted — the
     * manifest's "sims" provenance section. Benches that drive
     * Machine::run directly (bypassing the cache) do not appear.
     */
    std::vector<SimKey> keys() const;

    /** Drop all entries and zero the hit/miss/shared counters. */
    void clear();

  private:
    /**
     * Shared so clear() can drop an entry while a computation on it is
     * still in flight.
     */
    struct Slot
    {
        std::once_flag once;
        SimResult value;
        std::atomic<bool> done{false}; //!< value is valid
    };

    using SlotMap =
        std::unordered_map<SimKey, std::shared_ptr<Slot>, SimKeyHash>;

    SimCache() = default;

    /** Find-or-create the slot for @p key in @p map. */
    std::shared_ptr<Slot> acquireSlot(SlotMap &map, const SimKey &key);

    /** The result for @p request (key @p key) through its run
     * identity's slot: a fresh run, or a share of a completed one. */
    SimResult run(const SimRequest &request, const SimKey &key);

    mutable std::mutex mu_;
    SlotMap map_;  //!< by request key
    SlotMap runs_; //!< by run identity
    std::atomic<uint64_t> hits_{0};
    std::atomic<uint64_t> misses_{0};
    std::atomic<uint64_t> shared_{0};
};

} // namespace pfits

#endif // POWERFITS_EXP_SIMCACHE_HH
