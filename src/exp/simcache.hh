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
 * so the retry sequence is too).
 */

#ifndef POWERFITS_EXP_SIMCACHE_HH
#define POWERFITS_EXP_SIMCACHE_HH

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
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

/** Content hash of @p fe: name, stream, encodings, data image. */
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

    /**
     * The field list (common/fields.hh): the store entry's "result".
     * chip has no row, because pfitsd serves single-core runs only.
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

/** Process-wide memoization cache over Machine::run. */
class SimCache
{
  public:
    /** The process-wide instance every Runner shares. */
    static SimCache &instance();

    /**
     * Simulate @p fe on @p core, memoized. When @p faults is armed the
     * whole reload-and-retry loop (up to @p max_retries reloads after
     * a parity machine-check) runs inside the cached computation.
     * @p spec attaches instruments (interval series, trap tracing) to
     * the run; it joins the memo key, since the instruments' products
     * only exist for runs that executed with them attached.
     * Thread-safe; two threads asking for the same key simulate once.
     *
     * A non-default @p chip runs the program as a homogeneous Chip —
     * chip.tiles copies of (fe, core), round-robin over the shared L2
     * — and reports tile 0's RunResult plus the chip-level extras in
     * SimResult::chip. The chip configuration joins the memo key
     * (hashConfigKey), so a cached single-core result never answers a
     * multi-tile request. Fault injection is single-core only: armed
     * faults with a non-default chip are a fatal usage error.
     */
    SimResult simulate(const FrontEnd &fe, const CoreConfig &core,
                       const FaultParams &faults = {},
                       unsigned max_retries = 0,
                       const ObserverSpec &spec = {},
                       const ChipConfig &chip = {});

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

    /**
     * Bound the cache to @p max_entries completed entries (0 — the
     * default — is unbounded), evicting least-recently-used completed
     * entries on overflow. The PFITS_SIMCACHE_MAX environment variable
     * sets the initial bound; this setter overrides it. Entries still
     * being computed are never evicted.
     */
    void setMaxEntries(size_t max_entries);
    size_t maxEntries() const { return maxEntries_.load(); }

    uint64_t hits() const { return hits_.load(); }
    uint64_t misses() const { return misses_.load(); }
    uint64_t evictions() const { return evictions_.load(); }
    size_t entries() const;

    /**
     * Content hashes of every memoized simulation, sorted — the
     * manifest's "sims" provenance section. Benches that drive
     * Machine::run directly (bypassing the cache) do not appear.
     */
    std::vector<SimKey> keys() const;

    /** Drop all entries and zero the hit/miss counters. */
    void clear();

  private:
    struct Slot
    {
        std::once_flag once;
        SimResult value;
        std::atomic<bool> done{false}; //!< value is valid (eviction-safe)
    };

    struct Entry
    {
        std::shared_ptr<Slot> slot;
        std::list<SimKey>::iterator lruPos;
    };

    SimCache();

    SimResult computeLocked(Slot &slot, const FrontEnd &fe,
                            const CoreConfig &core,
                            const FaultParams &faults,
                            unsigned max_retries,
                            const ObserverSpec &spec,
                            const ChipConfig &chip);

    /** Find-or-create the slot for @p key and touch its recency. */
    std::shared_ptr<Slot> acquireSlot(const SimKey &key);

    /** Drop LRU completed entries until within budget. Caller holds mu_. */
    void enforceBudgetLocked();

    mutable std::mutex mu_;
    std::unordered_map<SimKey, Entry, SimKeyHash> map_;
    std::list<SimKey> lru_; //!< front = most recently used
    std::atomic<size_t> maxEntries_{0};
    std::atomic<uint64_t> hits_{0};
    std::atomic<uint64_t> misses_{0};
    std::atomic<uint64_t> evictions_{0};
};

} // namespace pfits

#endif // POWERFITS_EXP_SIMCACHE_HH
