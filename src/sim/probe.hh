/**
 * @file
 * The probe/observer layer: pluggable instrumentation for the Machine.
 *
 * The paper's whole evaluation is activity-count driven — I-cache
 * accesses, fetch-bus Hamming toggles, refill words — and every new
 * measurement used to mean another edit to the Machine::run hot loop.
 * This layer gives the loop seams instead: the Machine emits typed
 * events (fetch, issue, commit, data access, fault, run end) and
 * observers consume them.
 *
 * Performance contract: the RunResult counters are built into the
 * engine's loop (sim/fastsim.cc) as its own loop state, not observers,
 * so they cost the zero-observer run nothing extra. External observers
 * go through an ObserverList registered up front; its empty fast path
 * is a single predictable branch per event site, so zero-observer runs
 * cost nothing measurable (numbers in docs/OBSERVABILITY.md).
 */

#ifndef POWERFITS_SIM_PROBE_HH
#define POWERFITS_SIM_PROBE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "cache/cache.hh"
#include "cache/coherence.hh"
#include "common/bitops.hh"
#include "common/fault.hh"
#include "sim/executor.hh"

namespace pfits
{

struct RunResult; // sim/machine.hh; broken include cycle

// --- events --------------------------------------------------------------

/** One instruction fetched (emitted once per dynamic instruction). */
struct FetchEvent
{
    uint64_t index;    //!< instruction index in the stream
    uint32_t addr;     //!< byte address of the fetch
    uint32_t encoding; //!< raw bits (low @ref bits bits)
    unsigned bits;     //!< instruction width: 32 for ARM, 16 for FITS
    bool newWord;      //!< the I-cache array was actually accessed
    CacheAccessResult cache; //!< array access outcome (when newWord)
    uint32_t lineWords;      //!< words refilled when the access missed
};

/** Why an instruction could not issue with its predecessor. */
enum class StallReason : uint8_t
{
    None,       //!< issued in the same cycle as its predecessor
    FrontEnd,   //!< fetch path: I-cache miss penalty or branch bubble
    Operands,   //!< waited on a source register or the NZCV flags
    Structural, //!< issue width, memory port or multiplier conflict
};

/** @return "none"/"frontend"/"operands"/"structural". */
const char *stallReasonName(StallReason reason);

/** One instruction placed into an issue group. */
struct IssueEvent
{
    uint64_t index;       //!< instruction index
    uint64_t cycle;       //!< cycle the instruction issues in
    unsigned slot;        //!< slot within the issue group (0-based)
    uint64_t stallCycles; //!< cycles since the previous issue
    StallReason reason;   //!< binding constraint behind stallCycles
};

/** One instruction retired (functional execution done). */
struct CommitEvent
{
    uint64_t index;
    const MicroOp *uop;
    const ExecInfo *info; //!< executed/annulled, branch, dest, ...
    uint64_t cycle;       //!< issue cycle of this instruction
};

/** One D-cache access performed by a load/store (LDM/STM: several). */
struct DataAccessEvent
{
    uint64_t index; //!< instruction index performing the access
    uint32_t addr;
    bool write;
    CacheAccessResult cache;
};

/** A soft-error lifecycle event (injection, detection, escape). */
struct FaultEvent
{
    enum class Kind : uint8_t { Injected, Detected, Escaped };

    FaultTarget target;
    Kind kind;
    uint64_t instr; //!< dynamic instruction count at the event
    uint32_t addr;  //!< fetch address for consumption events, else 0
};

/** @return "injected"/"detected"/"escaped". */
const char *faultEventKindName(FaultEvent::Kind kind);

// --- the observer interface ----------------------------------------------

/**
 * Instrumentation interface over one Machine::run. Hooks default to
 * no-ops so observers override only what they consume. onRunEnd sees
 * the RunResult being finalized and may write into it (that is how the
 * interpreter oracle's counter observers publish their totals).
 */
class SimObserver
{
  public:
    virtual ~SimObserver() = default;

    virtual void onFetch(const FetchEvent &) {}
    virtual void onIssue(const IssueEvent &) {}
    virtual void onCommit(const CommitEvent &) {}
    virtual void onDataAccess(const DataAccessEvent &) {}
    virtual void onFault(const FaultEvent &) {}

    /**
     * One MSI protocol action at the shared L2 (cache/coherence.hh).
     * Emitted only by Chip runs — a single-core Machine has no L2, so
     * existing observers never see these.
     */
    virtual void onCoherence(const CoherenceEvent &) {}

    virtual void onRunEnd(RunResult &) {}
};

/**
 * External observers of one run, registered up front (never during a
 * run). The Machine guards every fan-out with empty(), so an empty
 * list costs one predictable branch per event site.
 */
class ObserverList
{
  public:
    /** Register @p obs (not owned; must outlive the run). */
    void
    add(SimObserver *obs)
    {
        if (obs)
            observers_.push_back(obs);
    }

    bool empty() const { return observers_.empty(); }
    size_t size() const { return observers_.size(); }

    // Inline fan-out, one per event type.
    void
    fetch(const FetchEvent &e) const
    {
        for (SimObserver *o : observers_)
            o->onFetch(e);
    }

    void
    issue(const IssueEvent &e) const
    {
        for (SimObserver *o : observers_)
            o->onIssue(e);
    }

    void
    commit(const CommitEvent &e) const
    {
        for (SimObserver *o : observers_)
            o->onCommit(e);
    }

    void
    dataAccess(const DataAccessEvent &e) const
    {
        for (SimObserver *o : observers_)
            o->onDataAccess(e);
    }

    void
    fault(const FaultEvent &e) const
    {
        for (SimObserver *o : observers_)
            o->onFault(e);
    }

    void
    coherence(const CoherenceEvent &e) const
    {
        for (SimObserver *o : observers_)
            o->onCoherence(e);
    }

    void
    runEnd(RunResult &result) const
    {
        for (SimObserver *o : observers_)
            o->onRunEnd(result);
    }

  private:
    std::vector<SimObserver *> observers_;
};

namespace detail
{

/** Low-bits mask for an instruction width (32 for ARM, 16 for FITS). */
inline uint32_t
encodingMask(unsigned bits)
{
    return bits >= 32 ? 0xffffffffu : ((1u << bits) - 1u);
}

} // namespace detail

// --- shipped instruments --------------------------------------------------

/** One closed interval of an IntervalStatsObserver series. */
struct IntervalSample
{
    uint64_t firstInstruction = 0; //!< dynamic index of the first instr
    uint64_t instructions = 0;
    uint64_t cycles = 0;
    uint64_t icacheAccesses = 0;
    uint64_t icacheMisses = 0;
    uint64_t toggleBits = 0;
    uint64_t fetchBits = 0;

    /** The field list (common/fields.hh). */
    template <class V>
    static void
    fields(V &v)
    {
        v("first_instruction", &IntervalSample::firstInstruction);
        v("instructions", &IntervalSample::instructions);
        v("cycles", &IntervalSample::cycles);
        v("icache_accesses", &IntervalSample::icacheAccesses);
        v("icache_misses", &IntervalSample::icacheMisses);
        v("toggle_bits", &IntervalSample::toggleBits);
        v("fetch_bits", &IntervalSample::fetchBits);
    }

    double
    ipc() const
    {
        return cycles ? static_cast<double>(instructions) / cycles : 0.0;
    }

    /** Paper metric: misses per one million I-cache accesses. */
    double
    missesPerMillion() const
    {
        return icacheAccesses ? static_cast<double>(icacheMisses) /
                                    icacheAccesses * 1e6
                              : 0.0;
    }

    /** Fraction of delivered fetch bits that toggled. */
    double
    toggleRate() const
    {
        return fetchBits ? static_cast<double>(toggleBits) / fetchBits
                         : 0.0;
    }
};

/**
 * Per-N-instruction phase series: IPC, I-cache miss rate and fetch-bus
 * toggle rate per interval (bench/ext_phase_behavior prints the
 * curves). Invariant: the samples partition the run — instructions,
 * cycles, accesses, misses, toggle and fetch bits each sum to the
 * RunResult totals (the final sample absorbs the partial tail and the
 * pipeline-drain cycles).
 */
class IntervalStatsObserver final : public SimObserver
{
  public:
    /** @param every interval length in dynamic instructions (>= 1). */
    explicit IntervalStatsObserver(uint64_t every)
        : every_(every ? every : 1)
    {
        current_.firstInstruction = 0;
    }

    void
    onFetch(const FetchEvent &e) override
    {
        current_.toggleBits += popcount32(
            (e.encoding ^ prevWord_) & detail::encodingMask(e.bits));
        prevWord_ = e.encoding;
        current_.fetchBits += e.bits;
        if (e.newWord) {
            ++current_.icacheAccesses;
            if (!e.cache.hit)
                ++current_.icacheMisses;
        }
    }

    void
    onCommit(const CommitEvent &e) override
    {
        ++current_.instructions;
        if (current_.instructions >= every_)
            close(e.cycle);
    }

    void onRunEnd(RunResult &result) override;

    const std::vector<IntervalSample> &intervals() const
    {
        return intervals_;
    }

    /** Move the series out (the observer is spent afterwards). */
    std::vector<IntervalSample>
    take()
    {
        return std::move(intervals_);
    }

  private:
    /** Close the current interval at boundary cycle @p cycle. */
    void
    close(uint64_t cycle)
    {
        current_.cycles = cycle - startCycle_;
        startCycle_ = cycle;
        uint64_t next_first =
            current_.firstInstruction + current_.instructions;
        intervals_.push_back(current_);
        current_ = IntervalSample{};
        current_.firstInstruction = next_first;
    }

    uint64_t every_;
    uint64_t startCycle_ = 0;
    uint32_t prevWord_ = 0;
    IntervalSample current_;
    std::vector<IntervalSample> intervals_;
};

/**
 * A bounded flight recorder: the last K events of a run, dumped as
 * JSONL when the run ends Trapped or FaultDetected — exactly the
 * outcomes where "what were the final fetches?" matters. Dumps go to
 * an explicit sink stream when set (tests), else appended to path()
 * when non-empty; the ring is cleared after every run so a
 * retry-with-reload loop records each attempt separately.
 */
class TraceObserver final : public SimObserver
{
  public:
    /** @param capacity ring depth in events (>= 1). */
    explicit TraceObserver(size_t capacity)
        : capacity_(capacity ? capacity : 1)
    {
        ring_.reserve(capacity_);
    }

    /** Dump destination for tests; takes precedence over the path. */
    void setSink(std::ostream *sink) { sink_ = sink; }

    /** JSONL file appended to on qualifying run ends. */
    void setPath(std::string path) { path_ = std::move(path); }
    const std::string &path() const { return path_; }

    size_t size() const { return ring_.size(); }
    size_t capacity() const { return capacity_; }

    void
    onFetch(const FetchEvent &e) override
    {
        push({Entry::Type::Fetch, e.index, 0, e.addr, e.encoding,
              static_cast<uint32_t>((e.newWord ? 1u : 0u) |
                                    (e.cache.hit ? 2u : 0u))});
    }

    void
    onIssue(const IssueEvent &e) override
    {
        push({Entry::Type::Issue, e.index, e.cycle, 0, e.slot,
              static_cast<uint32_t>(e.reason)});
    }

    void
    onCommit(const CommitEvent &e) override
    {
        push({Entry::Type::Commit, e.index, e.cycle, 0,
              static_cast<uint32_t>((e.info->executed ? 1u : 0u) |
                                    (e.info->branchTaken ? 2u : 0u)),
              0});
    }

    void
    onDataAccess(const DataAccessEvent &e) override
    {
        push({Entry::Type::DataAccess, e.index, 0, e.addr,
              e.write ? 1u : 0u, e.cache.hit ? 1u : 0u});
    }

    void
    onFault(const FaultEvent &e) override
    {
        push({Entry::Type::Fault, e.instr, 0, e.addr,
              static_cast<uint32_t>(e.target),
              static_cast<uint32_t>(e.kind)});
    }

    void onRunEnd(RunResult &result) override;

    /**
     * Write the ring, oldest first, as JSON lines. A leading
     * {"event":"run",...} header line identifies the run when
     * @p result is given.
     */
    void dump(std::ostream &os, const RunResult *result = nullptr) const;

    void
    clear()
    {
        ring_.clear();
        next_ = 0;
    }

  private:
    struct Entry
    {
        enum class Type : uint8_t
        {
            Fetch,
            Issue,
            Commit,
            DataAccess,
            Fault
        };

        Type type;
        uint64_t index; //!< instruction index (Fault: dynamic count)
        uint64_t cycle;
        uint32_t addr;
        uint32_t a; //!< type-specific payload
        uint32_t b; //!< type-specific payload
    };

    void
    push(const Entry &e)
    {
        if (ring_.size() < capacity_) {
            ring_.push_back(e);
        } else {
            ring_[next_] = e;
            next_ = (next_ + 1) % capacity_;
        }
    }

    void writeEntry(std::ostream &os, const Entry &e) const;

    size_t capacity_;
    size_t next_ = 0; //!< oldest entry once the ring wrapped
    std::vector<Entry> ring_;
    std::ostream *sink_ = nullptr;
    std::string path_;
};

// --- experiment-harness configuration ------------------------------------

/**
 * Which instruments the experiment engine attaches to its simulations.
 * Part of the SimCache memo key: runs with different instrumentation
 * are cached separately, because the instruments' side products
 * (interval series, trace files) exist only when the run actually
 * executed with them attached.
 */
struct ObserverSpec
{
    /** Interval length for IntervalStatsObserver; 0 disables it. */
    uint64_t intervalInstructions = 0;

    /** TraceObserver ring depth; 0 disables tracing. */
    size_t traceDepth = 0;

    /** Arm the trace dump on Trapped/FaultDetected outcomes. */
    bool traceOnTrap = false;

    /** Directory JSONL trace dumps are written into ("" = cwd). */
    std::string traceDir;

    bool traceArmed() const { return traceOnTrap && traceDepth != 0; }

    bool
    any() const
    {
        return intervalInstructions != 0 || traceArmed();
    }
};

} // namespace pfits

#endif // POWERFITS_SIM_PROBE_HH
