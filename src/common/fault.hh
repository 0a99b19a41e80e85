/**
 * @file
 * Deterministic soft-error (transient bit-flip) injection.
 *
 * The paper's argument is about bits: a FITS stream carries the program
 * in roughly half the I-cache bit-cells of the ARM stream, which also
 * halves the cross-section a particle strike can corrupt. A FaultPlan
 * makes that measurable: it schedules transient single-bit upsets, by
 * dynamic instruction count, into three targets —
 *
 *  - I-cache line data (tags-only model: a resident line is marked
 *    corrupt; consumption is detected by per-line parity when enabled,
 *    or escapes to the core when not),
 *  - main-memory words (a real bit flip in the data image; escapes
 *    surface as wrong golden checksums or architectural traps),
 *  - decoder-configuration text (a bit flip in the saved FitsIsa,
 *    caught — or not — by the serialize-layer checksum).
 *
 * Everything derives from one seed through the suite's Rng, so a sweep
 * is bit-for-bit reproducible: same seed, same faults, same outcomes.
 */

#ifndef POWERFITS_COMMON_FAULT_HH
#define POWERFITS_COMMON_FAULT_HH

#include <cstdint>
#include <string>

#include "common/fields.hh"
#include "common/rng.hh"

namespace pfits
{

/** What a scheduled upset strikes. */
enum class FaultTarget : uint8_t
{
    ICACHE, //!< a resident I-cache line's data bits
    MEMORY, //!< a word of the data memory image
    CONFIG, //!< the serialized decoder configuration
    NUM,
};

/** @return "icache"/"memory"/"config". */
const char *faultTargetName(FaultTarget target);

/** Injection schedule parameters; an interval of 0 disables a target. */
struct FaultParams
{
    uint64_t seed = 0x5eedfa017ull;

    /**
     * Mean dynamic instructions between upsets per run-time target.
     * Actual gaps are uniform in [1, 2*interval], so the mean is met
     * without a fixed period aliasing against loop bodies.
     */
    uint64_t icacheMeanInterval = 0;
    uint64_t memoryMeanInterval = 0;

    /** @return true when any run-time target is armed. */
    bool
    enabled() const
    {
        return icacheMeanInterval != 0 || memoryMeanInterval != 0;
    }

    /**
     * The field list (common/fields.hh). A disabled plan hashes to 0
     * and an armed one appends the retry bound (hashFaultParams).
     */
    template <class V>
    static void
    fields(V &v)
    {
        v("seed", &FaultParams::seed, kKey | kHex);
        v("icache_mean_interval", &FaultParams::icacheMeanInterval, kKey);
        v("memory_mean_interval", &FaultParams::memoryMeanInterval, kKey);
    }
};

/**
 * A seeded schedule of bit flips plus the injection/detection/escape
 * bookkeeping for each target.
 *
 * The Machine polls due() once per retired instruction; the serialize
 * fuzzers and benches call corruptTextBit() directly. Counters persist
 * across runs so a retry-with-reload loop accumulates into one plan.
 */
class FaultPlan
{
  public:
    explicit FaultPlan(const FaultParams &params);

    /**
     * @return true when an upset of @p target is due at instruction
     * @p instr (and advance the schedule). At most one per call.
     */
    bool due(FaultTarget target, uint64_t instr);

    /** The plan's RNG, for victim selection by the injection sites. */
    Rng &rng() { return rng_; }

    // --- bookkeeping ----------------------------------------------------
    void recordInjected(FaultTarget target);
    void recordDetected(FaultTarget target);
    void recordEscaped(FaultTarget target);

    uint64_t injected(FaultTarget target) const;
    uint64_t detected(FaultTarget target) const;
    uint64_t escaped(FaultTarget target) const;

    /** Sum of injected() over all targets. */
    uint64_t totalInjected() const;

    /**
     * Flip one uniformly chosen bit of @p text in place (the CONFIG
     * target), recording the injection.
     * @return the flipped bit index, or -1 when @p text is empty.
     */
    int64_t corruptTextBit(std::string &text);

    const FaultParams &params() const { return params_; }

  private:
    uint64_t nextGap(uint64_t mean);

    FaultParams params_;
    Rng rng_;
    uint64_t nextAt_[static_cast<size_t>(FaultTarget::NUM)];
    uint64_t injected_[static_cast<size_t>(FaultTarget::NUM)] = {};
    uint64_t detected_[static_cast<size_t>(FaultTarget::NUM)] = {};
    uint64_t escaped_[static_cast<size_t>(FaultTarget::NUM)] = {};
};

} // namespace pfits

#endif // POWERFITS_COMMON_FAULT_HH
