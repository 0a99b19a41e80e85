/**
 * @file
 * A generic set-associative cache model.
 *
 * Tags only — data never lives here; the functional simulator reads a
 * flat memory and this model decides hit/miss, evictions and writebacks.
 * The SA-1100's 32-way CAM-organized caches are modelled as conventional
 * high-associativity SRAM arrays (DESIGN.md §7); associativity, line size
 * and replacement policy are all parameters so the ablation benches can
 * sweep them.
 */

#ifndef POWERFITS_CACHE_CACHE_HH
#define POWERFITS_CACHE_CACHE_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/fields.hh"
#include "common/rng.hh"
#include "common/stats.hh"

namespace pfits
{

/** Replacement policies supported by the model. */
enum class ReplPolicy : uint8_t { LRU, FIFO, RANDOM, ROUND_ROBIN };

/** @return the textual name of a replacement policy. */
const char *replPolicyName(ReplPolicy policy);

template <>
struct FieldEnum<ReplPolicy>
{
    static constexpr unsigned kCount = 4;
    static const char *name(ReplPolicy p) { return replPolicyName(p); }
};

/** Static configuration of one cache. */
struct CacheConfig
{
    std::string name = "cache";
    uint32_t sizeBytes = 16 * 1024;
    uint32_t assoc = 32;
    uint32_t lineBytes = 32;
    ReplPolicy policy = ReplPolicy::LRU;
    bool writeBack = true; //!< write-back/write-allocate when true

    /**
     * One parity bit per line: a corrupt line is caught at its next
     * access (and refetched) instead of feeding the core. Costs one
     * extra storage column per way in the power model.
     */
    bool parity = false;

    /**
     * Largest supported associativity: way indices must fit the 16-bit
     * field of the way-hint slots (Cache::accessFast packs
     * tag << 16 | way), so the validator and the constructor agree on
     * the same bound instead of the constructor discovering it later.
     */
    static constexpr uint32_t kMaxAssoc = 1u << 16;

    uint32_t numLines() const { return sizeBytes / lineBytes; }
    uint32_t numSets() const { return numLines() / assoc; }

    /**
     * @return a descriptive error when the geometry is inconsistent
     * (non-power-of-two sizes, line below 4 bytes, fewer bytes than
     * one set of ways), or "" when it is valid. Sweeps use this to
     * skip impossible design points instead of aborting.
     */
    std::string validateError() const;

    /** fatal() unless validateError() returns "". */
    void validate() const;

    /**
     * The field list (common/fields.hh). The adjacent bools write_back
     * and parity hash as one word, write_back | parity << 1.
     */
    template <class V>
    static void
    fields(V &v)
    {
        v("name", &CacheConfig::name, kKey);
        v("size_bytes", &CacheConfig::sizeBytes, kKey);
        v("assoc", &CacheConfig::assoc, kKey);
        v("line_bytes", &CacheConfig::lineBytes, kKey);
        v("policy", &CacheConfig::policy, kKey);
        v("write_back", &CacheConfig::writeBack, kKey);
        v("parity", &CacheConfig::parity, kKey);
    }
};

/** Outcome of one cache access, consumed by timing and power models. */
struct CacheAccessResult
{
    bool hit = false;
    bool writeback = false;    //!< a dirty victim was evicted
    uint32_t victimAddr = 0;   //!< line address of the victim (if any)
    bool parityError = false;  //!< corrupt line caught by parity check
    bool corruptDelivered = false; //!< corrupt data consumed unchecked

    // Fields below are appended so the pre-existing five-initializer
    // aggregate expressions keep meaning exactly what they meant.

    /**
     * A valid line (clean or dirty) was replaced by this fill.
     * victimAddr is only set for *dirty* victims; evictedAddr names the
     * victim either way — an inclusive outer level uses it to recall
     * inner copies of the departing line.
     */
    bool evicted = false;
    uint32_t evictedAddr = 0; //!< byte base address of the evicted line

    /**
     * Write hit that turned a clean write-back line dirty. In a
     * coherent hierarchy this is the S->M transition point: the line
     * was readable before, and this access claims write ownership, so
     * the directory must invalidate remote copies (coherence.hh).
     */
    bool writeUpgrade = false;
};

/** Aggregate activity counters for one cache. */
struct CacheStats
{
    uint64_t reads = 0;
    uint64_t writes = 0;
    uint64_t readMisses = 0;
    uint64_t writeMisses = 0;
    uint64_t writebacks = 0;
    uint64_t faultsInjected = 0;    //!< soft errors landed in a line
    uint64_t parityDetections = 0;  //!< corrupt lines caught by parity
    uint64_t corruptDeliveries = 0; //!< corrupt lines consumed silently

    /**
     * Accesses that landed in the line the previous access left
     * resident and clean (the repeat-hint line): intra-line sequential
     * fetches a way-memoizing array serves with one data way and no
     * tag search (Ishihara & Fallah; TechParams::wayMemo). Counted
     * unconditionally — the power model decides whether to price them.
     * Always <= accesses(); a miss never memoizes, but its refill arms
     * the hint, so the next same-line fetch does.
     */
    uint64_t wayMemoHits = 0;

    /** The field list (common/fields.hh). */
    template <class V>
    static void
    fields(V &v)
    {
        v("reads", &CacheStats::reads);
        v("writes", &CacheStats::writes);
        v("read_misses", &CacheStats::readMisses);
        v("write_misses", &CacheStats::writeMisses);
        v("writebacks", &CacheStats::writebacks);
        v("faults_injected", &CacheStats::faultsInjected);
        v("parity_detections", &CacheStats::parityDetections);
        v("corrupt_deliveries", &CacheStats::corruptDeliveries);
        v("way_memo_hits", &CacheStats::wayMemoHits, kLate);
    }

    uint64_t accesses() const { return reads + writes; }
    uint64_t misses() const { return readMisses + writeMisses; }

    double
    missRate() const
    {
        uint64_t a = accesses();
        return a ? static_cast<double>(misses()) / a : 0.0;
    }

    /** Paper metric: misses per one million cache accesses. */
    double
    missesPerMillion() const
    {
        return missRate() * 1e6;
    }
};

/** The cache model proper. */
class Cache
{
  public:
    explicit Cache(const CacheConfig &config);

    /** Simulate one access; updates tags, counters and replacement. */
    CacheAccessResult access(uint32_t addr, bool write);

    /**
     * Same-line repeat fast path (used by the engine, sim/fastsim.cc).
     *
     * lastLineAddr() identifies the line the most recent access left
     * resident and clean (addr / lineBytes), or kNoLine after a
     * write-around miss, a parity or corrupt-delivery outcome, an
     * injectBitFlip() or a flush(). While it matches the line of the
     * next access — and nothing can touch the array in between — that
     * access is guaranteed to be another clean hit: applyRepeatsAt()
     * can stand for it (and for any number of such repeats) without
     * the tag scan.
     */
    static constexpr uint64_t kNoLine = ~0ull;

    uint64_t lastLineAddr() const { return lastLineAddr_; }

    /** lines_ index behind lastLineAddr(); meaningful only while
     * lastLineAddr() != kNoLine. Callers batching repeat hits stash it
     * for applyRepeatsAt(). */
    size_t lastHitIdx() const { return lastHitIdx_; }

    /**
     * Re-point the repeat hint at @p lineAddr, resident at lines_
     * index @p idx (a lastHitIdx() the caller captured while that line
     * was the hint). For a caller that batched repeat hits of the line
     * and now resumes full accesses: the hint becomes what a
     * per-access run would have left, so way-memo counting agrees.
     */
    void
    restoreHint(uint64_t lineAddr, size_t idx)
    {
        lastLineAddr_ = lineAddr;
        lastHitIdx_ = idx;
    }

    /**
     * Apply @p reads + @p writes repeat hits of the line at lines_
     * index @p idx (a lastHitIdx() the caller captured while that line
     * was the hint) in one step, @p memoHits of them way-memo hits.
     * The final cache state is identical to that many sequential
     * access() hits — the tick advances by the access count, the
     * counters absorb the split, the LRU stamp lands on the last tick,
     * and any write dirties a write-back line; the intermediate stamps
     * are unobservable. Sound whenever nothing else touched the cache
     * between the captured hit and this call — the line is then still
     * resident and clean, exactly as the repeat-hint contract above
     * requires. The engine batches two interleaved line streaks this
     * way: flushing them in last-touch order reproduces the relative
     * LRU stamp order a per-access run would leave (absolute stamp
     * values differ but only their in-set ordering is observable,
     * through victim choice). A touch that re-enters streak A after B
     * is a repeat hit of A's line but not a memo hit, hence the
     * explicit count; @p memoHits <= reads + writes.
     */
    void
    applyRepeatsAt(size_t idx, uint32_t reads, uint32_t writes,
                   uint32_t memoHits)
    {
        tick_ += reads + writes;
        stats_.reads += reads;
        stats_.writes += writes;
        stats_.wayMemoHits += memoHits;
        Line &line = lines_[idx];
        if (config_.policy == ReplPolicy::LRU)
            line.stamp = tick_;
        if (writes != 0 && config_.writeBack)
            line.dirty = true;
    }

    /** applyRepeatsAt for a run of repeats that followed their own
     * line throughout: every one is a way-memo hit. */
    void
    applyRepeatsAt(size_t idx, uint32_t reads, uint32_t writes)
    {
        applyRepeatsAt(idx, reads, writes, reads + writes);
    }

    /**
     * access() with an O(1) clean-hit path (used by the engine).
     *
     * A per-set way-hint table — a direct-mapped cache of the cache —
     * remembers which way a tag was last found in. A hinted hit is
     * validated against the authoritative line (valid, tag match, not
     * corrupt) before the usual hit updates are applied, so stale
     * entries are harmless: any eviction, flush or injected fault
     * makes the validation fail and the access falls back to the full
     * access() scan, which then refreshes the hint. State updates and
     * the returned result are bit-identical to access(); only the tag
     * scan is skipped. The interpreter oracle keeps calling
     * access() so both share one source of truth for misses,
     * replacement and faults.
     */
    CacheAccessResult
    accessFast(uint32_t addr, bool write)
    {
        const uint32_t la = addr >> lineShift_;
        const uint32_t set = la & setMask_;
        const uint32_t tag = la >> setShift_;
        uint64_t &slot =
            hintSlots_[set * kHintWays + (tag & (kHintWays - 1))];
        if (static_cast<uint32_t>(slot >> 16) == tag) {
            const size_t idx = static_cast<size_t>(set) * config_.assoc +
                               (slot & 0xffffu);
            Line &line = lines_[idx];
            if (line.valid && line.tag == tag && !line.corrupt) {
                ++tick_;
                CacheAccessResult res{true, false, 0, false, false};
                if (write) {
                    ++stats_.writes;
                    if (config_.writeBack) {
                        res.writeUpgrade = !line.dirty;
                        line.dirty = true;
                    }
                } else {
                    ++stats_.reads;
                }
                if (config_.policy == ReplPolicy::LRU)
                    line.stamp = tick_;
                if (lastLineAddr_ == la)
                    ++stats_.wayMemoHits;
                lastLineAddr_ = la;
                lastHitIdx_ = idx;
                return res;
            }
        }
        CacheAccessResult result = access(addr, write);
        if (lastLineAddr_ == la)
            slot = (static_cast<uint64_t>(tag) << 16) |
                   static_cast<uint64_t>(
                       lastHitIdx_ -
                       static_cast<size_t>(set) * config_.assoc);
        return result;
    }

    /** Probe without updating any state. */
    bool contains(uint32_t addr) const;

    /** Outcome of a coherence line operation (probe-and-act). */
    struct LineProbe
    {
        bool present = false; //!< a valid line for the address existed
        bool dirty = false;   //!< ... and it carried unwritten data
    };

    /**
     * Coherence ops, used when this cache sits under a directory
     * (cache/coherence.hh). None of them counts as an access: the
     * stats and replacement state describe what the local core did,
     * while these model the *protocol* acting on the array.
     */

    /**
     * Drop the line holding @p addr, if any. The repeat hint is
     * cleared when it pointed at the dropped line, so a stale
     * batched repeat can never resurrect it.
     * @return whether a line existed and whether it was dirty (the
     * caller owns the recalled data's fate).
     */
    LineProbe invalidateLine(uint32_t addr);

    /** Clear the dirty bit of the line holding @p addr (M -> S
     * downgrade), leaving it resident. */
    LineProbe cleanLine(uint32_t addr);

    /**
     * Force the line holding @p addr dirty (write-back caches only) —
     * an inclusive L2 uses this when recalled dirty data merges into a
     * resident line without a core-side write access.
     * @return false when no line holds the address.
     */
    bool markLineDirty(uint32_t addr);

    /** Visit every valid line as (lineBaseAddr, dirty). */
    void forEachValidLine(
        const std::function<void(uint32_t, bool)> &fn) const;

    /**
     * Soft error: mark one uniformly chosen resident line corrupt
     * (victim picked with @p rng for deterministic replay).
     * @return true when a valid line existed to strike.
     */
    bool injectBitFlip(Rng &rng);

    /** @return number of currently valid lines. */
    uint32_t residentLines() const;

    /** Invalidate everything (counters are kept). */
    void flush();

    const CacheConfig &config() const { return config_; }
    const CacheStats &stats() const { return stats_; }
    void resetStats() { stats_ = CacheStats{}; }

    /** Register the cache's counters into @p group. */
    void addStats(StatGroup &group) const;

  private:
    struct Line
    {
        bool valid = false;
        bool dirty = false;
        bool corrupt = false; //!< carries an undelivered soft error
        uint32_t tag = 0;
        uint64_t stamp = 0; //!< LRU: last use; FIFO: fill time
    };

    uint32_t setIndex(uint32_t addr) const;
    uint32_t tagOf(uint32_t addr) const;
    uint32_t victimWay(uint32_t set);
    CacheAccessResult handleMiss(uint32_t addr, bool write);

    CacheConfig config_;
    std::vector<Line> lines_;          //!< sets * assoc, row-major
    std::vector<uint32_t> nextWay_;    //!< round-robin pointer per set
    uint64_t tick_ = 0;
    Rng rng_;
    CacheStats stats_;
    uint64_t lastLineAddr_ = kNoLine;  //!< repeat-hint line (see above)
    size_t lastHitIdx_ = 0;            //!< lines_ index behind the hint

    /**
     * Way-hint table for accessFast(): kHintWays slots per set, each
     * packing (tag << 16 | way), keyed by the tag's low bits. Entries
     * are advisory — never invalidated, always validated against
     * lines_ before use. ~0 is an unmatchable sentinel (tags fit in
     * 30 bits: line addresses are at most 30 bits wide).
     */
    static constexpr uint32_t kHintWays = 16;
    std::vector<uint64_t> hintSlots_;
    unsigned lineShift_ = 0; //!< log2(lineBytes), for accessFast()
    unsigned setShift_ = 0;  //!< log2(numSets)
    uint32_t setMask_ = 0;   //!< numSets - 1
};

} // namespace pfits

#endif // POWERFITS_CACHE_CACHE_HH
