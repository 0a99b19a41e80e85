#include "cache/cache.hh"

#include <bit>

#include "common/bitops.hh"
#include "common/logging.hh"

namespace pfits
{

const char *
replPolicyName(ReplPolicy policy)
{
    switch (policy) {
      case ReplPolicy::LRU: return "lru";
      case ReplPolicy::FIFO: return "fifo";
      case ReplPolicy::RANDOM: return "random";
      case ReplPolicy::ROUND_ROBIN: return "round-robin";
      default: panic("bad replacement policy");
    }
}

std::string
CacheConfig::validateError() const
{
    // Zero checks come first: numLines()/numSets() divide by these, so
    // a zero must be rejected before any geometry query runs.
    if (sizeBytes == 0 || lineBytes == 0 || assoc == 0)
        return detail::format(
            "cache '%s': size, line size and associativity must be "
            "non-zero", name.c_str());
    if (!isPow2(sizeBytes) || !isPow2(lineBytes) || !isPow2(assoc))
        return detail::format(
            "cache '%s': size, line size and associativity must be "
            "powers of two", name.c_str());
    if (lineBytes < 4)
        return detail::format("cache '%s': line size below 4 bytes",
                              name.c_str());
    // The way-hint table packs a way index into 16 bits (see
    // Cache::accessFast); the constructor relies on this bound, so the
    // validator must enforce it rather than let an L2-scale geometry
    // construct an array the fast path cannot address.
    if (assoc > kMaxAssoc)
        return detail::format(
            "cache '%s': associativity %u above the supported maximum "
            "%u", name.c_str(), assoc, kMaxAssoc);
    // 64-bit product: lineBytes * assoc can reach 2^32 for large
    // geometries, and a wrapped product used to slip through here and
    // hand the constructor a zero-set array (UB on first access).
    if (static_cast<uint64_t>(sizeBytes) <
        static_cast<uint64_t>(lineBytes) * assoc)
        return detail::format(
            "cache '%s': size %u too small for %u ways of %u-byte "
            "lines", name.c_str(), sizeBytes, assoc, lineBytes);
    return "";
}

void
CacheConfig::validate() const
{
    std::string err = validateError();
    if (!err.empty())
        fatal("%s", err.c_str());
}

Cache::Cache(const CacheConfig &config)
    : config_(config), rng_(0xcac4e5eedull)
{
    config_.validate();
    lines_.assign(static_cast<size_t>(config_.numSets()) * config_.assoc,
                  Line{});
    nextWay_.assign(config_.numSets(), 0);
    // validate() guarantees lineBytes and numSets are powers of two, so
    // every address split below is a shift and a mask.
    lineShift_ = static_cast<unsigned>(std::countr_zero(config_.lineBytes));
    setShift_ = static_cast<unsigned>(std::countr_zero(config_.numSets()));
    setMask_ = config_.numSets() - 1;
    hintSlots_.assign(static_cast<size_t>(config_.numSets()) * kHintWays,
                      ~0ull);
}

uint32_t
Cache::setIndex(uint32_t addr) const
{
    return (addr >> lineShift_) & setMask_;
}

uint32_t
Cache::tagOf(uint32_t addr) const
{
    return addr >> lineShift_ >> setShift_;
}

uint32_t
Cache::victimWay(uint32_t set)
{
    const uint32_t base = set * config_.assoc;

    // Prefer an invalid way.
    for (uint32_t way = 0; way < config_.assoc; ++way)
        if (!lines_[base + way].valid)
            return way;

    switch (config_.policy) {
      case ReplPolicy::LRU:
      case ReplPolicy::FIFO: {
        uint32_t victim = 0;
        uint64_t oldest = lines_[base].stamp;
        for (uint32_t way = 1; way < config_.assoc; ++way) {
            if (lines_[base + way].stamp < oldest) {
                oldest = lines_[base + way].stamp;
                victim = way;
            }
        }
        return victim;
      }
      case ReplPolicy::RANDOM:
        return rng_.below(config_.assoc);
      case ReplPolicy::ROUND_ROBIN: {
        uint32_t way = nextWay_[set];
        nextWay_[set] = (way + 1) % config_.assoc;
        return way;
      }
      default:
        panic("bad replacement policy");
    }
}

CacheAccessResult
Cache::access(uint32_t addr, bool write)
{
    ++tick_;
    if (write)
        ++stats_.writes;
    else
        ++stats_.reads;

    const uint32_t set = setIndex(addr);
    const uint32_t tag = tagOf(addr);
    const uint32_t base = set * config_.assoc;

    for (uint32_t way = 0; way < config_.assoc; ++way) {
        Line &line = lines_[base + way];
        if (line.valid && line.tag == tag) {
            if (line.corrupt) {
                lastLineAddr_ = kNoLine;
                if (config_.parity) {
                    // Parity catches the flip on consumption: invalidate
                    // the line and fall through to the miss (refetch)
                    // path, flagging the event for the machine-check.
                    ++stats_.parityDetections;
                    line = Line{};
                    CacheAccessResult refetch = handleMiss(addr, write);
                    refetch.parityError = true;
                    return refetch;
                }
                // No checker: the corrupted data flows to the core.
                ++stats_.corruptDeliveries;
                line.corrupt = false;
                CacheAccessResult res{true, false, 0, false, false};
                res.corruptDelivered = true;
                if (config_.policy == ReplPolicy::LRU)
                    line.stamp = tick_;
                if (write && config_.writeBack) {
                    res.writeUpgrade = !line.dirty;
                    line.dirty = true;
                }
                return res;
            }
            if (config_.policy == ReplPolicy::LRU)
                line.stamp = tick_;
            CacheAccessResult res{true, false, 0, false, false};
            if (write) {
                if (config_.writeBack) {
                    res.writeUpgrade = !line.dirty;
                    line.dirty = true;
                }
                // Write-through caches propagate immediately; the power
                // model charges the bus write from the access counters.
            }
            if (lastLineAddr_ == (addr >> lineShift_))
                ++stats_.wayMemoHits;
            lastLineAddr_ = addr >> lineShift_;
            lastHitIdx_ = base + way;
            return res;
        }
    }
    return handleMiss(addr, write);
}

CacheAccessResult
Cache::handleMiss(uint32_t addr, bool write)
{
    const uint32_t set = setIndex(addr);
    const uint32_t tag = tagOf(addr);
    const uint32_t base = set * config_.assoc;

    // Miss: allocate (loads always; stores only when write-allocate).
    CacheAccessResult result;
    result.hit = false;
    if (write)
        ++stats_.writeMisses;
    else
        ++stats_.readMisses;

    if (write && !config_.writeBack) {
        lastLineAddr_ = kNoLine;
        return result; // write-around: no allocation
    }

    uint32_t way = victimWay(set);
    Line &line = lines_[base + way];
    if (line.valid) {
        result.evicted = true;
        result.evictedAddr = ((line.tag << setShift_) | set)
                             << lineShift_;
        if (line.dirty) {
            result.writeback = true;
            result.victimAddr = result.evictedAddr;
            ++stats_.writebacks;
        }
    }
    line.valid = true;
    line.dirty = write && config_.writeBack;
    line.corrupt = false;
    line.tag = tag;
    line.stamp = tick_;
    // The refilled line is resident and clean: repeat accesses may take
    // the applyRepeatsAt() fast path until something disturbs the array.
    lastLineAddr_ = addr >> lineShift_;
    lastHitIdx_ = base + way;
    return result;
}

bool
Cache::injectBitFlip(Rng &rng)
{
    uint32_t valid = residentLines();
    if (valid == 0)
        return false;
    uint32_t pick = rng.below(valid);
    for (Line &line : lines_) {
        if (!line.valid)
            continue;
        if (pick == 0) {
            line.corrupt = true;
            ++stats_.faultsInjected;
            // The struck line may be the repeat-hint one; the next
            // access must take the full path so parity can see it.
            lastLineAddr_ = kNoLine;
            return true;
        }
        --pick;
    }
    return false; // unreachable
}

uint32_t
Cache::residentLines() const
{
    uint32_t valid = 0;
    for (const Line &line : lines_)
        valid += line.valid ? 1 : 0;
    return valid;
}

Cache::LineProbe
Cache::invalidateLine(uint32_t addr)
{
    const uint32_t set = setIndex(addr);
    const uint32_t tag = tagOf(addr);
    const uint32_t base = set * config_.assoc;
    for (uint32_t way = 0; way < config_.assoc; ++way) {
        Line &line = lines_[base + way];
        if (line.valid && line.tag == tag) {
            LineProbe probe{true, line.dirty};
            line = Line{};
            // The repeat hint must not outlive the line it vouches
            // for: a batched repeat after this would dirty a dead slot.
            if (lastLineAddr_ == (addr >> lineShift_))
                lastLineAddr_ = kNoLine;
            return probe;
        }
    }
    return LineProbe{};
}

Cache::LineProbe
Cache::cleanLine(uint32_t addr)
{
    const uint32_t set = setIndex(addr);
    const uint32_t tag = tagOf(addr);
    const uint32_t base = set * config_.assoc;
    for (uint32_t way = 0; way < config_.assoc; ++way) {
        Line &line = lines_[base + way];
        if (line.valid && line.tag == tag) {
            LineProbe probe{true, line.dirty};
            line.dirty = false;
            return probe;
        }
    }
    return LineProbe{};
}

bool
Cache::markLineDirty(uint32_t addr)
{
    if (!config_.writeBack)
        return false;
    const uint32_t set = setIndex(addr);
    const uint32_t tag = tagOf(addr);
    const uint32_t base = set * config_.assoc;
    for (uint32_t way = 0; way < config_.assoc; ++way) {
        Line &line = lines_[base + way];
        if (line.valid && line.tag == tag) {
            line.dirty = true;
            return true;
        }
    }
    return false;
}

void
Cache::forEachValidLine(
    const std::function<void(uint32_t, bool)> &fn) const
{
    for (uint32_t set = 0; set <= setMask_; ++set) {
        const uint32_t base = set * config_.assoc;
        for (uint32_t way = 0; way < config_.assoc; ++way) {
            const Line &line = lines_[base + way];
            if (line.valid)
                fn(((line.tag << setShift_) | set) << lineShift_,
                   line.dirty);
        }
    }
}

bool
Cache::contains(uint32_t addr) const
{
    const uint32_t set = setIndex(addr);
    const uint32_t tag = tagOf(addr);
    const uint32_t base = set * config_.assoc;
    for (uint32_t way = 0; way < config_.assoc; ++way) {
        const Line &line = lines_[base + way];
        if (line.valid && line.tag == tag)
            return true;
    }
    return false;
}

void
Cache::flush()
{
    for (Line &line : lines_)
        line = Line{};
    for (uint32_t &way : nextWay_)
        way = 0;
    lastLineAddr_ = kNoLine;
}

} // namespace pfits
