/** @file Unit and property tests for the set-associative cache model. */

#include <gtest/gtest.h>

#include "cache/cache.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "power/cache_power.hh"

namespace pfits
{
namespace
{

CacheConfig
smallCache(ReplPolicy policy = ReplPolicy::LRU)
{
    CacheConfig cfg;
    cfg.name = "test";
    cfg.sizeBytes = 256;
    cfg.assoc = 2;
    cfg.lineBytes = 16;
    cfg.policy = policy;
    return cfg;
}

TEST(CacheConfig, GeometryAndValidation)
{
    CacheConfig cfg = smallCache();
    EXPECT_EQ(cfg.numLines(), 16u);
    EXPECT_EQ(cfg.numSets(), 8u);
    cfg.sizeBytes = 100;
    EXPECT_THROW(cfg.validate(), FatalError);
    cfg = smallCache();
    cfg.lineBytes = 2;
    EXPECT_THROW(cfg.validate(), FatalError);
    cfg = smallCache();
    cfg.assoc = 64; // bigger than line count
    EXPECT_THROW(cfg.validate(), FatalError);
}

TEST(CacheConfig, ValidateErrorDescribesWithoutAborting)
{
    // Sweeps probe design points with validateError(): "" when the
    // geometry is fine, a descriptive message (naming the cache and
    // the constraint) when it is not — and never an abort.
    CacheConfig cfg = smallCache();
    EXPECT_EQ(cfg.validateError(), "");

    cfg.sizeBytes = 0;
    EXPECT_NE(cfg.validateError().find("non-zero"), std::string::npos);

    cfg = smallCache();
    cfg.lineBytes = 48;
    EXPECT_NE(cfg.validateError().find("powers of two"),
              std::string::npos);

    cfg = smallCache();
    cfg.lineBytes = 2;
    EXPECT_NE(cfg.validateError().find("below 4 bytes"),
              std::string::npos);

    cfg = smallCache();
    cfg.assoc = 64;
    std::string err = cfg.validateError();
    EXPECT_NE(err.find("too small"), std::string::npos);
    EXPECT_NE(err.find(cfg.name), std::string::npos);
}

TEST(Cache, ColdMissThenHit)
{
    Cache cache(smallCache());
    EXPECT_FALSE(cache.access(0x1000, false).hit);
    EXPECT_TRUE(cache.access(0x1000, false).hit);
    EXPECT_TRUE(cache.access(0x100c, false).hit); // same line
    EXPECT_FALSE(cache.access(0x1010, false).hit); // next line
    EXPECT_EQ(cache.stats().reads, 4u);
    EXPECT_EQ(cache.stats().readMisses, 2u);
}

TEST(Cache, LruEvictsLeastRecentlyUsed)
{
    Cache cache(smallCache());
    // Three lines mapping to set 0: addresses differing in tag bits.
    uint32_t a = 0x0000, b = 0x0080, c = 0x0100;
    cache.access(a, false);
    cache.access(b, false);
    cache.access(a, false); // a most recent
    cache.access(c, false); // evicts b
    EXPECT_TRUE(cache.contains(a));
    EXPECT_FALSE(cache.contains(b));
    EXPECT_TRUE(cache.contains(c));
}

TEST(Cache, FifoIgnoresRecency)
{
    Cache cache(smallCache(ReplPolicy::FIFO));
    uint32_t a = 0x0000, b = 0x0080, c = 0x0100;
    cache.access(a, false);
    cache.access(b, false);
    cache.access(a, false); // does not refresh a under FIFO
    cache.access(c, false); // evicts a (oldest fill)
    EXPECT_FALSE(cache.contains(a));
    EXPECT_TRUE(cache.contains(b));
    EXPECT_TRUE(cache.contains(c));
}

TEST(Cache, WritebackTracksDirtyVictims)
{
    Cache cache(smallCache());
    cache.access(0x0000, true); // dirty
    cache.access(0x0080, false);
    CacheAccessResult res = cache.access(0x0100, false); // evicts dirty
    EXPECT_TRUE(res.writeback);
    EXPECT_EQ(res.victimAddr, 0x0000u);
    EXPECT_EQ(cache.stats().writebacks, 1u);
}

TEST(Cache, WriteThroughDoesNotAllocateOnWriteMiss)
{
    CacheConfig cfg = smallCache();
    cfg.writeBack = false;
    Cache cache(cfg);
    EXPECT_FALSE(cache.access(0x2000, true).hit);
    EXPECT_FALSE(cache.contains(0x2000));
    // Reads still allocate.
    cache.access(0x2000, false);
    EXPECT_TRUE(cache.contains(0x2000));
}

TEST(Cache, FlushInvalidatesEverything)
{
    Cache cache(smallCache());
    cache.access(0x0, false);
    cache.access(0x100, false);
    cache.flush();
    EXPECT_FALSE(cache.contains(0x0));
    EXPECT_FALSE(cache.contains(0x100));
}

TEST(Cache, StatsRegistration)
{
    Cache cache(smallCache());
    cache.access(0x0, false);
    cache.access(0x0, false);
    StatGroup group("c");
    cache.addStats(group);
    EXPECT_DOUBLE_EQ(group.lookup("reads"), 2.0);
    EXPECT_DOUBLE_EQ(group.lookup("misses"), 1.0);
    EXPECT_DOUBLE_EQ(group.lookup("miss_rate"), 0.5);
    EXPECT_DOUBLE_EQ(group.lookup("mpmi"), 500000.0);
}

/** Property: a fully-associative cache with LRU over a working set no
 *  larger than the cache never misses after the cold pass. */
TEST(Cache, LruFitsWorkingSetProperty)
{
    CacheConfig cfg;
    cfg.sizeBytes = 512;
    cfg.assoc = 16; // fully associative (32-byte lines, 16 lines)
    cfg.lineBytes = 32;
    Cache cache(cfg);
    for (int pass = 0; pass < 4; ++pass)
        for (uint32_t line = 0; line < 16; ++line)
            cache.access(0x4000 + line * 32, false);
    EXPECT_EQ(cache.stats().misses(), 16u);
}

/** Property: a bigger cache never has more misses than a smaller one
 *  with the same line size under LRU (inclusion property across sizes
 *  holds for fully-associative LRU). */
TEST(Cache, LruInclusionAcrossSizes)
{
    CacheConfig small;
    small.sizeBytes = 1024;
    small.assoc = 32;
    small.lineBytes = 32;
    CacheConfig big = small;
    big.sizeBytes = 2048;
    big.assoc = 64;

    Cache small_cache(small), big_cache(big);
    Rng rng(0x10c41ull);
    for (int i = 0; i < 50000; ++i) {
        uint32_t addr = (rng.below(128)) * 32; // 4 KiB footprint
        small_cache.access(addr, false);
        big_cache.access(addr, false);
    }
    EXPECT_LE(big_cache.stats().misses(),
              small_cache.stats().misses());
}

/** Property: miss count is invariant to request order permutations
 *  within a single-set round-robin stream of exactly `assoc` lines. */
TEST(Cache, RoundRobinSteadyState)
{
    CacheConfig cfg = smallCache(ReplPolicy::ROUND_ROBIN);
    Cache cache(cfg);
    // Exactly `assoc` lines in one set: steady state must not miss.
    for (int pass = 0; pass < 3; ++pass) {
        cache.access(0x0000, false);
        cache.access(0x0080, false);
    }
    EXPECT_EQ(cache.stats().misses(), 2u);
}

/** Random replacement must still bound misses by the compulsory+capacity
 *  behaviour: hits happen when the set has spare ways. */
TEST(Cache, RandomReplacementStillCaches)
{
    Cache cache(smallCache(ReplPolicy::RANDOM));
    for (int pass = 0; pass < 10; ++pass)
        cache.access(0x0, false);
    EXPECT_EQ(cache.stats().misses(), 1u);
}

TEST(Cache, PolicyNames)
{
    EXPECT_STREQ(replPolicyName(ReplPolicy::LRU), "lru");
    EXPECT_STREQ(replPolicyName(ReplPolicy::ROUND_ROBIN),
                 "round-robin");
}

TEST(CacheConfig, MisconfigurationIsFatalNotUB)
{
    // Every degenerate geometry must be rejected by validate() before
    // any division or table sizing can go wrong.
    CacheConfig cfg = smallCache();
    cfg.sizeBytes = 3000; // non-power-of-two size
    EXPECT_THROW(cfg.validate(), FatalError);

    cfg = smallCache();
    cfg.assoc = 0; // zero associativity would divide by zero
    EXPECT_THROW(cfg.validate(), FatalError);

    cfg = smallCache();
    cfg.sizeBytes = 0;
    EXPECT_THROW(cfg.validate(), FatalError);

    cfg = smallCache();
    cfg.lineBytes = 0;
    EXPECT_THROW(cfg.validate(), FatalError);

    cfg = smallCache();
    cfg.lineBytes = 2; // below the 4-byte minimum
    EXPECT_THROW(cfg.validate(), FatalError);

    cfg = smallCache();
    cfg.assoc = 3; // non-power-of-two associativity
    EXPECT_THROW(cfg.validate(), FatalError);

    // The Cache constructor itself must enforce the same contract.
    cfg = smallCache();
    cfg.assoc = 0;
    EXPECT_THROW(Cache{cfg}, FatalError);
}

TEST(Cache, InjectedFaultEscapesWithoutParity)
{
    Cache cache(smallCache());
    cache.access(0x1000, false);
    Rng rng(42);
    ASSERT_TRUE(cache.injectBitFlip(rng));
    EXPECT_EQ(cache.stats().faultsInjected, 1u);

    CacheAccessResult res = cache.access(0x1000, false);
    EXPECT_TRUE(res.hit);
    EXPECT_TRUE(res.corruptDelivered);
    EXPECT_FALSE(res.parityError);
    EXPECT_EQ(cache.stats().corruptDeliveries, 1u);

    // The corruption is consumed once; the line then reads clean.
    res = cache.access(0x1000, false);
    EXPECT_TRUE(res.hit);
    EXPECT_FALSE(res.corruptDelivered);
}

TEST(Cache, ParityDetectsInjectedFaultAndRefetches)
{
    CacheConfig cfg = smallCache();
    cfg.parity = true;
    Cache cache(cfg);
    cache.access(0x1000, false);
    Rng rng(42);
    ASSERT_TRUE(cache.injectBitFlip(rng));

    CacheAccessResult res = cache.access(0x1000, false);
    EXPECT_TRUE(res.parityError);
    EXPECT_FALSE(res.hit); // detected flips force a refetch (miss)
    EXPECT_FALSE(res.corruptDelivered);
    EXPECT_EQ(cache.stats().parityDetections, 1u);
    EXPECT_EQ(cache.stats().corruptDeliveries, 0u);

    // The refetched line is clean again.
    res = cache.access(0x1000, false);
    EXPECT_TRUE(res.hit);
    EXPECT_FALSE(res.parityError);
}

TEST(CacheConfig, AssociativityCapAndWideGeometryProduct)
{
    // The way-hint slots pack a way index into 16 bits, so the
    // validator rejects anything above kMaxAssoc instead of letting
    // the constructor build an array the fast path cannot address.
    CacheConfig cfg{"wide", 1u << 31, CacheConfig::kMaxAssoc * 2, 16,
                    ReplPolicy::LRU, true};
    std::string err = cfg.validateError();
    EXPECT_NE(err.find("associativity"), std::string::npos);
    EXPECT_THROW(cfg.validate(), FatalError);

    // lineBytes * assoc == 2^32 wraps a 32-bit product to zero, which
    // once slipped past the size check and handed the constructor a
    // zero-set geometry. The 64-bit comparison must reject it.
    CacheConfig wrap{"wrap", 1u << 31, CacheConfig::kMaxAssoc,
                     1u << 16, ReplPolicy::LRU, true};
    err = wrap.validateError();
    EXPECT_NE(err.find("too small"), std::string::npos);
    EXPECT_THROW(wrap.validate(), FatalError);

    // Legal L2-scale geometries still pass and agree with the
    // constructor about their shape.
    CacheConfig l2{"l2", 4 * 1024 * 1024, 16, 64, ReplPolicy::LRU,
                   true};
    EXPECT_EQ(l2.validateError(), "");
    EXPECT_EQ(l2.numLines(), 65536u);
    EXPECT_EQ(l2.numSets(), 4096u);
    Cache built(l2);
    EXPECT_EQ(built.residentLines(), 0u);

    // The boundary itself is legal: kMaxAssoc ways of small lines in
    // a size that holds them.
    CacheConfig edge{"edge", 1u << 20, CacheConfig::kMaxAssoc, 16,
                     ReplPolicy::LRU, true};
    EXPECT_EQ(edge.validateError(), "");
}

TEST(CacheConfig, PowerModelColumnsComputedIn64Bit)
{
    // Companion to the validateError widening above: the power model's
    // column count for the same wide-geometry family (assoc * lineBytes
    // * 8 == 2^32) used to wrap in uint32 arithmetic, zeroing the
    // wordline/sense and periphery-leakage terms.
    CacheConfig wide{"wide", 1u << 29, 1u << 12, 1u << 17,
                     ReplPolicy::LRU, true};
    EXPECT_EQ(wide.validateError(), "");
    CachePowerModel model(wide, TechParams{});
    EXPECT_EQ(model.cols(), 1ull << 32);
    EXPECT_GT(model.internalEnergyPerAccess(), 0.0);
    EXPECT_GT(model.peripheryLeakagePower(), 0.0);
}

TEST(Cache, WayMemoCountsSameLineRepeats)
{
    Cache cache(smallCache());
    // The cold miss arms the hint but is not itself a memo hit.
    cache.access(0x100, false);
    EXPECT_EQ(cache.stats().wayMemoHits, 0u);
    // Three more accesses in the same 16-byte line: all memo hits.
    cache.access(0x104, false);
    cache.access(0x108, true);
    cache.access(0x10c, false);
    EXPECT_EQ(cache.stats().wayMemoHits, 3u);
    // A different line breaks the run, and an A-B-A alternation never
    // memoizes: each access follows one to the other line.
    cache.access(0x200, false);
    cache.access(0x100, false);
    cache.access(0x200, false);
    EXPECT_EQ(cache.stats().wayMemoHits, 3u);
    EXPECT_LE(cache.stats().wayMemoHits, cache.stats().accesses());
}

TEST(Cache, WayMemoIdenticalAcrossAccessAndAccessFast)
{
    // The fast path's hinted hits must count memo hits exactly like
    // the full scan (the engine and the oracle are diffed on it).
    Cache full(smallCache());
    Cache fast(smallCache());
    const uint32_t addrs[] = {0x100, 0x104, 0x200, 0x204,
                              0x100, 0x108, 0x10c};
    for (uint32_t addr : addrs) {
        full.access(addr, false);
        fast.accessFast(addr, false);
    }
    EXPECT_EQ(full.stats().wayMemoHits, 4u);
    EXPECT_EQ(fast.stats().wayMemoHits, full.stats().wayMemoHits);
}

TEST(Cache, ApplyRepeatsMemoAccounting)
{
    Cache cache(smallCache());
    cache.access(0x100, false); // arm the hint
    size_t idx = cache.lastHitIdx();

    // Three-arg form: every batched repeat is a memo hit.
    cache.applyRepeatsAt(idx, 4, 1);
    EXPECT_EQ(cache.stats().wayMemoHits, 5u);
    EXPECT_EQ(cache.stats().reads, 5u);
    EXPECT_EQ(cache.stats().writes, 1u);

    // Four-arg form: an interleaved streak's re-entry touch follows an
    // access to the *other* line, so the caller excludes it.
    cache.applyRepeatsAt(idx, 3, 0, 2);
    EXPECT_EQ(cache.stats().wayMemoHits, 7u);
    EXPECT_LE(cache.stats().wayMemoHits, cache.stats().accesses());
}

TEST(Cache, WayMemoHintClearedByDisturbances)
{
    // An injected fault drops the hint: the next access in the same
    // line takes the full path and is not a memo hit.
    Cache cache(smallCache());
    cache.access(0x100, false);
    Rng rng(1);
    EXPECT_TRUE(cache.injectBitFlip(rng));
    cache.access(0x104, false); // corrupt delivery, hint stays down
    EXPECT_EQ(cache.stats().wayMemoHits, 0u);
    cache.access(0x108, false); // follows a kNoLine hint: no memo
    EXPECT_EQ(cache.stats().wayMemoHits, 0u);
    cache.access(0x10c, false); // hint re-armed: memoizes again
    EXPECT_EQ(cache.stats().wayMemoHits, 1u);

    // A write-around miss leaves nothing resident to memoize against.
    CacheConfig wt = smallCache();
    wt.writeBack = false;
    Cache around(wt);
    around.access(0x100, false);
    around.access(0x304, true); // write miss, no allocation
    around.access(0x100, false); // hint was kNoLine: no memo
    EXPECT_EQ(around.stats().wayMemoHits, 0u);
}

TEST(Cache, InjectIntoEmptyCacheDoesNothing)
{
    Cache cache(smallCache());
    Rng rng(7);
    EXPECT_FALSE(cache.injectBitFlip(rng));
    EXPECT_EQ(cache.stats().faultsInjected, 0u);
    EXPECT_EQ(cache.residentLines(), 0u);
    cache.access(0x0, false);
    EXPECT_EQ(cache.residentLines(), 1u);
}

} // namespace
} // namespace pfits
