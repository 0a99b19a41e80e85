/** @file The parallel experiment engine: thread-pool semantics,
 *  memoized simulation, and the headline guarantee — a sweep's table
 *  output is byte-identical at --jobs 1, --jobs 4 and --jobs
 *  hardware_concurrency, and an identical second sweep performs zero
 *  fresh simulations. */

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <sstream>
#include <stdexcept>

#include "exp/experiment.hh"
#include "exp/figures.hh"
#include "exp/parallel.hh"
#include "exp/simcache.hh"
#include "mibench/mibench.hh"

namespace pfits
{
namespace
{

// --- thread pool -----------------------------------------------------------

TEST(ThreadPool, RunsEveryJobExactlyOnce)
{
    for (unsigned jobs : {1u, 2u, 4u, 7u}) {
        ThreadPool pool(jobs);
        EXPECT_EQ(pool.jobs(), jobs);
        std::vector<std::atomic<int>> hits(257);
        pool.run(hits.size(),
                 [&](size_t i) { hits[i].fetch_add(1); });
        for (const auto &h : hits)
            EXPECT_EQ(h.load(), 1);
    }
}

TEST(ThreadPool, CollectsResultsByIndexNotCompletionOrder)
{
    ThreadPool pool(4);
    auto out = parallelMap<size_t>(pool, 100, [](size_t i) {
        // Stagger job durations so completion order scrambles.
        volatile size_t sink = 0;
        for (size_t k = 0; k < (i % 7) * 10000; ++k)
            sink = sink + k;
        return i * i;
    });
    for (size_t i = 0; i < out.size(); ++i)
        EXPECT_EQ(out[i], i * i);
}

TEST(ThreadPool, RethrowsLowestIndexException)
{
    ThreadPool pool(4);
    try {
        pool.run(64, [](size_t i) {
            if (i == 7 || i == 23)
                throw std::runtime_error("job " + std::to_string(i));
        });
        FAIL() << "expected an exception";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "job 7");
    }
    // The pool survives a failed batch.
    std::atomic<int> ran{0};
    pool.run(8, [&](size_t) { ran.fetch_add(1); });
    EXPECT_EQ(ran.load(), 8);
}

TEST(ThreadPool, RunCollectReportsEveryFailureAsStructuredData)
{
    ThreadPool pool(4);
    std::atomic<int> ran{0};
    auto failures = pool.runCollect(64, [&](size_t i) {
        ran.fetch_add(1);
        if (i == 3)
            throw std::runtime_error("boom 3");
        if (i == 41)
            throw 17; // non-std::exception payloads are captured too
    });

    // Every job ran despite the failures — no early abandonment.
    EXPECT_EQ(ran.load(), 64);

    ASSERT_EQ(failures.size(), 2u);
    // Sorted by job index, with the thrown message preserved.
    EXPECT_EQ(failures[0].index, 3u);
    EXPECT_EQ(failures[0].message, "boom 3");
    EXPECT_EQ(failures[1].index, 41u);
    EXPECT_EQ(failures[1].message, "unknown exception");

    // A clean batch reports nothing, and the pool is reusable.
    auto clean = pool.runCollect(8, [](size_t) {});
    EXPECT_TRUE(clean.empty());
}

TEST(ThreadPool, ReusableAcrossBatches)
{
    ThreadPool pool(3);
    uint64_t total = 0;
    for (int batch = 0; batch < 10; ++batch) {
        std::vector<uint64_t> vals(50);
        pool.run(vals.size(), [&](size_t i) { vals[i] = i + 1; });
        total += std::accumulate(vals.begin(), vals.end(), 0ull);
    }
    EXPECT_EQ(total, 10u * (50u * 51u / 2u));
}

TEST(ThreadPool, ParseJobsFlagForms)
{
    // The value parser behind every --jobs / -jN flag and PFITS_JOBS
    // (pfits_run, pfits_verify and pfitsd each reject what it refuses;
    // tests/CMakeLists.txt runs pfits_verify on a bad value).
    EXPECT_EQ(parseJobCount("6"), 6u);
    EXPECT_EQ(parseJobCount("12"), 12u);
    EXPECT_EQ(parseJobCount("256"), 256u);
    EXPECT_EQ(parseJobCount("0"), 0u);
    EXPECT_EQ(parseJobCount("0256"), 256u);
    // Not a job count: a value that would wrap an unsigned, a sign, a
    // count above kMaxJobs, a non-number, an empty value.
    for (const char *bad : {"4294967297", "-1", "+4", "257", "abc", ""})
        EXPECT_FALSE(parseJobCount(bad).has_value()) << bad;
    EXPECT_GE(defaultJobs(), 1u);
}

// --- memoization cache -----------------------------------------------------

TEST(SimCache, KeyCoversProgramConfigAndFaultSeed)
{
    SimCache &cache = SimCache::instance();
    cache.clear();

    mibench::Workload wl = mibench::buildCrc32();
    ArmFrontEnd fe(std::move(wl.program));
    CoreConfig core;
    SimRequest req;
    req.fe = &fe;
    req.core = &core;

    SimResult first = cache.simulate(req);
    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_EQ(cache.hits(), 0u);

    // Identical request: a hit, and the identical result.
    SimResult again = cache.simulate(req);
    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(again.run.cycles, first.run.cycles);
    EXPECT_EQ(again.run.instructions, first.run.instructions);

    // A timing-relevant config change is a different key.
    CoreConfig small = core;
    small.icache.sizeBytes = 8 * 1024;
    SimRequest small_req = req;
    small_req.core = &small;
    cache.simulate(small_req);
    EXPECT_EQ(cache.misses(), 2u);

    // Arming a fault plan (seed is part of the key) is a fresh key.
    SimRequest faulty = req;
    faulty.faults.icacheMeanInterval = 50'000;
    faulty.maxRetries = 3;
    cache.simulate(faulty);
    EXPECT_EQ(cache.misses(), 3u);
    cache.simulate(faulty);
    EXPECT_EQ(cache.misses(), 3u); // same seed: memoized

    faulty.faults.seed ^= 0xdecafull;
    cache.simulate(faulty);
    EXPECT_EQ(cache.misses(), 4u);

    EXPECT_EQ(cache.entries(), 4u);
    cache.clear();
    EXPECT_EQ(cache.entries(), 0u);
    EXPECT_EQ(cache.misses(), 0u);
}

TEST(SimCache, TryGetAndSeedRoundTrip)
{
    SimCache &cache = SimCache::instance();
    cache.clear();

    mibench::Workload wl = mibench::buildCrc32();
    ArmFrontEnd fe(std::move(wl.program));
    CoreConfig core;
    SimRequest req;
    req.fe = &fe;
    req.core = &core;
    const SimKey key = req.key();

    // Absent: tryGet must not compute, count, or block.
    EXPECT_FALSE(cache.tryGet(key).has_value());
    EXPECT_EQ(cache.misses(), 0u);

    SimResult real = cache.simulate(req);
    auto probed = cache.tryGet(key);
    ASSERT_TRUE(probed.has_value());
    EXPECT_EQ(probed->run.cycles, real.run.cycles);

    // Seeding an occupied key is a no-op…
    SimResult bogus;
    bogus.run.cycles = 1;
    EXPECT_FALSE(cache.seed(key, bogus));
    EXPECT_EQ(cache.tryGet(key)->run.cycles, real.run.cycles);

    // …and seeding a fresh key makes the result resident, exactly as
    // if it had been simulated here (the pfitsd-hit path).
    cache.clear();
    EXPECT_TRUE(cache.seed(key, real));
    EXPECT_EQ(cache.entries(), 1u);
    uint64_t misses = cache.misses();
    SimResult served = cache.simulate(req);
    EXPECT_EQ(cache.misses(), misses) << "seeded key must hit";
    EXPECT_EQ(served.run.cycles, real.run.cycles);
    cache.clear();
}

// --- the engine end to end -------------------------------------------------

/** One sweep's CSV fingerprint: two figure tables over the suite. */
std::string
sweepCsv(unsigned jobs)
{
    ExperimentParams params;
    params.jobs = jobs;
    Runner runner(params);
    std::ostringstream os;
    fig13MissRate(runner).printCsv(os);
    fig14Ipc(runner).printCsv(os);
    return os.str();
}

TEST(ParallelExp, SweepOutputByteIdenticalAcrossJobCounts)
{
    SimCache::instance().clear();
    std::string serial = sweepCsv(1);

    SimCache::instance().clear();
    std::string four = sweepCsv(4);

    SimCache::instance().clear();
    std::string hardware = sweepCsv(0); // shared pool: defaultJobs()

    EXPECT_EQ(serial, four);
    EXPECT_EQ(serial, hardware);
    EXPECT_FALSE(serial.empty());
}

TEST(ParallelExp, SecondSweepPerformsZeroFreshSimulations)
{
    SimCache &cache = SimCache::instance();
    cache.clear();

    ExperimentParams params;
    params.jobs = 4;
    Runner first(params);
    first.all();
    const uint64_t misses_after_first = cache.misses();
    // 21 benchmarks × 4 configurations, every one a fresh simulation.
    EXPECT_EQ(misses_after_first, 21u * 4u);

    Runner second(params);
    second.all();
    EXPECT_EQ(cache.misses(), misses_after_first)
        << "an identical sweep must be served entirely from the cache";
    EXPECT_GE(cache.hits(), 21u * 4u);
}

TEST(ParallelExp, RunnerIsThreadSafeForConcurrentGets)
{
    SimCache::instance().clear();
    ExperimentParams params;
    params.jobs = 1; // sims serial; outer threads race get()
    Runner runner(params);
    const char *names[] = {"crc32", "sha", "crc32", "sha"};
    std::vector<const BenchResult *> seen(4);
    ThreadPool outer(4);
    outer.run(4, [&](size_t i) { seen[i] = &runner.get(names[i]); });
    EXPECT_EQ(seen[0], seen[2]) << "same bench must memoize";
    EXPECT_EQ(seen[1], seen[3]);
    EXPECT_EQ(seen[0]->name, "crc32");
    EXPECT_EQ(seen[1]->name, "sha");
}

} // namespace
} // namespace pfits
