/** @file The parallel experiment engine: thread-pool semantics,
 *  memoized simulation, and the headline guarantee — a sweep's table
 *  output is byte-identical at --jobs 1, --jobs 4 and --jobs
 *  hardware_concurrency, and an identical second sweep performs zero
 *  fresh simulations. */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "assembler/builder.hh"
#include "common/memo.hh"
#include "exp/experiment.hh"
#include "exp/figures.hh"
#include "exp/parallel.hh"
#include "exp/simcache.hh"
#include "mibench/mibench.hh"
#include "verify/differential.hh"

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

// --- the compute-once memo ------------------------------------------------

/** Spin until @p flag is set. */
void
awaitFlag(const std::atomic<bool> &flag)
{
    while (!flag.load())
        std::this_thread::yield();
}

TEST(Memo, ComputesOnceUnderConcurrentCallers)
{
    Memo<int, int> memo;
    EXPECT_FALSE(memo.peek(1).has_value());
    std::atomic<bool> go{false};
    std::atomic<int> calls{0}, computers{0};
    std::vector<int> got(8);
    std::vector<std::thread> threads;
    for (size_t i = 0; i < got.size(); ++i)
        threads.emplace_back([&, i] {
            awaitFlag(go);
            bool computed = false;
            got[i] = memo.get(
                1,
                [&] {
                    ++calls;
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(20));
                    return 42;
                },
                &computed);
            computers += computed;
        });
    go = true;
    for (std::thread &t : threads)
        t.join();
    EXPECT_EQ(calls.load(), 1);
    EXPECT_EQ(computers.load(), 1);
    for (int v : got)
        EXPECT_EQ(v, 42);
    EXPECT_EQ(memo.peek(1), 42);
    EXPECT_FALSE(memo.peek(2).has_value());
    EXPECT_EQ(memo.size(), 1u);
}

TEST(Memo, ThrowReachesCallerAndWaitersAndTheNextCallerRecomputes)
{
    Memo<int, int> memo;
    std::atomic<bool> computing{false}, release{false};
    std::atomic<int> calls{0};
    auto boom = [&]() -> int {
        ++calls;
        computing = true;
        awaitFlag(release);
        throw std::runtime_error("boom");
    };
    std::atomic<int> caught{0}, waited{0};
    auto ask = [&] {
        bool computed = false;
        try {
            memo.get(7, boom, &computed);
        } catch (const std::runtime_error &e) {
            EXPECT_STREQ(e.what(), "boom");
            ++caught;
            waited += !computed;
        }
    };
    std::vector<std::thread> threads;
    threads.emplace_back(ask);
    awaitFlag(computing);
    for (int i = 0; i < 7; ++i)
        threads.emplace_back(ask);
    // Long enough for the seven to block on the slot; the probe never
    // blocks on the computation.
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    EXPECT_FALSE(memo.peek(7).has_value());
    release = true;
    for (std::thread &t : threads)
        t.join();
    EXPECT_EQ(caught.load(), 8);
    EXPECT_EQ(waited.load(), 7);
    EXPECT_EQ(calls.load(), 1);

    // Nothing was memoized: the next caller computes.
    EXPECT_EQ(memo.size(), 0u);
    bool computed = false;
    EXPECT_EQ(memo.get(7, [] { return 5; }, &computed), 5);
    EXPECT_TRUE(computed);
    EXPECT_EQ(memo.peek(7), 5);
}

TEST(Memo, ClearDuringAComputationIsSafe)
{
    Memo<int, std::string> memo;
    std::atomic<bool> computing{false}, release{false};
    std::string first, waiter;
    std::thread owner([&] {
        first = memo.get(3, [&] {
            computing = true;
            awaitFlag(release);
            return std::string("old");
        });
    });
    awaitFlag(computing);
    std::thread waits([&] {
        waiter = memo.get(3, [] { return std::string("unused"); });
    });
    // Long enough for the waiter to block on the slot.
    std::this_thread::sleep_for(std::chrono::milliseconds(200));

    // The in-flight key is dropped; a new caller computes afresh while
    // the old computation still runs.
    memo.clear();
    EXPECT_EQ(memo.size(), 0u);
    EXPECT_EQ(memo.get(3, [] { return std::string("new"); }), "new");
    release = true;
    owner.join();
    waits.join();
    EXPECT_EQ(first, "old");
    EXPECT_EQ(waiter, "old");
    EXPECT_EQ(memo.peek(3), "new");
    EXPECT_EQ(memo.keys(), std::vector<int>{3});
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

    // A timing-relevant config change is a different key and a
    // different run. (Not the I-cache size: crc32's 252-byte code fits
    // every size, so those keys share one run.)
    CoreConfig slow = core;
    slow.icacheMissPenalty = 40;
    SimRequest slow_req = req;
    slow_req.core = &slow;
    cache.simulate(slow_req);
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

TEST(SimCache, ProgramHashIsComputedOnceUnderConcurrentKeys)
{
    const ArmFrontEnd fe(mibench::buildCrc32().program);
    CoreConfig core;
    SimRequest req;
    req.fe = &fe;
    req.core = &core;

    // Eight threads race to the FrontEnd's first key(): every one must
    // read the one memoized hash, the same a fresh equal program
    // walks to.
    std::atomic<bool> go{false};
    std::vector<SimKey> keys(8);
    std::vector<std::thread> threads;
    for (size_t i = 0; i < keys.size(); ++i)
        threads.emplace_back([&, i] {
            while (!go.load())
                std::this_thread::yield();
            keys[i] = req.key();
        });
    go = true;
    for (std::thread &t : threads)
        t.join();
    const ArmFrontEnd fresh(mibench::buildCrc32().program);
    for (const SimKey &key : keys) {
        EXPECT_EQ(key, keys[0]);
        EXPECT_EQ(key.program, hashFrontEnd(fresh));
    }

    // The memo runs its computation once, however many ask at once.
    const ArmFrontEnd other(mibench::buildCrc32().program);
    std::atomic<int> walks{0};
    threads.clear();
    go = false;
    for (int i = 0; i < 8; ++i)
        threads.emplace_back([&] {
            while (!go.load())
                std::this_thread::yield();
            EXPECT_EQ(other.memoHash([&](const FrontEnd &) {
                ++walks;
                return uint64_t{42};
            }),
                      42u);
        });
    go = true;
    for (std::thread &t : threads)
        t.join();
    EXPECT_EQ(walks.load(), 1);
}

TEST(SimCache, ThrowingComputationIsRecomputedByTheNextCall)
{
    SimCache &cache = SimCache::instance();
    cache.clear();

    // Fault injection is single-core only: a chip request with armed
    // faults is a fatal usage error from runSimulation. Each call must
    // see it, none may hang, and nothing is memoized.
    const ArmFrontEnd crc(mibench::buildCrc32().program);
    const CoreConfig core;
    SimRequest bad{.fe = &crc, .core = &core};
    bad.chip.tiles = 2;
    bad.faults.icacheMeanInterval = 50'000;
    bad.maxRetries = 1;
    EXPECT_THROW(cache.simulate(bad), FatalError);
    EXPECT_THROW(cache.simulate(bad), FatalError);
    EXPECT_EQ(cache.misses(), 2u);
    EXPECT_EQ(cache.entries(), 0u);

    // Concurrent callers each get the error, as computer or as waiter.
    std::atomic<int> threw{0};
    std::vector<std::thread> threads;
    for (int i = 0; i < 4; ++i)
        threads.emplace_back([&] {
            try {
                cache.simulate(bad);
            } catch (const FatalError &) {
                ++threw;
            }
        });
    for (std::thread &t : threads)
        t.join();
    EXPECT_EQ(threw.load(), 4);
    EXPECT_EQ(cache.entries(), 0u);

    // The cache still works.
    const SimRequest good{.fe = &crc, .core = &core};
    EXPECT_EQ(cache.simulate(good).run.outcome, RunOutcome::Completed);
    EXPECT_EQ(cache.entries(), 1u);
    cache.clear();
}

/** Every RunResult and ChipRunStats row where @p a and @p b differ. */
std::vector<std::string>
diffResults(const SimResult &a, const SimResult &b)
{
    std::vector<std::string> out;
    diffFields("run", a.run, b.run, out);
    diffFields("chip", a.chip.chipCycles, b.chip.chipCycles, out,
               "chip_cycles");
    diffFields("chip", a.chip.tileCycles, b.chip.tileCycles, out,
               "tile_cycles");
    diffFields("chip", a.chip.tileInstructions, b.chip.tileInstructions,
               out, "tile_instructions");
    diffFields("chip", a.chip.l2, b.chip.l2, out, "l2");
    diffFields("chip", a.chip.coherence, b.chip.coherence, out,
               "coherence");
    return out;
}

/** A 32-byte-line I-cache of @p kb KB and @p ways ways, named for it. */
CoreConfig
icacheCore(uint32_t kb, uint32_t ways)
{
    CoreConfig core;
    core.name = std::to_string(kb) + "k" + std::to_string(ways) + "w";
    core.icache.sizeBytes = kb * 1024;
    core.icache.assoc = ways;
    return core;
}

/**
 * A loop over exactly @p code_bytes of ARM code whose every pass, 8 in
 * all, fetches the whole code range: it starts at the first
 * instruction and branches back from the last.
 */
Program
loopOverCode(const std::string &name, uint32_t code_bytes)
{
    auto build = [&](uint32_t pad) {
        ProgramBuilder b(name);
        const Label loop = b.here();
        const Label done = b.label();
        const Label body = b.label();
        b.addi(R0, R0, 1);
        b.subi(R1, R0, 9, Cond::AL, true);
        b.b(done, Cond::EQ);
        b.b(body);
        b.bind(done);
        b.exit();
        b.bind(body);
        for (uint32_t i = 0; i < pad; ++i)
            b.nop();
        b.b(loop);
        return b.finish();
    };
    return build((code_bytes - build(0).codeBytes()) / 4);
}

TEST(SimCache, SharesOneRunAcrossICachesThatHoldTheCode)
{
    SimCache &cache = SimCache::instance();
    cache.clear();

    const ArmFrontEnd crc(mibench::buildCrc32().program);
    const PreparedBench jpeg =
        prepareBenchmark("jpeg.encode", ExperimentParams{});
    // The hand count below rests on these footprints (code at a
    // line-aligned base, 32-byte lines).
    ASSERT_EQ(crc.codeBytes(), 252u);
    ASSERT_GT(jpeg.fitsFe->codeBytes(), 4u * 1024);
    ASSERT_LE(jpeg.fitsFe->codeBytes(), 8u * 1024);
    ASSERT_GT(jpeg.armFe->codeBytes(), 8u * 1024);
    ASSERT_LE(jpeg.armFe->codeBytes(), 16u * 1024);

    std::vector<CoreConfig> cores;
    for (uint32_t kb : {4u, 8u, 16u, 32u})
        for (uint32_t ways : {4u, 32u})
            cores.push_back(icacheCore(kb, ways));
    std::vector<SimRequest> reqs;
    for (const FrontEnd *fe :
         {static_cast<const FrontEnd *>(&crc),
          static_cast<const FrontEnd *>(jpeg.fitsFe.get()),
          static_cast<const FrontEnd *>(jpeg.armFe.get())})
        for (const CoreConfig &core : cores)
            reqs.push_back(SimRequest{.fe = fe, .core = &core});
    // A 2-tile shared-L2 chip running FITS jpeg.encode, which fits
    // 8 KB and 16 KB alike.
    const CoreConfig chip8 = icacheCore(8, 4);
    const CoreConfig chip16 = icacheCore(16, 4);
    for (const CoreConfig *core : {&chip8, &chip16}) {
        SimRequest req{.fe = jpeg.fitsFe.get(), .core = core};
        req.chip.tiles = 2;
        req.chip.sharedL2 = true;
        reqs.push_back(req);
    }

    for (const SimRequest &req : reqs) {
        const SimResult got = cache.simulate(req);
        const SimResult fresh = runSimulation(req);
        EXPECT_EQ(got.run.config, req.core->name);
        EXPECT_EQ(got.chip.ranAsChip(), !req.chip.isDefault());
        for (const std::string &diff : diffResults(got, fresh))
            ADD_FAILURE() << req.fe->name() << "/" << req.core->name
                          << ": " << diff;
    }

    // Run identities: crc32 fits all 8 geometries (1); FITS
    // jpeg.encode fits all but the two 4 KB ones (1 + 2); ARM
    // jpeg.encode fits only the four 16 and 32 KB ones (1 + 4); the
    // chip pair fits both sizes (1).
    EXPECT_EQ(cache.misses(), 1u + 3u + 5u + 1u);
    EXPECT_EQ(cache.shared(), reqs.size() - cache.misses());
    EXPECT_EQ(cache.hits(), 0u);
    EXPECT_EQ(cache.entries(), reqs.size());

    // ARM jpeg.encode overflows the paper's 8 KB I-cache: its ARM8
    // run must be its own, not the 16 KB run.
    const CoreConfig arm16 = icacheCore(16, 32);
    const CoreConfig arm8 = icacheCore(8, 32);
    const SimRequest arm16_req{.fe = jpeg.armFe.get(), .core = &arm16};
    const SimRequest arm8_req{.fe = jpeg.armFe.get(), .core = &arm8};
    EXPECT_EQ(cache.simulate(arm16_req).run.icache.misses(), 416u);
    EXPECT_EQ(cache.simulate(arm8_req).run.icache.misses(), 59'618u);

    // The fit test's boundary: a 1 KB 2-way I-cache has 16 sets of 2
    // lines. Code of exactly 32 lines fills every set, so no fetch
    // evicts and it shares the 16 KB run under every policy; one line
    // more puts 3 lines in set 0, and each policy runs its own.
    cache.clear();
    const ArmFrontEnd exact(loopOverCode("exact", 1024));
    const ArmFrontEnd longer(loopOverCode("longer", 1024 + 4));
    ASSERT_EQ(exact.codec().base % 32, 0u);
    ASSERT_EQ(exact.codeBytes(), 1024u);
    ASSERT_EQ(longer.codeBytes(), 1024u + 4);
    const CoreConfig big = icacheCore(16, 32);
    std::vector<CoreConfig> small;
    for (ReplPolicy policy : {ReplPolicy::LRU, ReplPolicy::FIFO,
                              ReplPolicy::RANDOM, ReplPolicy::ROUND_ROBIN}) {
        CoreConfig core = icacheCore(1, 2);
        core.name += replPolicyName(policy);
        core.icache.policy = policy;
        small.push_back(core);
    }
    for (const ArmFrontEnd *fe : {&exact, &longer}) {
        const SimResult whole =
            cache.simulate(SimRequest{.fe = fe, .core = &big});
        for (const CoreConfig &core : small) {
            const SimRequest req{.fe = fe, .core = &core};
            const SimResult got = cache.simulate(req);
            for (const std::string &diff :
                 diffResults(got, runSimulation(req)))
                ADD_FAILURE() << fe->name() << "/" << core.name << ": "
                              << diff;
            const std::vector<std::string> vs_whole =
                diffResults(got, whole);
            if (fe == &exact)
                EXPECT_EQ(vs_whole, std::vector<std::string>{
                                        "run: config '" + core.name +
                                        "' vs '16k32w'"});
            else
                EXPECT_GT(got.run.icache.misses(), whole.run.icache.misses())
                    << core.name << ": one line more must evict";
        }
    }
    // exact: one run for all five cores; longer: the 16 KB run and
    // one per policy.
    EXPECT_EQ(cache.misses(), 1u + 5u);
    EXPECT_EQ(cache.shared(), 4u);
    cache.clear();
}

TEST(SimCache, SharesTrappedRunsButNeverFaultedOrTracedOnes)
{
    SimCache &cache = SimCache::instance();
    cache.clear();

    // A program that traps: its reason names no core, so both sizes
    // share one run like any other.
    ProgramBuilder b("noexit");
    b.nop();
    const ArmFrontEnd trapper(b.finish());
    const CoreConfig big = icacheCore(16, 32);
    const CoreConfig small = icacheCore(8, 32);
    for (const CoreConfig *core : {&big, &small}) {
        const SimRequest req{.fe = &trapper, .core = core};
        const SimResult r = cache.simulate(req);
        EXPECT_EQ(r.run.outcome, RunOutcome::Trapped);
        EXPECT_EQ(r.run.config, core->name);
        for (const CoreConfig *named : {&big, &small})
            EXPECT_EQ(r.run.trapReason.find(named->name),
                      std::string::npos)
                << r.run.trapReason;
        for (const std::string &diff : diffResults(r, runSimulation(req)))
            ADD_FAILURE() << core->name << ": " << diff;
    }
    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_EQ(cache.shared(), 1u);

    // Fault-armed and trace-armed requests for crc32, whose code fits
    // both sizes: each one runs.
    const ArmFrontEnd crc(mibench::buildCrc32().program);
    for (const CoreConfig *core : {&big, &small}) {
        SimRequest faulty{.fe = &crc, .core = core};
        faulty.faults.seed = 0x5eed;
        faulty.faults.icacheMeanInterval = 50'000;
        faulty.maxRetries = 3;
        cache.simulate(faulty);

        SimRequest traced{.fe = &crc, .core = core};
        traced.spec.traceOnTrap = true;
        traced.spec.traceDepth = 16;
        traced.spec.traceDir = testing::TempDir();
        const SimResult r = cache.simulate(traced);
        EXPECT_NE(r.tracePath.find("_" + core->name + ".trace.jsonl"),
                  std::string::npos)
            << r.tracePath;
    }
    EXPECT_EQ(cache.misses(), 5u);
    EXPECT_EQ(cache.shared(), 1u);
    cache.clear();
}

TEST(SimCache, ConcurrentSizeVariantsSimulateOnce)
{
    SimCache &cache = SimCache::instance();
    cache.clear();

    const ArmFrontEnd crc(mibench::buildCrc32().program);
    const CoreConfig big = icacheCore(16, 32);
    const CoreConfig small = icacheCore(8, 32);
    std::atomic<bool> go{false};
    std::vector<SimResult> results(8);
    std::vector<std::thread> threads;
    for (size_t i = 0; i < results.size(); ++i)
        threads.emplace_back([&, i] {
            const SimRequest req{.fe = &crc,
                                 .core = i % 2 ? &small : &big};
            while (!go.load())
                std::this_thread::yield();
            results[i] = cache.simulate(req);
        });
    go = true;
    for (std::thread &t : threads)
        t.join();

    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_EQ(cache.shared(), 1u);
    EXPECT_EQ(cache.hits(), 6u);
    for (size_t i = 0; i < results.size(); ++i) {
        EXPECT_EQ(results[i].run.config, i % 2 ? "8k32w" : "16k32w");
        SimResult same = results[i];
        same.run.config = results[0].run.config;
        EXPECT_TRUE(diffResults(same, results[0]).empty());
    }
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
    // 21 benchmarks × 4 configurations, every one fresh except the 38
    // 8 KB requests whose program fits 8 KB (all but ARM jpeg.encode,
    // jpeg.decode, rijndael.decode and sha): those share their 16 KB
    // run.
    EXPECT_EQ(misses_after_first, 21u * 4u - 38u);
    EXPECT_EQ(cache.shared(), 38u);

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
