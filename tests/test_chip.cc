/** @file The Chip's structural contracts: a one-tile default chip IS
 *  a Machine (every RunResult field and the memory image), the
 *  round-robin quantum is architecturally unobservable, multi-tile
 *  runs under shared-L2 contention keep per-tile architecture equal
 *  to independent single-core runs, chip runs are deterministic, and
 *  the SimCache memo key walls multi-tile requests off from cached
 *  single-core entries. */

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "exp/simcache.hh"
#include "fits/fits_frontend.hh"
#include "fits/profile.hh"
#include "fits/synth.hh"
#include "fits/translate.hh"
#include "mibench/mibench.hh"
#include "sim/chip.hh"
#include "sim/frontend.hh"
#include "sim/machine.hh"
#include "sim/probe.hh"
#include "verify/differential.hh"
#include "verify/randprog.hh"

namespace pfits
{
namespace
{

/** Every CacheStats row (its field list), way-memo hits included. */
void
expectSameCache(const char *what, const CacheStats &a,
                const CacheStats &b)
{
    std::vector<std::string> diffs;
    diffFields(what, a, b, diffs);
    EXPECT_TRUE(diffs.empty()) << diffs.front();
}

/** Architectural equality: what contention may never change. */
void
expectSameArch(const RunResult &a, const RunResult &b)
{
    EXPECT_EQ(a.outcome, b.outcome);
    EXPECT_EQ(a.trapReason, b.trapReason);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.annulled, b.annulled);
    EXPECT_EQ(a.takenBranches, b.takenBranches);
    for (unsigned r = 0; r < NUM_REGS; ++r)
        EXPECT_EQ(a.finalState.regs[r], b.finalState.regs[r])
            << "r" << r;
    EXPECT_EQ(a.finalState.flags.n, b.finalState.flags.n);
    EXPECT_EQ(a.finalState.flags.z, b.finalState.flags.z);
    EXPECT_EQ(a.finalState.flags.c, b.finalState.flags.c);
    EXPECT_EQ(a.finalState.flags.v, b.finalState.flags.v);
    EXPECT_EQ(a.io.console, b.io.console);
    EXPECT_EQ(a.io.emitted, b.io.emitted);
}

/** Full equality: architecture plus timing, caches and activity. */
void
expectSameRun(const RunResult &a, const RunResult &b)
{
    expectSameArch(a, b);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.fetchToggleBits, b.fetchToggleBits);
    EXPECT_EQ(a.fetchBitsTotal, b.fetchBitsTotal);
    EXPECT_EQ(a.icacheRefillWords, b.icacheRefillWords);
    EXPECT_EQ(a.dmemAccesses, b.dmemAccesses);
    expectSameCache("icache", a.icache, b.icache);
    expectSameCache("dcache", a.dcache, b.dcache);
}

/** Every field of two interval series (IntervalSample::fields). */
void
expectSameSamples(const std::vector<IntervalSample> &a,
                  const std::vector<IntervalSample> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        auto same = [&](const char *name, auto member) {
            EXPECT_EQ(a[i].*member, b[i].*member)
                << name << " of sample " << i;
        };
        IntervalSample::fields(same);
    }
}

TEST(Chip, OneTileDefaultChipIsAMachine)
{
    // Two short random programs and crc32 (~313k instructions), which
    // crosses the default 10 000-instruction quantum dozens of times:
    // state the engine tile forgets at a quantum boundary shows up in
    // its RunResult (way-memo hits included).
    const std::vector<Program> progs = {
        randomVerifyProgram(3), randomVerifyProgram(17),
        mibench::findBench("crc32").build().program};
    for (const Program &prog : progs) {
        ArmFrontEnd arm(prog);
        CoreConfig core;

        Machine machine(arm, core);
        RunResult solo = machine.run();

        Chip chip(std::vector<Chip::TileSpec>{{&arm, core}},
                  ChipConfig{});
        ChipResult cres = chip.run();

        ASSERT_EQ(cres.tiles.size(), 1u);
        expectSameRun(solo, cres.tiles.front());
        EXPECT_EQ(cres.chipCycles, solo.cycles);
        EXPECT_EQ(machine.mem().firstDifference(chip.tileMem(0)),
                  std::nullopt);
    }
}

TEST(Chip, OneTileChipIsAMachineOnEveryKernel)
{
    // Chip{1} stepping the engine in an odd quantum against a Machine
    // on the interpreter oracle, over the whole suite: every RunResult
    // row (way-memo hits included, which streak state carried across
    // quantum boundaries decides) and the memory image.
    ChipConfig cfg;
    cfg.quantum = 997;
    for (const mibench::BenchInfo &info : mibench::suite()) {
        ArmFrontEnd arm(info.build().program);
        CoreConfig core;
        Machine machine(arm, core, makeOracleTile);
        const RunResult solo = machine.run();
        Chip chip(std::vector<Chip::TileSpec>{{&arm, core}}, cfg);
        const ChipResult cres = chip.run();
        std::vector<std::string> diffs;
        diffFields(info.name, solo, cres.tiles.front(), diffs);
        EXPECT_TRUE(diffs.empty()) << diffs.front();
        EXPECT_EQ(machine.mem().firstDifference(chip.tileMem(0)),
                  std::nullopt)
            << info.name;
    }
}

TEST(Chip, QuantumIsArchitecturallyUnobservable)
{
    Program prog = randomVerifyProgram(29);
    ArmFrontEnd arm(prog);
    CoreConfig core;
    Machine machine(arm, core);
    RunResult solo = machine.run();

    for (uint64_t quantum : {1ull, 7ull, 4099ull}) {
        ChipConfig cfg;
        cfg.quantum = quantum;
        Chip chip(std::vector<Chip::TileSpec>{{&arm, core}}, cfg);
        ChipResult cres = chip.run();
        expectSameRun(solo, cres.tiles.front());
        EXPECT_EQ(machine.mem().firstDifference(chip.tileMem(0)),
                  std::nullopt)
            << "quantum " << quantum;
    }

    // The observer stamp saves and restores the same loop state at
    // every step boundary: with an interval observer on tile 0, the
    // chip must match a Machine run carrying the same observer, on an
    // ARM stream and on a FITS kernel behind the packed-fetch buffer.
    Program kernel = mibench::findBench("crc32").build().program;
    ProfileInfo profile = profileProgram(kernel);
    FitsIsa isa = synthesize(profile, SynthParams{}, kernel.name);
    FitsFrontEnd fits(translateProgram(kernel, isa, profile));
    CoreConfig packed;
    packed.packedFetch = true;
    const Chip::TileSpec specs[] = {{&arm, core}, {&fits, packed}};
    for (const Chip::TileSpec &spec : specs) {
        IntervalStatsObserver solo_intervals(97);
        ObserverList solo_list;
        solo_list.add(&solo_intervals);
        const RunResult ref =
            Machine(*spec.fe, spec.core).run(nullptr, &solo_list);
        const std::vector<IntervalSample> ref_samples =
            solo_intervals.take();
        for (uint64_t quantum : {1ull, 7ull}) {
            SCOPED_TRACE(ref.benchmark + " quantum " +
                         std::to_string(quantum));
            ChipConfig cfg;
            cfg.quantum = quantum;
            Chip chip(std::vector<Chip::TileSpec>{spec}, cfg);
            IntervalStatsObserver intervals(97);
            ObserverList list;
            list.add(&intervals);
            chip.setObservers(0, &list);
            std::vector<std::string> diffs;
            diffFields(ref.benchmark, ref, chip.run().tiles.front(), diffs);
            EXPECT_TRUE(diffs.empty()) << diffs.front();
            expectSameSamples(ref_samples, intervals.take());
        }
    }
}

TEST(Chip, SharedL2ChangesTimingNeverArchitecture)
{
    Program prog = randomVerifyProgram(31);
    ArmFrontEnd arm(prog);
    CoreConfig core;
    Machine machine(arm, core);
    RunResult solo = machine.run();

    ChipConfig cfg;
    cfg.sharedL2 = true;
    Chip chip(std::vector<Chip::TileSpec>{{&arm, core}}, cfg);
    ChipResult cres = chip.run();

    expectSameArch(solo, cres.tiles.front());
    EXPECT_EQ(machine.mem().firstDifference(chip.tileMem(0)),
              std::nullopt);
    EXPECT_EQ(chip.checkCoherence(), "");
    EXPECT_GT(cres.coherence.readFills, 0u);
}

TEST(Chip, MultiTileMatchesIndependentRunsAndIsDeterministic)
{
    Program prog = randomVerifyProgram(37);
    ArmFrontEnd arm(prog);
    CoreConfig core;
    Machine machine(arm, core);
    RunResult solo = machine.run();

    ChipConfig cfg;
    cfg.tiles = 3;
    cfg.sharedL2 = true;
    cfg.l2.sizeBytes = 16 * 1024; // small: force L2 contention
    cfg.quantum = 1009;

    std::vector<Chip::TileSpec> specs(cfg.tiles,
                                      Chip::TileSpec{&arm, core});
    Chip chip(specs, cfg);
    ChipResult first = chip.run();

    ASSERT_EQ(first.tiles.size(), cfg.tiles);
    for (unsigned t = 0; t < cfg.tiles; ++t) {
        SCOPED_TRACE("tile " + std::to_string(t));
        expectSameArch(solo, first.tiles[t]);
        EXPECT_EQ(machine.mem().firstDifference(chip.tileMem(t)),
                  std::nullopt);
    }
    EXPECT_EQ(chip.checkCoherence(), "");

    // Byte-identical on a repeat: same per-tile results, same L2 and
    // protocol activity, same chip cycle count.
    Chip again(specs, cfg);
    ChipResult second = again.run();
    EXPECT_EQ(first.chipCycles, second.chipCycles);
    for (unsigned t = 0; t < cfg.tiles; ++t) {
        SCOPED_TRACE("tile " + std::to_string(t));
        expectSameRun(first.tiles[t], second.tiles[t]);
    }
    EXPECT_EQ(first.l2.accesses(), second.l2.accesses());
    EXPECT_EQ(first.l2.misses(), second.l2.misses());
    EXPECT_EQ(first.l2.writebacks, second.l2.writebacks);
    EXPECT_EQ(first.coherence.readFills, second.coherence.readFills);
    EXPECT_EQ(first.coherence.backInvalidations,
              second.coherence.backInvalidations);
}

TEST(ChipConfig, ValidationRejectsInconsistentShapes)
{
    EXPECT_EQ(ChipConfig{}.validateError(), "");

    ChipConfig cfg;
    cfg.tiles = 0;
    EXPECT_NE(cfg.validateError().find("1..64"), std::string::npos);
    cfg.tiles = 65;
    EXPECT_NE(cfg.validateError().find("1..64"), std::string::npos);

    cfg = ChipConfig{};
    cfg.quantum = 0;
    EXPECT_NE(cfg.validateError().find("quantum"), std::string::npos);

    cfg = ChipConfig{};
    cfg.tileShift = 21;
    EXPECT_NE(cfg.validateError().find("22..31"), std::string::npos);
    cfg.tileShift = 32;
    EXPECT_NE(cfg.validateError().find("22..31"), std::string::npos);

    // Coloring windows must tile the 32-bit space: 64 windows of
    // 2^27 bytes do not fit.
    cfg = ChipConfig{};
    cfg.tiles = 64;
    cfg.tileShift = 27;
    EXPECT_NE(cfg.validateError().find("do not fit"),
              std::string::npos);

    // The shared L2 must be write-back (the directory owns dirty
    // data) and geometrically sound.
    cfg = ChipConfig{};
    cfg.sharedL2 = true;
    cfg.l2.writeBack = false;
    EXPECT_NE(cfg.validateError().find("write-back"),
              std::string::npos);
    cfg.l2.writeBack = true;
    cfg.l2.lineBytes = 3;
    EXPECT_NE(cfg.validateError(), "");

    cfg = ChipConfig{};
    cfg.tiles = 0;
    EXPECT_THROW(cfg.validate(), FatalError);
}

TEST(SimCacheChip, DefaultChipKeepsLegacyMemoKeys)
{
    CoreConfig core;
    // A default chip run IS a Machine run: the config key must be the
    // bare core hash, bit for bit, so every pre-chip memo entry,
    // manifest and golden snapshot keeps its exact identity.
    EXPECT_EQ(hashChipConfig(ChipConfig{}), 0u);
    EXPECT_EQ(hashConfigKey(core, ChipConfig{}), hashCoreConfig(core));

    ChipConfig two;
    two.tiles = 2;
    two.sharedL2 = true;
    EXPECT_NE(hashChipConfig(two), 0u);
    EXPECT_NE(hashConfigKey(core, two), hashCoreConfig(core));
    // (That every chip knob is key material is checked row by row in
    // FieldLists.EveryConfigRowMovesTheMemoKey.)

    // A shared L2 is non-default even for one tile.
    ChipConfig one_shared;
    one_shared.sharedL2 = true;
    EXPECT_FALSE(one_shared.isDefault());
    EXPECT_NE(hashChipConfig(one_shared), 0u);
}

TEST(SimCacheChip, MultiTileRequestNeverHitsSingleCoreEntry)
{
    Program prog = randomVerifyProgram(90001);
    ArmFrontEnd arm(prog);
    CoreConfig core;
    SimCache &cache = SimCache::instance();
    SimRequest req;
    req.fe = &arm;
    req.core = &core;

    const uint64_t misses0 = cache.misses();
    SimResult solo = cache.simulate(req);
    EXPECT_EQ(cache.misses(), misses0 + 1);
    EXPECT_FALSE(solo.chip.ranAsChip());

    // Same key again: a hit.
    const uint64_t hits0 = cache.hits();
    (void)cache.simulate(req);
    EXPECT_EQ(cache.hits(), hits0 + 1);
    EXPECT_EQ(cache.misses(), misses0 + 1);

    // The multi-tile request must be a fresh computation, not an
    // answer from the cached single-core entry.
    SimRequest chip_req = req;
    chip_req.chip.tiles = 2;
    chip_req.chip.sharedL2 = true;
    SimResult cres = cache.simulate(chip_req);
    EXPECT_EQ(cache.misses(), misses0 + 2);
    ASSERT_TRUE(cres.chip.ranAsChip());
    EXPECT_EQ(cres.chip.tileCycles.size(), 2u);
    EXPECT_EQ(cres.chip.tileInstructions.size(), 2u);
    EXPECT_GT(cres.chip.chipCycles, 0u);

    // The reported run is tile 0 of the chip: architecturally equal
    // to the single-core run (timing differs under the shared L2).
    expectSameArch(solo.run, cres.run);

    // And the chip entry itself memoizes.
    const uint64_t hits1 = cache.hits();
    (void)cache.simulate(chip_req);
    EXPECT_EQ(cache.hits(), hits1 + 1);
    EXPECT_EQ(cache.misses(), misses0 + 2);
}

} // namespace
} // namespace pfits
