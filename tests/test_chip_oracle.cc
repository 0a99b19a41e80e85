/** @file The engine chip against the oracle chip: the same Chip built
 *  from engine tiles and from interpreter-oracle tiles
 *  (makeOracleTile) must agree on every per-tile RunResult row, the
 *  L2 and coherence stats, chip cycles and every tile's memory image —
 *  over tile counts {1, 2, 4, 8} x quanta {1, 7, 10 000}, plus directed
 *  cases for the three places the engine's line streaks meet the
 *  coherence protocol: a self back-invalidation of a streak-tracked
 *  I-line, a write to a Shared D-line inside a streak, and the
 *  packed-fetch buffer after a remote invalidation. */

#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "assembler/builder.hh"
#include "fits/fits_frontend.hh"
#include "fits/profile.hh"
#include "fits/synth.hh"
#include "fits/translate.hh"
#include "sim/chip.hh"
#include "sim/frontend.hh"
#include "sim/probe.hh"
#include "verify/differential.hh"
#include "verify/randprog.hh"

namespace pfits
{
namespace
{

/**
 * A loop of a few instructions (one or two I-lines) that walks @p bytes
 * of buffer @p passes times with one load per 32-byte line — and, with
 * @p store, a store to the line it just loaded. Behind a small L2 every
 * load refills the L1 and evicts other lines from the L2, the loop's
 * own code lines included.
 */
Program
strideWalk(const std::string &name, uint32_t bytes, uint32_t passes,
           bool store = false)
{
    ProgramBuilder b(name);
    b.zeros("buf", bytes);
    b.movi(R3, passes);
    Label outer = b.here();
    b.lea(R0, "buf");
    b.movi(R1, bytes / 32);
    Label inner = b.here();
    b.ldr(R2, R0, 0);
    if (store) {
        // The second load is a streak hit on the line the first one
        // filled Shared; the store then needs the S->M upgrade.
        b.ldr(R4, R0, 8);
        b.addi(R2, R2, 1);
        b.str(R2, R0, 4);
    }
    b.addi(R0, R0, 32);
    b.subi(R1, R1, 1, Cond::AL, true);
    b.b(inner, Cond::NE);
    b.subi(R3, R3, 1, Cond::AL, true);
    b.b(outer, Cond::NE);
    b.exit();
    return b.finish();
}

/** A tiny direct-mapped L2: the walk above evicts everything. */
ChipConfig
tinyL2Chip(unsigned tiles, uint64_t quantum)
{
    ChipConfig cfg;
    cfg.tiles = tiles;
    cfg.quantum = quantum;
    cfg.sharedL2 = true;
    cfg.l2 = CacheConfig{"l2", 1024, 1, 32, ReplPolicy::LRU, true};
    return cfg;
}

std::string
joined(const std::vector<std::string> &lines)
{
    std::string s;
    for (const std::string &l : lines)
        s += l + "\n";
    return s;
}

/**
 * Counts back-invalidations of code lines (I-side) per losing tile,
 * split by whether the fill that caused them was the losing tile's own
 * (self) or another tile's (remote). accessFill emits a fill's
 * BackInvalidate events before the fill event naming the requester.
 */
class CodeRecallTally final : public SimObserver
{
  public:
    CodeRecallTally(uint32_t codeLo, uint32_t codeHi, unsigned tileShift)
        : codeLo_(codeLo), codeHi_(codeHi), tileShift_(tileShift)
    {
    }

    void
    onCoherence(const CoherenceEvent &e) override
    {
        using Kind = CoherenceEvent::Kind;
        if (e.kind == Kind::BackInvalidate) {
            const uint32_t virt =
                e.lineAddr & ((1u << tileShift_) - 1u);
            if (virt >= codeLo_ && virt < codeHi_)
                pending_.push_back(e.tile);
        } else if (e.kind == Kind::ReadFill ||
                   e.kind == Kind::WriteFill) {
            for (unsigned loser : pending_)
                ++(loser == e.tile ? self : remote);
            pending_.clear();
        }
    }

    uint64_t self = 0;
    uint64_t remote = 0;

  private:
    uint32_t codeLo_;
    uint32_t codeHi_;
    unsigned tileShift_;
    std::vector<unsigned> pending_;
};

// --- shards: tiles x quantum ----------------------------------------------

class ChipOracleShard
    : public ::testing::TestWithParam<std::tuple<unsigned, uint64_t>>
{
};

TEST_P(ChipOracleShard, EngineChipMatchesOracleChip)
{
    const auto [tiles, quantum] = GetParam();
    // Heterogeneous tiles over a small shared L2: even tiles walk
    // buffers of different sizes (capacity back-invalidations, dirty
    // recalls), odd tiles run seeded random programs.
    std::vector<Program> progs;
    for (unsigned t = 0; t < tiles; ++t)
        progs.push_back(t % 2 == 0
                            ? strideWalk("walk" + std::to_string(t),
                                         4096u << (t % 3), 3, t % 4 == 2)
                            : randomVerifyProgram(40 + t));
    std::vector<ArmFrontEnd> fes(progs.begin(), progs.end());
    std::vector<Chip::TileSpec> specs;
    for (const ArmFrontEnd &fe : fes)
        specs.push_back(Chip::TileSpec{&fe, CoreConfig{}});

    ChipConfig cfg;
    cfg.tiles = tiles;
    cfg.quantum = quantum;
    cfg.sharedL2 = true;
    cfg.l2 = CacheConfig{"l2", 8 * 1024, 2, 32, ReplPolicy::LRU, true};
    const std::vector<std::string> diffs =
        diffChipAgainstOracle(specs, cfg).mismatches;
    EXPECT_TRUE(diffs.empty()) << joined(diffs);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ChipOracleShard,
    ::testing::Combine(::testing::Values(1u, 2u, 4u, 8u),
                       ::testing::Values(uint64_t{1}, uint64_t{7},
                                         uint64_t{10'000})));

// --- directed cases -------------------------------------------------------

TEST(ChipOracle, SelfBackInvalidationOfStreakTrackedILine)
{
    // One tile: every load's L2 fill can evict the L2 copy of the
    // loop's own code line, recalling the I-line the running streak
    // tracks. The next fetch must miss exactly as the oracle's does.
    Program prog = strideWalk("selfrecall", 16 * 1024, 3);
    ArmFrontEnd fe(prog);
    const std::vector<Chip::TileSpec> specs(1,
                                            Chip::TileSpec{&fe, {}});
    const ChipConfig cfg = tinyL2Chip(1, 10'000);

    const std::vector<std::string> diffs =
        diffChipAgainstOracle(specs, cfg).mismatches;
    EXPECT_TRUE(diffs.empty()) << joined(diffs);

    CodeRecallTally tally(
        prog.codeBase,
        prog.codeBase + 4 * static_cast<uint32_t>(prog.code.size()),
        cfg.tileShift);
    ObserverList list;
    list.add(&tally);
    Chip chip(specs, cfg);
    chip.setChipObservers(&list);
    chip.run();
    EXPECT_GT(tally.self, 0u) << "the walk never recalled its own code";
}

TEST(ChipOracle, WriteToSharedLineInStreakUpgrades)
{
    // Each line is loaded (read fill: Shared), loaded again (a streak
    // hit) and then stored to: the store must take the S->M upgrade
    // even though its line is streak-tracked. The second pass stores
    // to lines already held Modified.
    Program prog = strideWalk("upgrade", 4096, 2, /*store=*/true);
    ArmFrontEnd fe(prog);
    for (unsigned tiles : {1u, 2u}) {
        const std::vector<Chip::TileSpec> specs(
            tiles, Chip::TileSpec{&fe, {}});
        ChipConfig cfg;
        cfg.tiles = tiles;
        cfg.sharedL2 = true;
        cfg.quantum = 7;
        const ChipDiff diff = diffChipAgainstOracle(specs, cfg);
        EXPECT_TRUE(diff.mismatches.empty()) << joined(diff.mismatches);
        EXPECT_EQ(diff.result.coherence.upgrades, tiles * 4096u / 32u)
            << "one S->M upgrade per line, first pass only";
    }
}

TEST(ChipOracle, PackedFetchAfterRemoteInvalidation)
{
    // A 16-bit stream with the packed-fetch buffer on, two tiles over
    // a tiny L2: tile 1's fills recall tile 0's code lines between
    // tile 0's quanta, so the word tile 0 has buffered may belong to a
    // dropped line and its next fetch must go back to the array.
    Program prog = strideWalk("packedrecall", 16 * 1024, 3);
    ProfileInfo profile = profileProgram(prog);
    FitsIsa isa = synthesize(profile, SynthParams{}, prog.name);
    FitsProgram fits_prog = translateProgram(prog, isa, profile);
    const uint32_t code_lo = fits_prog.codeBase;
    const uint32_t code_hi = code_lo + fits_prog.codeBytes();
    FitsFrontEnd fe(std::move(fits_prog));

    CoreConfig core;
    core.packedFetch = true;
    const std::vector<Chip::TileSpec> specs(2, Chip::TileSpec{&fe, core});
    const ChipConfig cfg = tinyL2Chip(2, 7);

    const std::vector<std::string> diffs =
        diffChipAgainstOracle(specs, cfg).mismatches;
    EXPECT_TRUE(diffs.empty()) << joined(diffs);

    CodeRecallTally tally(code_lo, code_hi, cfg.tileShift);
    ObserverList list;
    list.add(&tally);
    Chip chip(specs, cfg);
    chip.setChipObservers(&list);
    chip.run();
    EXPECT_GT(tally.remote, 0u)
        << "no tile lost a code line to the other's fill";
}

} // namespace
} // namespace pfits
