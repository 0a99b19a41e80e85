/**
 * @file
 * The differential runner: execute one uARM program on every model
 * and cross-check the results.
 *
 * Models compared per program:
 *
 *  1. golden  — the naive reference interpreter (verify/golden.hh);
 *  2. arm32   — the fixed ARM decoder on the timing Machine;
 *  3. packed  — the same Machine with the packed-fetch buffer on
 *               (fetch-path variation must never change architecture);
 *  4. fits16  — the program profiled, synthesized (default
 *               SynthParams) and translated to its per-application
 *               16-bit ISA, run on the programmable decoder.
 *
 * Checked: final register/flag state, full memory image (data-segment
 * ranges for fits16 — code addresses pushed on the stack legitimately
 * differ between a 4-byte and a 2-byte stream), console and emitted
 * I/O, retired-instruction counts (exact across golden/arm32/packed),
 * and run outcome. Every timing Machine config runs on the engine AND
 * on the cycle-exact interpreter oracle (makeOracleTile): with the
 * timing-invariant checker attached (verify/timing.hh), bare (the
 * batched zero-observer path production sweeps use) and as a one-tile
 * Chip, and every engine run must equal the oracle's RunResult field
 * for field plus the full memory image.
 */

#ifndef POWERFITS_VERIFY_DIFFERENTIAL_HH
#define POWERFITS_VERIFY_DIFFERENTIAL_HH

#include <algorithm>
#include <cstdint>
#include <memory>
#include <ostream>
#include <ranges>
#include <string>
#include <type_traits>
#include <vector>

#include "assembler/program.hh"
#include "common/fields.hh"
#include "common/logging.hh"
#include "sim/chip.hh"
#include "sim/tile.hh"

namespace pfits
{

/**
 * The cycle-exact differential oracle (verify/oracle.cc), a
 * TileFactory: a per-instruction interpreter over execute() and the
 * full Cache::access() scan. Every RunResult row, cache stat, trap text
 * and memory image of the engine must equal this tile's.
 */
std::unique_ptr<Tile> makeOracleTile(const FrontEnd &fe,
                                     const CoreConfig &config,
                                     Memory &mem, unsigned tileId);

/** Outcome of differentially executing one program. */
struct DiffReport
{
    std::string program;
    uint64_t seed = 0; //!< generator seed; 0 for named kernels
    std::vector<std::string> mismatches;

    uint64_t armInstructions = 0;
    uint64_t fitsInstructions = 0;

    bool ok() const { return mismatches.empty(); }

    /** Multi-line description of every mismatch. */
    std::string describe() const;
};

/**
 * Run @p prog on all four models and cross-check.
 * @param seed     recorded in the report for reproduction (0 = kernel)
 * @param expected when non-null, the independently computed golden
 *                 checksum (MiBench's C++ reference) the golden
 *                 model's last emitted word must equal — anchoring
 *                 the whole differential chain to a third
 *                 implementation.
 */
DiffReport diffProgram(const Program &prog, uint64_t seed = 0,
                       const uint32_t *expected = nullptr);

/** Differential-suite parameters. */
struct DiffOptions
{
    uint64_t seed = 1;    //!< base seed of the random shard
    unsigned count = 500; //!< random programs to generate
    unsigned jobs = 0;    //!< worker threads; 0 = shared pool default
    bool kernels = true;  //!< also run the 21 MiBench kernels
};

/** Aggregate outcome of one differential sweep. */
struct DiffSummary
{
    unsigned programsRun = 0;
    std::vector<DiffReport> failed;

    bool ok() const { return failed.empty(); }
};

/**
 * Run the differential suite: the MiBench kernels (when enabled) plus
 * @p opts.count seeded random programs, fanned out over the thread
 * pool with deterministic result order. @p progress, when given,
 * receives one line per failure as jobs complete plus a final tally.
 */
DiffSummary runDifferentialSuite(const DiffOptions &opts,
                                 std::ostream *progress = nullptr);

/**
 * Run the timing-invariant checker over every MiBench benchmark on
 * the paper's four configurations (ARM16/ARM8/FITS16/FITS8), on the
 * engine and on the oracle.
 * @return violation descriptions, one entry per failing
 * (benchmark, config, tile) run — empty when every schedule is legal.
 */
std::vector<std::string> runTimingInvariantSweep(
    unsigned jobs = 0, std::ostream *progress = nullptr);

/** Multi-tile chip equivalence sweep parameters. */
struct ChipDiffOptions
{
    uint64_t seed = 1;    //!< base seed of the random shard
    unsigned count = 500; //!< random programs to generate
    unsigned tiles = 4;   //!< tiles per chip (2+ for a real check)
    unsigned jobs = 0;    //!< worker threads; 0 = shared pool default
    bool kernels = true;  //!< also run the 21 MiBench kernels
};

/**
 * The multi-tile half of the differential story: run each program as
 * every tile of an N-tile chip over a small shared MSI L2 (sized to
 * force capacity back-invalidations) at each of the round-robin quanta
 * 7, 1009 and 10 000 (a fine, an odd and the production one), and
 * require
 *
 *  - the engine chip to equal the same chip built from oracle tiles
 *    (diffChipAgainstOracle): every per-tile RunResult row, the L2
 *    and coherence stats, chip cycles and every tile's memory image;
 *  - per-tile architectural equality against an independent
 *    single-core run — outcome, retired counts, registers/flags, I/O,
 *    and the full memory image (timing and cache stats legitimately
 *    differ under L2 contention, and are not compared);
 *  - the coherence invariants (CoherentL2::checkInvariants) to hold
 *    over the final directory and cache contents: single writer,
 *    directory-cache agreement, L2 inclusion.
 *
 * Programs are the MiBench kernels (when enabled) plus opts.count
 * seeded random programs, fanned out deterministically like
 * runDifferentialSuite.
 */
DiffSummary runChipDifferentialSuite(const ChipDiffOptions &opts,
                                     std::ostream *progress = nullptr);

/** An engine chip run checked against the same chip on oracle tiles. */
struct ChipDiff
{
    std::unique_ptr<Chip> engine; //!< the engine chip, after its run
    ChipResult result;            //!< the engine chip's result
    std::vector<std::string> mismatches; //!< empty when exact
};

/**
 * Run the chip (@p specs, @p config) twice — on engine tiles and on
 * oracle tiles — and describe every difference: per-tile RunResult
 * rows, L2 and coherence stats, chip cycles, tile memory images, and
 * either chip's coherence-invariant violations.
 */
ChipDiff diffChipAgainstOracle(const std::vector<Chip::TileSpec> &specs,
                               const ChipConfig &config);

namespace detail
{

/** A row value as diffFields prints it. */
template <class M>
std::string
fieldText(const M &v)
{
    if constexpr (std::is_enum_v<M>)
        return FieldEnum<M>::name(v);
    else if constexpr (std::is_integral_v<M>)
        return std::to_string(static_cast<unsigned long long>(v));
    else if constexpr (std::is_floating_point_v<M>)
        return format("%.17g", static_cast<double>(v));
    else
        return "'" + v + "'";
}

} // namespace detail

/**
 * The differential consumer of the field lists (common/fields.hh):
 * append "<what>: <path> <a> vs <b>" to @p out for every row where
 * @p a and @p b differ. Nested lists extend @p path ("icache.reads");
 * for a vector or array, a length mismatch and the first differing
 * element ("final_state.regs[3]") are reported.
 */
template <class M>
void
diffFields(const std::string &what, const M &a, const M &b,
           std::vector<std::string> &out, const std::string &path = "")
{
    if constexpr (HasFields<M>) {
        const std::string prefix = path.empty() ? path : path + ".";
        auto row = [&]<class F>(const char *name, F M::*member,
                                unsigned = 0) {
            diffFields(what, a.*member, b.*member, out, prefix + name);
        };
        M::fields(row);
    } else if constexpr (std::ranges::range<M> &&
                         !std::is_same_v<M, std::string>) {
        const size_t na = std::ranges::size(a);
        const size_t nb = std::ranges::size(b);
        if (na != nb)
            out.push_back(detail::format("%s: %s %zu vs %zu entries",
                                         what.c_str(), path.c_str(), na,
                                         nb));
        const size_t before = out.size();
        for (size_t i = 0; i < std::min(na, nb) && out.size() == before;
             ++i)
            diffFields(what, a[i], b[i], out,
                       path + "[" + std::to_string(i) + "]");
    } else if (!(a == b)) {
        out.push_back(what + ": " + path + " " + detail::fieldText(a) +
                      " vs " + detail::fieldText(b));
    }
}

} // namespace pfits

#endif // POWERFITS_VERIFY_DIFFERENTIAL_HH
