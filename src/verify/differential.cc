#include "verify/differential.hh"

#include <algorithm>
#include <iterator>
#include <memory>
#include <numeric>

#include "common/logging.hh"
#include "exp/experiment.hh"
#include "exp/parallel.hh"
#include "fits/fits_frontend.hh"
#include "fits/profile.hh"
#include "fits/synth.hh"
#include "fits/translate.hh"
#include "mibench/mibench.hh"
#include "sim/chip.hh"
#include "sim/machine.hh"
#include "sim/probe.hh"
#include "verify/golden.hh"
#include "verify/randprog.hh"
#include "verify/timing.hh"

namespace pfits
{

namespace
{

/** Compare final states; registers set in @p skip_mask are excluded. */
void
compareRegs(const std::string &what, CpuState a, CpuState b,
            uint32_t skip_mask, std::vector<std::string> &out)
{
    for (unsigned r = 0; r < NUM_REGS; ++r)
        if ((skip_mask >> r) & 1u)
            a.regs[r] = b.regs[r] = 0;
    diffFields(what, a, b, out, "final_state");
}

/** One Machine run with the timing checker attached. */
RunResult
checkedRun(Machine &machine, const CoreConfig &core,
           const std::string &label,
           std::vector<std::string> &out)
{
    TimingInvariantChecker checker(core);
    ObserverList observers;
    observers.add(&checker);
    RunResult result = machine.run(nullptr, &observers);
    if (!checker.ok())
        out.push_back(label + " timing: " + checker.summary());
    return result;
}

/** One config's oracle Machine kept alive for memory comparison. */
struct ConfigRun
{
    std::unique_ptr<Machine> machine;
    RunResult result;
};

/** Append a mismatch when two memory images differ. */
void
compareMem(const std::string &what, const Memory &a, const Memory &b,
           std::vector<std::string> &out)
{
    if (auto addr = a.firstDifference(b))
        out.push_back(detail::format("%s: memory differs at 0x%08x",
                                     what.c_str(), *addr));
}

/**
 * Architectural equality of two runs of one program: outcome, retired,
 * annulled and taken-branch counts, final state, I/O and memory —
 * what no fetch-path or L2 variation may change. (Trap text names the
 * config, so callers compare it where the configs match.)
 */
void
compareArch(const std::string &what, const RunResult &a,
            const Memory &ma, const RunResult &b, const Memory &mb,
            std::vector<std::string> &out)
{
    diffFields(what, a.outcome, b.outcome, out, "outcome");
    diffFields(what, a.instructions, b.instructions, out, "instructions");
    diffFields(what, a.annulled, b.annulled, out, "annulled");
    diffFields(what, a.takenBranches, b.takenBranches, out,
               "taken_branches");
    diffFields(what, a.finalState, b.finalState, out, "final_state");
    diffFields(what, a.io, b.io, out, "io");
    compareMem(what, ma, mb, out);
}

/**
 * Run @p fe on @p core on the interpreter oracle (the primary result)
 * and on the engine three ways, each required to agree with the
 * oracle on every RunResult row and the full memory image:
 *
 *  - with the timing checker attached, which forces the engine onto
 *    its exact per-op path;
 *  - with ZERO observers, the only run that exercises the batched
 *    superblock dispatch production sweeps use (this split once hid an
 *    I-cache access undercount on unpacked sub-word streams);
 *  - as a one-tile Chip stepped in (deliberately odd) quanta: for a
 *    single tile the quantum is unobservable and ChipConfig{tiles = 1}
 *    is contractually a Machine (sim/chip.hh), and Machine::run itself
 *    uses one unbounded step, so this is where quantum re-entry gets
 *    cross-checked.
 */
ConfigRun
runConfig(const FrontEnd &fe, const CoreConfig &core,
          const std::string &label, std::vector<std::string> &out)
{
    ConfigRun oracle;
    oracle.machine = std::make_unique<Machine>(fe, core, makeOracleTile);
    oracle.result =
        checkedRun(*oracle.machine, core, label + "[oracle]", out);

    // Nothing is excluded — the engine claims bit-exactness, so
    // cycles, toggle counts and even the trap text must match.
    Machine checked(fe, core);
    RunResult rc = checkedRun(checked, core, label, out);
    diffFields(label + " oracle vs engine", oracle.result, rc, out);
    compareMem(label + " oracle vs engine", oracle.machine->mem(),
               checked.mem(), out);

    Machine bare(fe, core);
    RunResult rb = bare.run();
    diffFields(label + " oracle vs engine[bare]", oracle.result, rb, out);
    compareMem(label + " oracle vs engine[bare]", oracle.machine->mem(),
               bare.mem(), out);

    ChipConfig chip_cfg;
    chip_cfg.quantum = 4099;
    std::vector<Chip::TileSpec> specs(1, Chip::TileSpec{&fe, core});
    Chip chip(specs, chip_cfg);
    ChipResult cres = chip.run();
    diffFields(label + " oracle vs chip1", oracle.result,
               cres.tiles.front(), out);
    compareMem(label + " oracle vs chip1", oracle.machine->mem(),
               chip.tileMem(0), out);
    return oracle;
}

/**
 * Run @p check over the MiBench kernels (when @p with_kernels) plus
 * @p count seeded random programs from @p seed, fanned out over the
 * thread pool with deterministic result order; @p progress gets one
 * line per failure and a "<label>: ..." tally ending in @p detail.
 */
template <class Check>
DiffSummary
runSweep(const char *label, const std::string &detail, bool with_kernels,
         unsigned count, uint64_t seed, unsigned jobs,
         std::ostream *progress, Check check)
{
    const auto &kernels = mibench::suite();
    const size_t num_kernels = with_kernels ? kernels.size() : 0;
    const size_t total = num_kernels + count;

    std::unique_ptr<ThreadPool> own;
    if (jobs)
        own = std::make_unique<ThreadPool>(jobs);
    ThreadPool &pool = own ? *own : ThreadPool::shared();

    std::vector<DiffReport> reports =
        parallelMap<DiffReport>(pool, total, [&](size_t i) {
            if (i < num_kernels) {
                mibench::Workload wl = kernels[i].build();
                return check(wl.program, uint64_t{0}, &wl.expected);
            }
            const uint64_t s = seed + static_cast<uint64_t>(i - num_kernels);
            return check(randomVerifyProgram(s), s,
                         static_cast<const uint32_t *>(nullptr));
        });

    DiffSummary summary;
    summary.programsRun = static_cast<unsigned>(total);
    for (DiffReport &rep : reports)
        if (!rep.ok())
            summary.failed.push_back(std::move(rep));

    if (progress) {
        for (const DiffReport &rep : summary.failed)
            *progress << "FAIL " << rep.describe() << "\n";
        *progress << label << ": " << summary.programsRun << " programs ("
                  << num_kernels << " kernels, " << count
                  << " random, base seed " << seed << ", " << detail
                  << "), " << summary.failed.size() << " failure(s)\n";
    }
    return summary;
}

/** The round-robin quanta every chip-sweep program runs at. */
constexpr uint64_t kChipDiffQuanta[] = {7, 1009, 10'000};

/**
 * Run @p prog as every tile of an N-tile chip at each of
 * kChipDiffQuanta and as one independent single-core Machine, and
 * cross-check (see runChipDifferentialSuite).
 */
DiffReport
chipDiffProgram(const Program &prog, uint64_t seed, unsigned tiles)
{
    DiffReport rep;
    rep.program = prog.name;
    rep.seed = seed;
    auto &out = rep.mismatches;

    ArmFrontEnd arm(prog);
    CoreConfig core;

    // The reference: one independent single-core run. N independent
    // runs of the same deterministic Machine are all equal to this
    // one, so every tile compares against it.
    Machine solo(arm, core);
    RunResult rs = solo.run();
    rep.armInstructions = rs.instructions;

    ChipConfig cfg;
    cfg.tiles = tiles;
    cfg.sharedL2 = true;
    // A small L2 on purpose: capacity back-invalidation (an L2 victim
    // recalling tiles' L1 lines, including the running tile's own
    // I-lines) is a path under test, as are the quantum boundaries.
    cfg.l2.sizeBytes = 32 * 1024;
    const std::vector<Chip::TileSpec> specs(tiles,
                                            Chip::TileSpec{&arm, core});
    for (uint64_t quantum : kChipDiffQuanta) {
        cfg.quantum = quantum;
        const std::string q = detail::format(
            "q%llu ", static_cast<unsigned long long>(quantum));

        // The engine chip against the oracle chip: exact, stats
        // included, plus both chips' coherence invariants.
        const ChipDiff diff = diffChipAgainstOracle(specs, cfg);
        for (const std::string &m : diff.mismatches)
            out.push_back(q + m);

        for (unsigned t = 0; t < tiles; ++t) {
            // Architectural equality only: shared-L2 penalties change
            // the timing and back-invalidations change the L1 miss
            // counts, so cycles and cache stats legitimately differ
            // from solo.
            const std::string what =
                q + detail::format("solo vs tile%u", t);
            const RunResult &rt = diff.result.tiles[t];
            compareArch(what, rs, solo.mem(), rt,
                        diff.engine->tileMem(t), out);
            diffFields(what, rs.trapReason, rt.trapReason, out,
                       "trap_reason");
        }
    }
    return rep;
}

} // namespace

std::string
DiffReport::describe() const
{
    std::string s = detail::format(
        "%s (seed %llu): %zu mismatch(es)", program.c_str(),
        static_cast<unsigned long long>(seed), mismatches.size());
    for (const std::string &m : mismatches) {
        s += "\n  ";
        s += m;
    }
    return s;
}

DiffReport
diffProgram(const Program &prog, uint64_t seed,
            const uint32_t *expected)
{
    DiffReport rep;
    rep.program = prog.name;
    rep.seed = seed;
    auto &out = rep.mismatches;

    ArmFrontEnd arm(prog);

    // 1. The golden reference interpreter.
    GoldenInterpreter golden(arm);
    GoldenResult g = golden.run();

    if (expected) {
        if (g.io.emitted.empty())
            out.push_back("golden: no emitted checksum word");
        else if (g.io.emitted.back() != *expected)
            out.push_back(detail::format(
                "golden: checksum 0x%08x != C++ reference 0x%08x",
                g.io.emitted.back(), *expected));
    }

    // 2. The timing Machine on the fixed ARM decoder (every config
    // here cross-executes the engine against the oracle in runConfig).
    CoreConfig arm_core;
    ConfigRun arm_run = runConfig(arm, arm_core, "arm32", out);
    Machine &arm_machine = *arm_run.machine;
    RunResult &ra = arm_run.result;
    rep.armInstructions = ra.instructions;

    if (g.outcome != ra.outcome)
        out.push_back(detail::format(
            "golden vs arm32: outcome %s vs %s (%s)",
            runOutcomeName(g.outcome), runOutcomeName(ra.outcome),
            (g.trapReason + " / " + ra.trapReason).c_str()));
    compareRegs("golden vs arm32", g.finalState, ra.finalState, 0,
                out);
    diffFields("golden vs arm32", g.io, ra.io, out);
    if (g.retired != ra.instructions)
        out.push_back(detail::format(
            "golden vs arm32: retired %llu vs %llu",
            static_cast<unsigned long long>(g.retired),
            static_cast<unsigned long long>(ra.instructions)));
    if (g.annulled != ra.annulled)
        out.push_back(detail::format(
            "golden vs arm32: annulled %llu vs %llu",
            static_cast<unsigned long long>(g.annulled),
            static_cast<unsigned long long>(ra.annulled)));
    if (auto addr = golden.mem().firstDifference(arm_machine.mem()))
        out.push_back(detail::format(
            "golden vs arm32: memory differs at 0x%08x", *addr));

    // 3. The same decoder with the packed-fetch buffer: a pure
    // fetch-path variation that must be architecturally invisible.
    CoreConfig packed_core;
    packed_core.name = "packed";
    packed_core.packedFetch = true;
    ConfigRun packed_run = runConfig(arm, packed_core, "packed", out);
    const RunResult &rp = packed_run.result;

    compareArch("arm32 vs packed", ra, arm_run.machine->mem(), rp,
                packed_run.machine->mem(), out);

    // 4. The synthesized 16-bit ISA on the programmable decoder.
    try {
        ProfileInfo profile = profileProgram(prog);
        // The profiler's functional pass runs the engine's handlers
        // by superblock: it must retire exactly what the timing run
        // did, annulled ops included, and its per-op counts must add
        // up to that total.
        if (ra.outcome == RunOutcome::Completed) {
            if (profile.totalDynamic != ra.instructions)
                out.push_back(detail::format(
                    "profile vs arm32: total dynamic %llu vs retired %llu",
                    static_cast<unsigned long long>(profile.totalDynamic),
                    static_cast<unsigned long long>(ra.instructions)));
            const uint64_t sum =
                std::accumulate(profile.dynCounts.begin(),
                                profile.dynCounts.end(), uint64_t{0});
            if (sum != profile.totalDynamic)
                out.push_back(detail::format(
                    "profile: dynamic counts sum to %llu, total %llu",
                    static_cast<unsigned long long>(sum),
                    static_cast<unsigned long long>(profile.totalDynamic)));
        }
        FitsIsa isa = synthesize(profile, SynthParams{}, prog.name);
        FitsProgram fits_prog = translateProgram(prog, isa, profile);
        FitsFrontEnd fits(std::move(fits_prog));

        CoreConfig fits_core;
        fits_core.name = "fits16";
        ConfigRun fits_run = runConfig(fits, fits_core, "fits16", out);
        Machine &fits_machine = *fits_run.machine;
        RunResult &rf = fits_run.result;
        rep.fitsInstructions = rf.instructions;

        if (ra.outcome != rf.outcome) {
            out.push_back(detail::format(
                "arm32 vs fits16: outcome %s vs %s (%s)",
                runOutcomeName(ra.outcome),
                runOutcomeName(rf.outcome), rf.trapReason.c_str()));
        } else if (ra.outcome == RunOutcome::Completed) {
            // r12 is the synthesis scratch; lr holds stream-specific
            // return addresses. Everything else must agree.
            compareRegs("arm32 vs fits16", ra.finalState,
                        rf.finalState, (1u << R12) | (1u << LR), out);
            diffFields("arm32 vs fits16", ra.io, rf.io, out);
            // The stack holds pushed code addresses, which
            // legitimately differ; the declared data segments must
            // not.
            for (const DataSegment &seg : prog.data) {
                bool differed = false;
                for (uint32_t i = 0;
                     i < static_cast<uint32_t>(seg.bytes.size());
                     ++i) {
                    uint32_t addr = seg.base + i;
                    uint8_t va = arm_machine.mem().read8(addr);
                    uint8_t vf = fits_machine.mem().read8(addr);
                    if (va != vf) {
                        out.push_back(detail::format(
                            "arm32 vs fits16: data segment '%s' "
                            "differs at 0x%08x (0x%02x vs 0x%02x)",
                            seg.name.c_str(), addr, va, vf));
                        differed = true;
                        break;
                    }
                }
                if (differed)
                    break;
            }
            // Translation expands 1-to-n and merges MOVW/MOVT pairs;
            // the dynamic count can move either way but only within
            // the translator's bounded expansion factor.
            if (rf.instructions == 0 ||
                rf.instructions < ra.instructions / 4 ||
                rf.instructions > ra.instructions * 8)
                out.push_back(detail::format(
                    "arm32 vs fits16: implausible retired count %llu "
                    "vs %llu",
                    static_cast<unsigned long long>(ra.instructions),
                    static_cast<unsigned long long>(
                        rf.instructions)));
        }
    } catch (const FatalError &e) {
        out.push_back(std::string("fits16: pipeline failed: ") +
                      e.what());
    }

    return rep;
}

DiffSummary
runDifferentialSuite(const DiffOptions &opts, std::ostream *progress)
{
    return runSweep("differential", "engine vs oracle", opts.kernels,
                    opts.count, opts.seed, opts.jobs, progress,
                    [](const Program &prog, uint64_t seed,
                       const uint32_t *expected) {
                        return diffProgram(prog, seed, expected);
                    });
}

DiffSummary
runChipDifferentialSuite(const ChipDiffOptions &opts,
                         std::ostream *progress)
{
    return runSweep(
        "chip differential",
        detail::format("%u tiles, quanta 7/1009/10000", opts.tiles),
        opts.kernels, opts.count, opts.seed, opts.jobs, progress,
        [&](const Program &prog, uint64_t seed, const uint32_t *) {
            return chipDiffProgram(prog, seed, opts.tiles);
        });
}

ChipDiff
diffChipAgainstOracle(const std::vector<Chip::TileSpec> &specs,
                      const ChipConfig &config)
{
    ChipDiff diff;
    diff.engine = std::make_unique<Chip>(specs, config);
    diff.result = diff.engine->run();
    Chip &engine = *diff.engine;
    const ChipResult &re = diff.result;
    std::vector<std::string> &out = diff.mismatches;
    Chip oracle(specs, config, makeOracleTile);
    const ChipResult ro = oracle.run();
    const std::string what = "oracle vs engine chip";
    diffFields(what, ro.tiles, re.tiles, out, "tiles");
    diffFields(what, ro.l2, re.l2, out, "l2");
    diffFields(what, ro.coherence, re.coherence, out, "coherence");
    diffFields(what, ro.chipCycles, re.chipCycles, out, "chip_cycles");
    for (unsigned t = 0; t < config.tiles; ++t)
        compareMem(detail::format("%s tile%u", what.c_str(), t),
                   oracle.tileMem(t), engine.tileMem(t), out);
    for (Chip *chip : {&oracle, &engine}) {
        const std::string inv = chip->checkCoherence();
        if (!inv.empty())
            out.push_back(std::string(chip == &oracle ? "oracle"
                                                      : "engine") +
                          " chip coherence invariants: " + inv);
    }
    return diff;
}

std::vector<std::string>
runTimingInvariantSweep(unsigned jobs, std::ostream *progress)
{
    const auto &kernels = mibench::suite();

    struct Loop
    {
        const char *name;
        TileFactory factory;
    };
    const Loop loops[] = {{"engine", {}}, {"oracle", makeOracleTile}};

    std::unique_ptr<ThreadPool> own;
    if (jobs)
        own = std::make_unique<ThreadPool>(jobs);
    ThreadPool &pool = own ? *own : ThreadPool::shared();

    auto per_bench = parallelMap<std::vector<std::string>>(
        pool, kernels.size(), [&](size_t i) {
            std::vector<std::string> fails;
            mibench::Workload wl = kernels[i].build();

            ArmFrontEnd arm(wl.program);
            ProfileInfo profile = profileProgram(wl.program);
            FitsIsa isa =
                synthesize(profile, SynthParams{}, wl.program.name);
            FitsProgram fits_prog =
                translateProgram(wl.program, isa, profile);
            FitsFrontEnd fits(std::move(fits_prog));

            for (ConfigId id : kAllConfigs) {
                for (const Loop &loop : loops) {
                    CoreConfig core = paperCoreConfig(id);
                    const bool is_fits = id == ConfigId::FITS16 ||
                                         id == ConfigId::FITS8;
                    const FrontEnd &fe =
                        is_fits ? static_cast<const FrontEnd &>(fits)
                                : static_cast<const FrontEnd &>(arm);
                    Machine machine(fe, core, loop.factory);
                    TimingInvariantChecker checker(core);
                    ObserverList observers;
                    observers.add(&checker);
                    RunResult rr = machine.run(nullptr, &observers);
                    if (rr.outcome != RunOutcome::Completed)
                        fails.push_back(detail::format(
                            "%s/%s[%s]: run ended %s (%s)",
                            wl.program.name.c_str(), configName(id),
                            loop.name, runOutcomeName(rr.outcome),
                            rr.trapReason.c_str()));
                    if (!checker.ok())
                        fails.push_back(detail::format(
                            "%s/%s[%s]: %s", wl.program.name.c_str(),
                            configName(id), loop.name,
                            checker.summary().c_str()));
                }
            }
            return fails;
        });

    std::vector<std::string> failures;
    for (auto &fails : per_bench)
        failures.insert(failures.end(),
                        std::make_move_iterator(fails.begin()),
                        std::make_move_iterator(fails.end()));

    if (progress) {
        for (const std::string &f : failures)
            *progress << "FAIL " << f << "\n";
        *progress << "timing invariants: " << kernels.size()
                  << " benchmarks x 4 configs x engine+oracle, "
                  << failures.size()
                  << " failure(s)\n";
    }
    return failures;
}

} // namespace pfits
