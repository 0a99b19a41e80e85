#include "verify/differential.hh"

#include <algorithm>
#include <iterator>
#include <memory>

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

/** The paper's core for @p id (mirrors Runner::coreConfig). */
CoreConfig
paperCoreConfig(ConfigId id)
{
    CoreConfig core;
    core.name = configName(id);
    core.icache.sizeBytes =
        (id == ConfigId::ARM8 || id == ConfigId::FITS8) ? 8 * 1024
                                                        : 16 * 1024;
    return core;
}

/** Compare register files; bits set in @p skip_mask are excluded. */
void
compareRegs(const std::string &what, const CpuState &a,
            const CpuState &b, uint32_t skip_mask,
            std::vector<std::string> &out)
{
    for (unsigned r = 0; r < NUM_REGS; ++r) {
        if ((skip_mask >> r) & 1u)
            continue;
        if (a.regs[r] != b.regs[r])
            out.push_back(detail::format(
                "%s: r%u 0x%08x vs 0x%08x", what.c_str(), r,
                a.regs[r], b.regs[r]));
    }
    if (a.flags.n != b.flags.n || a.flags.z != b.flags.z ||
        a.flags.c != b.flags.c || a.flags.v != b.flags.v)
        out.push_back(detail::format(
            "%s: NZCV %d%d%d%d vs %d%d%d%d", what.c_str(), a.flags.n,
            a.flags.z, a.flags.c, a.flags.v, b.flags.n, b.flags.z,
            b.flags.c, b.flags.v));
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

/** One config's Machine kept alive for memory-image comparison. */
struct BackendRun
{
    std::unique_ptr<Machine> machine;
    RunResult result;
};

/**
 * Run @p fe on @p core under @p mode. Both runs interp as the primary
 * result, then the fast backend on an identical config, and requires
 * the two runs to agree on every RunResult field and the full memory
 * image; Interp/Fast run only that loop (the primary).
 */
BackendRun
runConfig(const FrontEnd &fe, CoreConfig core, const std::string &label,
          DiffBackend mode, std::vector<std::string> &out)
{
    if (mode == DiffBackend::Fast)
        core.backend = SimBackend::Fast;
    BackendRun primary;
    primary.machine = std::make_unique<Machine>(fe, core);
    primary.result =
        checkedRun(*primary.machine, core,
                   mode == DiffBackend::Fast ? label + "[fast]" : label,
                   out);

    if (mode == DiffBackend::Both) {
        CoreConfig fast_core = core;
        fast_core.backend = SimBackend::Fast;
        Machine fast_machine(fe, fast_core);
        RunResult rf = checkedRun(fast_machine, fast_core,
                                  label + "[fast]", out);
        // The interp-vs-fast contract: every RunResult row equal.
        // Nothing is excluded — the fast backend claims bit-exactness,
        // so cycles, toggle counts and even the trap text must match.
        diffFields(label + " interp vs fast", primary.result, rf, out);
        if (auto addr = primary.machine->mem().firstDifference(
                fast_machine.mem()))
            out.push_back(detail::format(
                "%s interp vs fast: memory differs at 0x%08x",
                label.c_str(), *addr));

        // Again with ZERO observers: attaching the checker forces the
        // fast loop onto its exact per-op path, so only a bare run
        // exercises the batched dispatch the production sweeps use.
        // (This split once hid an I-cache access undercount on
        // unpacked sub-word streams.)
        Machine bare_machine(fe, fast_core);
        RunResult rb = bare_machine.run();
        diffFields(label + " interp vs fast[bare]", primary.result, rb,
                   out);
        if (auto addr = primary.machine->mem().firstDifference(
                bare_machine.mem()))
            out.push_back(detail::format(
                "%s interp vs fast[bare]: memory differs at 0x%08x",
                label.c_str(), *addr));

        // And the one-tile Chip: the round-robin loop stepping this
        // same core in (deliberately odd) quanta must reproduce the
        // unbounded interp run bit for bit — for a single tile the
        // quantum is unobservable and ChipConfig{tiles = 1} is
        // contractually a Machine (sim/chip.hh). Machine::run's own
        // delegation uses ONE unbounded Tile::step call, so this is
        // the only place quantum re-entry itself gets cross-checked.
        ChipConfig chip_cfg;
        chip_cfg.quantum = 4099;
        std::vector<Chip::TileSpec> specs(1, Chip::TileSpec{&fe, core});
        Chip chip(specs, chip_cfg);
        ChipResult cres = chip.run();
        diffFields(label + " interp vs chip1", primary.result,
                   cres.tiles.front(), out);
        if (auto addr = primary.machine->mem().firstDifference(
                chip.tileMem(0)))
            out.push_back(detail::format(
                "%s interp vs chip1: memory differs at 0x%08x",
                label.c_str(), *addr));
    }
    return primary;
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
            const uint32_t *expected, DiffBackend backend)
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

    // 2. The timing Machine on the fixed ARM decoder (under Both,
    // every Machine config here also cross-executes the fast backend
    // against interp inside runConfig).
    CoreConfig arm_core;
    BackendRun arm_run = runConfig(arm, arm_core, "arm32", backend, out);
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
    BackendRun packed_run =
        runConfig(arm, packed_core, "packed", backend, out);
    Machine &packed_machine = *packed_run.machine;
    RunResult &rp = packed_run.result;

    if (ra.outcome != rp.outcome)
        out.push_back(detail::format(
            "arm32 vs packed: outcome %s vs %s",
            runOutcomeName(ra.outcome), runOutcomeName(rp.outcome)));
    compareRegs("arm32 vs packed", ra.finalState, rp.finalState, 0,
                out);
    diffFields("arm32 vs packed", ra.io, rp.io, out);
    if (ra.instructions != rp.instructions ||
        ra.annulled != rp.annulled)
        out.push_back(detail::format(
            "arm32 vs packed: retired %llu/%llu vs %llu/%llu",
            static_cast<unsigned long long>(ra.instructions),
            static_cast<unsigned long long>(ra.annulled),
            static_cast<unsigned long long>(rp.instructions),
            static_cast<unsigned long long>(rp.annulled)));
    if (auto addr =
            arm_machine.mem().firstDifference(packed_machine.mem()))
        out.push_back(detail::format(
            "arm32 vs packed: memory differs at 0x%08x", *addr));

    // 4. The synthesized 16-bit ISA on the programmable decoder.
    try {
        ProfileInfo profile = profileProgram(prog);
        FitsIsa isa = synthesize(profile, SynthParams{}, prog.name);
        FitsProgram fits_prog = translateProgram(prog, isa, profile);
        FitsFrontEnd fits(std::move(fits_prog));

        CoreConfig fits_core;
        fits_core.name = "fits16";
        BackendRun fits_run =
            runConfig(fits, fits_core, "fits16", backend, out);
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
    const auto &kernels = mibench::suite();
    const size_t num_kernels = opts.kernels ? kernels.size() : 0;
    const size_t total = num_kernels + opts.count;

    std::unique_ptr<ThreadPool> own;
    if (opts.jobs)
        own = std::make_unique<ThreadPool>(opts.jobs);
    ThreadPool &pool = own ? *own : ThreadPool::shared();

    std::vector<DiffReport> reports =
        parallelMap<DiffReport>(pool, total, [&](size_t i) {
            if (i < num_kernels) {
                mibench::Workload wl = kernels[i].build();
                return diffProgram(wl.program, 0, &wl.expected,
                                   opts.backend);
            }
            uint64_t seed =
                opts.seed + static_cast<uint64_t>(i - num_kernels);
            return diffProgram(randomVerifyProgram(seed), seed,
                               nullptr, opts.backend);
        });

    DiffSummary summary;
    summary.programsRun = static_cast<unsigned>(total);
    for (DiffReport &rep : reports)
        if (!rep.ok())
            summary.failed.push_back(std::move(rep));

    if (progress) {
        for (const DiffReport &rep : summary.failed)
            *progress << "FAIL " << rep.describe() << "\n";
        const char *mode =
            opts.backend == DiffBackend::Both
                ? "interp+fast"
                : opts.backend == DiffBackend::Fast ? "fast"
                                                    : "interp";
        *progress << "differential: " << summary.programsRun
                  << " programs (" << num_kernels << " kernels, "
                  << opts.count << " random, base seed " << opts.seed
                  << ", backend " << mode << "), "
                  << summary.failed.size() << " failure(s)\n";
    }
    return summary;
}

namespace
{

/**
 * Run @p prog as every tile of an N-tile chip and as one independent
 * single-core Machine, and cross-check (see runChipDifferentialSuite).
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
    // Small L2 and odd quantum on purpose: capacity back-invalidation
    // (an L2 victim recalling tiles' L1 lines, including the running
    // tile's own I-lines) and misaligned quantum boundaries are
    // exactly the paths under test.
    cfg.l2.sizeBytes = 32 * 1024;
    cfg.quantum = 1009;
    std::vector<Chip::TileSpec> specs(tiles,
                                      Chip::TileSpec{&arm, core});
    Chip chip(specs, cfg);
    ChipResult cres = chip.run();

    for (unsigned t = 0; t < tiles; ++t) {
        const RunResult &rt = cres.tiles[t];
        const std::string what = detail::format("solo vs tile%u", t);
        // Architectural equality only: shared-L2 penalties change the
        // timing and back-invalidations change the L1 miss counts, so
        // cycles and cache stats legitimately differ from solo.
        if (rs.outcome != rt.outcome)
            out.push_back(detail::format(
                "%s: outcome %s vs %s (%s)", what.c_str(),
                runOutcomeName(rs.outcome), runOutcomeName(rt.outcome),
                rt.trapReason.c_str()));
        if (rs.trapReason != rt.trapReason)
            out.push_back(detail::format(
                "%s: trap reason '%s' vs '%s'", what.c_str(),
                rs.trapReason.c_str(), rt.trapReason.c_str()));
        if (rs.instructions != rt.instructions ||
            rs.annulled != rt.annulled)
            out.push_back(detail::format(
                "%s: retired %llu/%llu vs %llu/%llu", what.c_str(),
                static_cast<unsigned long long>(rs.instructions),
                static_cast<unsigned long long>(rs.annulled),
                static_cast<unsigned long long>(rt.instructions),
                static_cast<unsigned long long>(rt.annulled)));
        if (rs.takenBranches != rt.takenBranches)
            out.push_back(detail::format(
                "%s: taken branches %llu vs %llu", what.c_str(),
                static_cast<unsigned long long>(rs.takenBranches),
                static_cast<unsigned long long>(rt.takenBranches)));
        compareRegs(what, rs.finalState, rt.finalState, 0, out);
        diffFields(what, rs.io, rt.io, out);
        if (auto addr = solo.mem().firstDifference(chip.tileMem(t)))
            out.push_back(detail::format(
                "%s: memory differs at 0x%08x", what.c_str(), *addr));
    }

    const std::string inv = chip.checkCoherence();
    if (!inv.empty())
        out.push_back("coherence invariants: " + inv);
    return rep;
}

} // namespace

DiffSummary
runChipDifferentialSuite(const ChipDiffOptions &opts,
                         std::ostream *progress)
{
    const auto &kernels = mibench::suite();
    const size_t num_kernels = opts.kernels ? kernels.size() : 0;
    const size_t total = num_kernels + opts.count;

    std::unique_ptr<ThreadPool> own;
    if (opts.jobs)
        own = std::make_unique<ThreadPool>(opts.jobs);
    ThreadPool &pool = own ? *own : ThreadPool::shared();

    std::vector<DiffReport> reports =
        parallelMap<DiffReport>(pool, total, [&](size_t i) {
            if (i < num_kernels) {
                mibench::Workload wl = kernels[i].build();
                return chipDiffProgram(wl.program, 0, opts.tiles);
            }
            uint64_t seed =
                opts.seed + static_cast<uint64_t>(i - num_kernels);
            return chipDiffProgram(randomVerifyProgram(seed), seed,
                                   opts.tiles);
        });

    DiffSummary summary;
    summary.programsRun = static_cast<unsigned>(total);
    for (DiffReport &rep : reports)
        if (!rep.ok())
            summary.failed.push_back(std::move(rep));

    if (progress) {
        for (const DiffReport &rep : summary.failed)
            *progress << "FAIL " << rep.describe() << "\n";
        *progress << "chip differential: " << summary.programsRun
                  << " programs (" << num_kernels << " kernels, "
                  << opts.count << " random, base seed " << opts.seed
                  << ", " << opts.tiles << " tiles), "
                  << summary.failed.size() << " failure(s)\n";
    }
    return summary;
}

std::vector<std::string>
runTimingInvariantSweep(unsigned jobs, std::ostream *progress,
                        DiffBackend backend)
{
    const auto &kernels = mibench::suite();

    std::vector<SimBackend> loops;
    if (backend != DiffBackend::Fast)
        loops.push_back(SimBackend::Interp);
    if (backend != DiffBackend::Interp)
        loops.push_back(SimBackend::Fast);

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
                for (SimBackend loop : loops) {
                    CoreConfig core = paperCoreConfig(id);
                    core.backend = loop;
                    const bool is_fits = id == ConfigId::FITS16 ||
                                         id == ConfigId::FITS8;
                    const FrontEnd &fe =
                        is_fits ? static_cast<const FrontEnd &>(fits)
                                : static_cast<const FrontEnd &>(arm);
                    Machine machine(fe, core);
                    TimingInvariantChecker checker(core);
                    ObserverList observers;
                    observers.add(&checker);
                    RunResult rr = machine.run(nullptr, &observers);
                    if (rr.outcome != RunOutcome::Completed)
                        fails.push_back(detail::format(
                            "%s/%s[%s]: run ended %s (%s)",
                            wl.program.name.c_str(), configName(id),
                            simBackendName(loop),
                            runOutcomeName(rr.outcome),
                            rr.trapReason.c_str()));
                    if (!checker.ok())
                        fails.push_back(detail::format(
                            "%s/%s[%s]: %s", wl.program.name.c_str(),
                            configName(id), simBackendName(loop),
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
                  << " benchmarks x 4 configs x " << loops.size()
                  << " backend(s), " << failures.size()
                  << " failure(s)\n";
    }
    return failures;
}

} // namespace pfits
