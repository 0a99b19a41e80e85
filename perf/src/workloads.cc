/**
 * @file
 * The four workloads. Each stresses a different layer of the FITS
 * experiment pipeline (README.md, "Workloads"):
 *
 *   paper_cold   the paper's 21 x 4 sweep and its 12 tables, cold
 *   isa_explore  prepare-only synthesis sweep; the engine is idle
 *   chip_scale   2/4/8-tile chips through Runner::get's 4-wide fan-out
 *   store_warm   the paper sweep answered from a warm pfitsd store
 */

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

#include <unistd.h>

#include "common/rng.hh"
#include "common/table.hh"
#include "daemon.hh"
#include "exp/figures.hh"
#include "exp/simcache.hh"
#include "fits/fits_frontend.hh"
#include "fits/profile.hh"
#include "mibench/mibench.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "perf.hh"
#include "power/chip_power.hh"
#include "sim/chip.hh"
#include "svc/client.hh"
#include "thumb/thumb.hh"

using namespace pfits;

namespace perf
{

namespace
{

double
msSince(uint64_t t0)
{
    return static_cast<double>(monotonicNs() - t0) / 1e6;
}

bool
readFile(const std::string &path, std::string *out)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    std::ostringstream ss;
    ss << in.rdbuf();
    *out = ss.str();
    return true;
}

std::string
printed(const Table &table)
{
    std::ostringstream os;
    table.print(os);
    return os.str();
}

bool
isFits(ConfigId id)
{
    return id == ConfigId::FITS16 || id == ConfigId::FITS8;
}

/** Count one simulation's outcome and fold it into @p out. */
void
addSimulation(RepResult &out, const std::string &bench, ConfigId id,
              const ConfigResult &cfg)
{
    ++out.ops;
    ++out.requests;
    if (cfg.run.outcome != RunOutcome::Completed || !cfg.checksumOk)
        out.fail(bench + "/" + configName(id) + ": run ended " +
                 runOutcomeName(cfg.run.outcome) +
                 (cfg.checksumOk ? "" : " with a wrong checksum"));
    out.itemDigests.push_back(
        simDigest(cfg.run, cfg.chipRun, cfg.icache, cfg.chip));
    out.guards.add(cfg.run, cfg.chipRun);
}

/** A failed rep: every operation it would have done counts as failed. */
void
failRep(RepResult &out, uint64_t ops, const std::string &why)
{
    out.ops += ops;
    out.failed += ops;
    out.errors.push_back(why);
}

/** The public layer calls of prepareBenchmark, each in its own span. */
struct ReplayPrep
{
    BenchResult statics; //!< the static fields prepareBenchmark fills
    std::unique_ptr<ArmFrontEnd> armFe;
    std::unique_ptr<FitsFrontEnd> fitsFe;

    const FrontEnd &
    frontEnd(ConfigId id) const
    {
        return isFits(id) ? static_cast<const FrontEnd &>(*fitsFe)
                          : static_cast<const FrontEnd &>(*armFe);
    }
};

ReplayPrep
replayPrepare(const std::string &bench, const SynthParams &synth,
              ReplayResult &acc)
{
    ReplayPrep prep;
    mibench::Workload workload;
    {
        TraceSpan span("mibench.build", "layer");
        workload = mibench::findBench(bench).build();
    }
    prep.statics.armBytes = workload.program.codeBytes();
    {
        TraceSpan span("thumb.estimate", "layer");
        prep.statics.thumbBytes = thumbEstimate(workload.program).codeBytes();
    }
    ProfileInfo profile;
    {
        TraceSpan span("fits.profile", "layer");
        profile = profileProgram(workload.program);
    }
    acc.profileInstr += profile.totalDynamic;
    FitsIsa isa;
    {
        TraceSpan span("fits.synth", "layer");
        isa = synthesize(profile, synth, bench);
    }
    FitsProgram fits;
    {
        TraceSpan span("fits.translate", "layer");
        fits = translateProgram(workload.program, isa, profile);
    }
    prep.statics.fitsBytes = fits.codeBytes();
    prep.statics.mapping = fits.mapping;
    prep.statics.isaSlots = isa.slots.size();
    prep.statics.regBits = isa.regBits;
    {
        TraceSpan span("sim.frontend", "layer");
        prep.armFe =
            std::make_unique<ArmFrontEnd>(std::move(workload.program));
        prep.fitsFe = std::make_unique<FitsFrontEnd>(std::move(fits));
    }
    return prep;
}

/** Price @p run exactly as Runner::simulateConfig does. */
void
replayPower(const ExperimentParams &params, const CoreConfig &core,
            const RunResult &run, CachePowerBreakdown *icache,
            ChipPowerBreakdown *chip, ReplayResult &acc)
{
    TraceSpan span("power.eval", "layer");
    TechParams tech = params.tech;
    tech.clockHz = core.clockHz;
    *icache = CachePowerModel(core.icache, tech).evaluate(run);
    *chip = ChipPowerModel(params.chip)
                .evaluate(run, *icache, core.dcache.lineBytes);
    acc.powerEvals += 2;
}

// ---------------------------------------------------------------------------
// paper_cold and store_warm: the paper's sweep and its 12 tables.

struct Figure
{
    Table (*build)(Runner &);
    const char *golden; //!< tests/golden/<golden>.txt
};

const Figure kFigures[] = {
    {fig3StaticMapping, "fig03_static_mapping"},
    {fig4DynamicMapping, "fig04_dynamic_mapping"},
    {fig5CodeSize, "fig05_code_size"},
    {fig6PowerBreakdown, "fig06_power_breakdown"},
    {fig7SwitchingSaving, "fig07_switching_power"},
    {fig8InternalSaving, "fig08_internal_power"},
    {fig9LeakageSaving, "fig09_leakage_power"},
    {fig10PeakSaving, "fig10_peak_power"},
    {fig11TotalCacheSaving, "fig11_total_cache_power"},
    {fig12ChipSaving, "fig12_chip_power"},
    {fig13MissRate, "fig13_miss_rate"},
    {fig14Ipc, "fig14_ipc"},
};

ExperimentParams
defaultParams()
{
    ExperimentParams params;
    params.jobs = benchJobs();
    return params;
}

/** SimCache::clear(), a new Runner, all() plus the 12 tables. */
RepResult
paperSweep()
{
    RepResult out;
    const size_t sims = mibench::suite().size() * 4;
    SimCache::instance().clear();
    try {
        Runner runner(defaultParams());
        std::vector<const BenchResult *> results = runner.all();
        for (const BenchResult *b : results)
            for (ConfigId id : kAllConfigs)
                addSimulation(out, b->name, id, b->of(id));
        const uint64_t t0 = monotonicNs();
        for (const Figure &fig : kFigures)
            out.tables.push_back(printed(fig.build(runner)));
        out.tablesMs = msSince(t0);
    } catch (const std::exception &e) {
        failRep(out, sims, std::string("paper sweep: ") + e.what());
    }
    out.freshSims = SimCache::instance().misses();
    return out;
}

/** Byte-compare each table with its golden snapshot's table part. */
std::string
checkGolden(const RepResult &rep)
{
    if (rep.tables.size() != std::size(kFigures))
        return "missing tables";
    for (size_t i = 0; i < rep.tables.size(); ++i) {
        const std::string path =
            std::string(kGoldenDir) + "/" + kFigures[i].golden + ".txt";
        std::string golden;
        if (!readFile(path, &golden))
            return "cannot read " + path;
        const std::string &got = rep.tables[i];
        // The snapshot is the printed table, a blank line, the paper's
        // note.
        if (golden.compare(0, got.size(), got) != 0 ||
            golden.compare(got.size(), 1, "\n") != 0)
            return std::string(kFigures[i].golden) +
                   " differs from " + path;
    }
    return "";
}

/** The layer replay of the paper sweep; @p svc replaces the engine. */
ReplayResult
replayPaper(SvcClient *svc)
{
    ReplayResult acc;
    ExperimentParams params;
    params.jobs = 1;
    const Runner configs(params); // for coreConfig() only
    for (const mibench::BenchInfo &info : mibench::suite()) {
        const std::string bench = info.name;
        ReplayPrep prep = replayPrepare(bench, params.synth, acc);
        for (ConfigId id : kAllConfigs) {
            const CoreConfig core = configs.coreConfig(id);
            SimResult sim;
            if (svc) {
                TraceSpan span("svc.client", "layer");
                SimRequest req;
                req.fe = &prep.frontEnd(id);
                req.core = &core;
                req.spec = params.observers;
                req.chip = params.chipSim;
                req.bench = bench;
                req.isFits = isFits(id);
                sim = svc->simulate(req);
            } else {
                TraceSpan span("sim.run", "layer");
                sim.run = Machine(prep.frontEnd(id), core).run();
                ++acc.simRuns;
                acc.simInstr += sim.run.instructions;
            }
            CachePowerBreakdown icache;
            ChipPowerBreakdown chip;
            replayPower(params, core, sim.run, &icache, &chip, acc);
            acc.itemDigests.push_back(
                simDigest(sim.run, sim.chip, icache, chip));
            acc.guards.add(sim.run, sim.chip);
        }
    }
    return acc;
}

class PaperCold final : public Workload
{
  public:
    const char *name() const override { return "paper_cold"; }

    void setUp() override { timed_ = std::make_unique<TimedService>(); }
    void tearDown() override { timed_.reset(); }

    RepResult rep() override { return paperSweep(); }

    std::string
    checkReference(const RepResult &rep) override
    {
        return checkGolden(rep);
    }

    ReplayResult replay() override { return replayPaper(nullptr); }

  private:
    std::unique_ptr<TimedService> timed_;
};

class StoreWarm final : public Workload
{
  public:
    ~StoreWarm() override { tearDown(); }

    const char *name() const override { return "store_warm"; }

    void
    setUp() override
    {
        // A fresh store every time: the set-up pays the spawn, the
        // recovery scan of an empty store and one cold populate sweep.
        dir_ = std::string(kTmpDir) + "/store_warm." +
               std::to_string(::getpid()) + "." + std::to_string(++setups_);
        std::filesystem::remove_all(dir_);
        const uint64_t t0 = monotonicNs();
        daemon_ = std::make_unique<Daemon>(dir_);
        std::string err;
        if (!daemon_->waitReady(20'000, &err))
            throw std::runtime_error(err);
        facts_.daemonStartMs = msSince(t0);

        SvcClientConfig cfg;
        cfg.socketPath = daemon_->socketPath();
        client_ = std::make_unique<SvcClient>(cfg);
        timed_ = std::make_unique<TimedService>(client_.get());

        const uint64_t t1 = monotonicNs();
        RepResult populate = paperSweep();
        facts_.populateMs = msSince(t1);
        if (populate.failed != 0)
            throw std::runtime_error("populate sweep failed: " +
                                     populate.errors.front());
        facts_.storeBytes = treeBytes(daemon_->storeDir());
    }

    void
    tearDown() override
    {
        timed_.reset();
        client_.reset();
        daemon_.reset();
        if (!dir_.empty())
            std::filesystem::remove_all(dir_);
        dir_.clear();
    }

    RepResult
    rep() override
    {
        RepResult out = paperSweep();
        // Every request must be a store hit; a fresh local simulation
        // is the client's silent fallback.
        if (out.freshSims != 0) {
            out.failed += out.freshSims;
            out.errors.push_back(std::to_string(out.freshSims) +
                                 " requests fell back to local simulation");
        }
        return out;
    }

    std::string
    checkReference(const RepResult &rep) override
    {
        return checkGolden(rep);
    }

    ReplayResult
    replay() override
    {
        SimCache::instance().clear();
        return replayPaper(client_.get());
    }

    double
    daemonCpuSeconds() const override
    {
        return daemon_ ? daemon_->cpuSeconds() : 0;
    }

    SetupFacts setupFacts() const override { return facts_; }

  private:
    unsigned setups_ = 0;
    std::string dir_;
    std::unique_ptr<Daemon> daemon_;
    std::unique_ptr<SvcClient> client_;
    std::unique_ptr<TimedService> timed_;
    SetupFacts facts_;
};

// ---------------------------------------------------------------------------
// Workloads whose inputs come from the seed; their outputs are checked
// against perf/expected/<workload>.seed<N>.txt where one is committed.

/** Expected-file check shared by the seeded workloads. */
std::string
checkExpected(const Workload &wl, uint64_t seed, const RepResult &rep)
{
    const std::string path = std::string(kExpectedDir) + "/" + wl.name() +
                             ".seed" + std::to_string(seed) + ".txt";
    std::string want;
    if (!readFile(path, &want)) {
        // Seeds 1 and 2 are the committed references; any other seed
        // is checked for self-consistency only.
        return seed <= 2 ? "cannot read " + path : "";
    }
    return wl.expectedText(rep) == want ? "" : "output differs from " + path;
}

std::string
expectedBody(const RepResult &rep)
{
    Digest d;
    for (uint64_t item : rep.itemDigests)
        d.u64(item);
    std::string out;
    for (const std::string &t : rep.tables)
        out += t;
    return out + "digest " + hex64(d.value()) + "\n";
}

/** One synthesis point of the isa_explore grid. */
struct SynthPoint
{
    unsigned maxSlots;
    unsigned opDict;
};

/** Digest of one prepare: sizes, mapping, ISA shape, program hashes. */
uint64_t
staticDigest(const BenchResult &r, const FrontEnd &arm, const FrontEnd &fits)
{
    const MappingStats &m = r.mapping;
    Digest d;
    d.u64(r.armBytes).u64(r.thumbBytes).u64(r.fitsBytes);
    d.u64(m.staticTotal).u64(m.staticMapped).u64(m.dynTotal);
    d.u64(m.dynMapped).u64(m.fitsInstructions);
    d.u64(r.isaSlots).u64(r.regBits);
    d.u64(hashFrontEnd(arm)).u64(hashFrontEnd(fits));
    return d.value();
}

class IsaExplore final : public Workload
{
  public:
    explicit IsaExplore(uint64_t seed) : seed_(seed)
    {
        // The seed draws 12 of the 25 points maxSlots x opDictCapacity;
        // the profile, nearly all of the work, does not depend on them.
        std::vector<SynthPoint> grid;
        for (unsigned slots : {8u, 16u, 32u, 64u, 128u})
            for (unsigned dict : {1u, 4u, 16u, 64u, 128u})
                grid.push_back({slots, dict});
        Rng rng(seed * 0x9e3779b97f4a7c15ull + 0x15a);
        for (size_t i = grid.size() - 1; i > 0; --i)
            std::swap(grid[i], grid[rng.below(static_cast<uint32_t>(i + 1))]);
        points_.assign(grid.begin(), grid.begin() + 12);
        std::sort(points_.begin(), points_.end(),
                  [](const SynthPoint &a, const SynthPoint &b) {
                      return a.maxSlots != b.maxSlots
                                 ? a.maxSlots < b.maxSlots
                                 : a.opDict < b.opDict;
                  });
        for (const mibench::BenchInfo &info : mibench::suite())
            kernels_.emplace_back(info.name);
    }

    const char *name() const override { return "isa_explore"; }

    RepResult
    rep() override
    {
        const size_t n = points_.size() * kernels_.size();
        std::vector<std::unique_ptr<BenchResult>> results(n);
        RepResult out;
        out.itemDigests.resize(n);
        ThreadPool pool(benchJobs());
        std::vector<JobFailure> failures =
            pool.runCollect(n, [&](size_t i) {
                const uint64_t t0 = monotonicNs();
                PreparedBench prep = prepareBenchmark(
                    kernels_[i % kernels_.size()],
                    params(points_[i / kernels_.size()]));
                opLog().record(monotonicNs() - t0, 0);
                out.itemDigests[i] =
                    staticDigest(*prep.result, *prep.armFe, *prep.fitsFe);
                results[i] = std::move(prep.result);
            });
        out.ops = n;
        for (const JobFailure &f : failures)
            out.fail(kernels_[f.index % kernels_.size()] + ": " +
                     f.message);

        const uint64_t t0 = monotonicNs();
        Table table("isa_explore: static mapping and code size per "
                    "synthesis point (seed " +
                    std::to_string(seed_) + ")");
        table.setHeader({"maxSlots/opDict", "benchmark", "ARM B",
                         "Thumb B", "FITS B", "static map %",
                         "dyn map %", "slots", "reg bits"});
        for (size_t i = 0; i < n; ++i) {
            const SynthPoint &pt = points_[i / kernels_.size()];
            if (!results[i])
                continue; // failed above
            const BenchResult &r = *results[i];
            table.addRow({std::to_string(pt.maxSlots) + "/" +
                              std::to_string(pt.opDict),
                          kernels_[i % kernels_.size()],
                          std::to_string(r.armBytes),
                          std::to_string(r.thumbBytes),
                          std::to_string(r.fitsBytes),
                          formatDouble(100.0 * r.mapping.staticRate(), 1),
                          formatDouble(100.0 * r.mapping.dynRate(), 1),
                          std::to_string(r.isaSlots),
                          std::to_string(r.regBits)});
        }
        out.tables.push_back(printed(table));
        out.tablesMs = msSince(t0);
        return out;
    }

    std::string
    checkReference(const RepResult &rep) override
    {
        return checkExpected(*this, seed_, rep);
    }

    std::string
    expectedText(const RepResult &rep) const override
    {
        return expectedBody(rep);
    }

    ReplayResult
    replay() override
    {
        ReplayResult acc;
        for (const SynthPoint &pt : points_) {
            const ExperimentParams p = params(pt);
            for (const std::string &bench : kernels_) {
                ReplayPrep prep = replayPrepare(bench, p.synth, acc);
                acc.itemDigests.push_back(
                    staticDigest(prep.statics, *prep.armFe, *prep.fitsFe));
            }
        }
        return acc;
    }

  private:
    static ExperimentParams
    params(const SynthPoint &pt)
    {
        ExperimentParams p;
        p.synth.maxSlots = pt.maxSlots;
        p.synth.opDictCapacity = pt.opDict;
        return p;
    }

    uint64_t seed_;
    std::vector<SynthPoint> points_;
    std::vector<std::string> kernels_;
};

/**
 * chip_scale's kernel sets: 20 of the 21 kernels (all but dijkstra) in
 * five groups of four whose chip runs cost the same to within ~1%
 * (medians of six interleaved rounds on a 4-core x86 host), so the seed
 * changes which kernels run but not how much work a rep is.
 */
const std::vector<std::vector<std::string>> kChipGroups = {
    {"susan.edges", "adpcm.decode", "sha", "rijndael.decode"},
    {"gsm", "patricia", "crc32", "adpcm.encode"},
    {"bitcount", "fft", "qsort", "jpeg.encode"},
    {"rijndael.encode", "susan.corners", "fft.inverse", "blowfish.encode"},
    {"susan.smoothing", "jpeg.decode", "stringsearch", "blowfish.decode"},
};

constexpr unsigned kChipTiles[] = {2, 4, 8};

ChipConfig
chipConfig(unsigned tiles)
{
    ChipConfig chip;
    chip.tiles = tiles;
    chip.sharedL2 = true;
    return chip;
}

class ChipScale final : public Workload
{
  public:
    explicit ChipScale(uint64_t seed) : seed_(seed)
    {
        Rng rng(seed * 0x9e3779b97f4a7c15ull + 0xc41);
        kernels_ = kChipGroups[rng.below(
            static_cast<uint32_t>(kChipGroups.size()))];
    }

    const char *name() const override { return "chip_scale"; }

    void setUp() override { timed_ = std::make_unique<TimedService>(); }
    void tearDown() override { timed_.reset(); }

    RepResult
    rep() override
    {
        RepResult out;
        Table table("chip_scale: homogeneous chips over a shared MSI L2 "
                    "(seed " + std::to_string(seed_) + ")");
        table.setHeader({"tiles", "benchmark", "config", "chip cycles",
                         "instructions", "L2 acc", "L2 miss", "inval",
                         "back-inval", "chip mW"});
        SimCache::instance().clear();
        double table_ms = 0;
        for (unsigned tiles : kChipTiles) {
            ExperimentParams params = defaultParams();
            params.chipSim = chipConfig(tiles);
            Runner runner(params);
            for (const std::string &bench : kernels_) {
                try {
                    const BenchResult &b = runner.get(bench);
                    const uint64_t t0 = monotonicNs();
                    for (ConfigId id : kAllConfigs) {
                        const ConfigResult &cfg = b.of(id);
                        addSimulation(out, bench, id, cfg);
                        table.addRow(row(params, tiles, bench, id, cfg));
                    }
                    table_ms += msSince(t0);
                } catch (const std::exception &e) {
                    failRep(out, 4, bench + ": " + e.what());
                }
            }
        }
        out.freshSims = SimCache::instance().misses();
        out.tables.push_back(printed(table));
        out.tablesMs = table_ms;
        return out;
    }

    std::string
    checkReference(const RepResult &rep) override
    {
        return checkExpected(*this, seed_, rep);
    }

    std::string
    expectedText(const RepResult &rep) const override
    {
        return expectedBody(rep);
    }

    ReplayResult
    replay() override
    {
        ReplayResult acc;
        ExperimentParams params;
        params.jobs = 1;
        for (unsigned tiles : kChipTiles) {
            params.chipSim = chipConfig(tiles);
            const Runner configs(params); // for coreConfig() only
            for (const std::string &bench : kernels_) {
                ReplayPrep prep = replayPrepare(bench, params.synth, acc);
                for (ConfigId id : kAllConfigs) {
                    const CoreConfig core = configs.coreConfig(id);
                    ChipResult cres;
                    {
                        TraceSpan span("sim.chip_run", "layer");
                        // Chip::run traces every quantum and coherence
                        // event (~10^5 per rep); the replay needs only
                        // the call's span, so it runs untraced.
                        TraceRecorder *rec = TraceRecorder::install(nullptr);
                        std::vector<Chip::TileSpec> specs(
                            tiles, Chip::TileSpec{&prep.frontEnd(id), core});
                        cres = Chip(specs, params.chipSim).run();
                        TraceRecorder::install(rec);
                    }
                    ChipRunStats stats;
                    stats.chipCycles = cres.chipCycles;
                    stats.l2 = cres.l2;
                    stats.coherence = cres.coherence;
                    for (const RunResult &rr : cres.tiles) {
                        stats.tileCycles.push_back(rr.cycles);
                        stats.tileInstructions.push_back(rr.instructions);
                    }
                    ++acc.chipRuns;
                    acc.chipInstr += deliveredInstructions(
                        cres.tiles.front(), stats);
                    CachePowerBreakdown icache;
                    ChipPowerBreakdown chip;
                    replayPower(params, core, cres.tiles.front(), &icache,
                                &chip, acc);
                    {
                        TraceSpan span("power.eval", "layer");
                        UncorePowerModel(params.uncore)
                            .evaluate(stats.l2, stats.coherence,
                                      cres.seconds());
                        ++acc.powerEvals;
                    }
                    acc.itemDigests.push_back(simDigest(
                        cres.tiles.front(), stats, icache, chip));
                    acc.guards.add(cres.tiles.front(), stats);
                }
            }
        }
        return acc;
    }

  private:
    /** One table row; chip power is tiles x tile 0 plus the uncore. */
    static std::vector<std::string>
    row(const ExperimentParams &params, unsigned tiles,
        const std::string &bench, ConfigId id, const ConfigResult &cfg)
    {
        const ChipRunStats &chip = cfg.chipRun;
        const double seconds =
            static_cast<double>(chip.chipCycles) / cfg.run.clockHz;
        const double uncore_j =
            UncorePowerModel(params.uncore)
                .evaluate(chip.l2, chip.coherence, seconds)
                .totalJ();
        const double chip_w =
            seconds != 0 ? (cfg.chip.totalJ() * tiles + uncore_j) / seconds
                         : 0;
        return {std::to_string(tiles),
                bench,
                configName(id),
                std::to_string(chip.chipCycles),
                std::to_string(deliveredInstructions(cfg.run, chip)),
                std::to_string(chip.l2.accesses()),
                std::to_string(chip.l2.misses()),
                std::to_string(chip.coherence.invalidations),
                std::to_string(chip.coherence.backInvalidations),
                formatDouble(chip_w * 1e3, 3)};
    }

    uint64_t seed_;
    std::vector<std::string> kernels_;
    std::unique_ptr<TimedService> timed_;
};

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "paper_cold", "isa_explore", "chip_scale", "store_warm"};
    return names;
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name, uint64_t seed)
{
    if (name == "paper_cold")
        return std::make_unique<PaperCold>();
    if (name == "isa_explore")
        return std::make_unique<IsaExplore>(seed);
    if (name == "chip_scale")
        return std::make_unique<ChipScale>(seed);
    if (name == "store_warm")
        return std::make_unique<StoreWarm>();
    return nullptr;
}

} // namespace perf
