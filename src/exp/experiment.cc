#include "exp/experiment.hh"

#include <array>

#include "common/logging.hh"
#include "exp/simcache.hh"
#include "exp/simservice.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "fits/profile.hh"
#include "fits/serialize.hh"
#include "mibench/mibench.hh"

namespace pfits
{

const char *
configName(ConfigId id)
{
    switch (id) {
      case ConfigId::ARM16: return "ARM16";
      case ConfigId::ARM8: return "ARM8";
      case ConfigId::FITS16: return "FITS16";
      case ConfigId::FITS8: return "FITS8";
      default: panic("bad ConfigId");
    }
}

Runner::Runner(ExperimentParams params) : params_(std::move(params))
{
    if (params_.jobs != 0)
        ownPool_ = std::make_unique<ThreadPool>(params_.jobs);
}

ThreadPool &
Runner::pool()
{
    return ownPool_ ? *ownPool_ : ThreadPool::shared();
}

CoreConfig
paperCoreConfig(ConfigId id, CoreConfig base)
{
    base.name = configName(id);
    base.icache.sizeBytes =
        (id == ConfigId::ARM8 || id == ConfigId::FITS8) ? 8 * 1024
                                                        : 16 * 1024;
    return base;
}

CoreConfig
Runner::coreConfig(ConfigId id) const
{
    return paperCoreConfig(id, params_.core);
}

const BenchResult &
Runner::get(const std::string &bench_name)
{
    // The front-end work runs inline, the four configuration
    // simulations go through the engine (every one memoized
    // process-wide in SimCache).
    return *cache_.get(bench_name, [&] {
        Prepared prep = prepare(bench_name);
        auto cfgs = parallelMap<ConfigResult>(pool(), 4, [&](size_t i) {
            return simulateConfig(prep, static_cast<ConfigId>(i));
        });
        for (size_t i = 0; i < 4; ++i)
            prep.result->configs[i] = std::move(cfgs[i]);
        return std::shared_ptr<const BenchResult>(std::move(prep.result));
    });
}

std::vector<const BenchResult *>
Runner::all()
{
    const auto &suite = mibench::suite();

    std::vector<std::string> missing;
    for (const auto &info : suite)
        if (!cache_.peek(info.name))
            missing.emplace_back(info.name);

    if (!missing.empty()) {
        ThreadPool &tp = pool();

        // Phase 1: front-end work, one job per benchmark.
        std::vector<Prepared> preps;
        {
            TraceSpan phase("phase.prepare", "runner",
                            TraceArgs().add("benches", missing.size()));
            preps = parallelMap<Prepared>(
                tp, missing.size(),
                [&](size_t i) { return prepare(missing[i]); });
        }

        // Phase 2: one job per (benchmark × config) simulation,
        // dispatched config-major (job j is bench j % n, config j / n)
        // so a bench's 8 KB request starts about n jobs after its
        // 16 KB one and finds the run they share finished instead of
        // waiting on it (SimCache). Results land in slot
        // [bench * 4 + config] — index-addressed, so the assembled
        // tables are byte-identical at any job count.
        const size_t n = missing.size();
        std::vector<ConfigResult> cfgs(n * 4);
        {
            TraceSpan phase("phase.simulate", "runner",
                            TraceArgs().add("sims", n * 4));
            tp.run(n * 4, [&](size_t j) {
                const size_t bench = j % n;
                const size_t config = j / n;
                cfgs[bench * 4 + config] = simulateConfig(
                    preps[bench], static_cast<ConfigId>(config));
            });
        }

        // A concurrent get() may have beaten us to a bench; its result
        // stands.
        for (size_t i = 0; i < n; ++i)
            cache_.get(missing[i], [&] {
                for (size_t c = 0; c < 4; ++c)
                    preps[i].result->configs[c] =
                        std::move(cfgs[i * 4 + c]);
                return std::shared_ptr<const BenchResult>(
                    std::move(preps[i].result));
            });
    }

    std::vector<const BenchResult *> out;
    out.reserve(suite.size());
    for (const auto &info : suite)
        out.push_back(cache_.peek(info.name)->get());
    return out;
}

PreparedBench
prepareBenchmark(const std::string &bench_name,
                 const ExperimentParams &params)
{
    // Front-end phase: workload build + profile + ISA synthesis +
    // translation, timed per benchmark.
    ScopedTimerMs prepare_hist("runner.prepare_ms", 0.0, 500.0, 16);
    ScopedTimerMs prepare_total("runner.phase.prepare_ms");
    TraceSpan span("prepare", "runner",
                   TraceArgs().add("bench", bench_name));

    const mibench::BenchInfo &info = mibench::findBench(bench_name);
    mibench::Workload workload = info.build();

    PreparedBench prep;
    prep.result = std::make_unique<BenchResult>();
    prep.result->name = bench_name;
    prep.expected = workload.expected;
    prep.result->armBytes = workload.program.codeBytes();
    prep.result->thumbBytes =
        thumbEstimate(workload.program).codeBytes();

    ProfileInfo profile = profileProgram(workload.program);
    FitsIsa isa = synthesize(profile, params.synth, bench_name);
    FitsProgram fits_prog =
        translateProgram(workload.program, isa, profile);
    prep.result->fitsBytes = fits_prog.codeBytes();
    prep.result->mapping = fits_prog.mapping;
    prep.result->isaSlots = isa.slots.size();
    prep.result->regBits = isa.regBits;

    prep.armFe =
        std::make_unique<ArmFrontEnd>(std::move(workload.program));
    prep.fitsFe = std::make_unique<FitsFrontEnd>(std::move(fits_prog));
    return prep;
}

Runner::Prepared
Runner::prepare(const std::string &bench_name) const
{
    Prepared prep = prepareBenchmark(bench_name, params_);
    // Hash both programs in the prepare phase, so the simulate phase
    // and every SimCache hit look their memo key up.
    hashFrontEnd(*prep.armFe);
    hashFrontEnd(*prep.fitsFe);
    return prep;
}

ConfigResult
Runner::simulateConfig(const Prepared &prep, ConfigId id) const
{
    // Simulation phase: memo lookup or fresh sim plus power modelling.
    ScopedTimerMs simulate_total("runner.phase.simulate_ms");
    TraceSpan span("simulate", "runner",
                   TraceArgs()
                       .add("bench", prep.result->name)
                       .add("config", configName(id)));

    const std::string &bench_name = prep.result->name;
    bool is_fits = id == ConfigId::FITS16 || id == ConfigId::FITS8;
    const FrontEnd &fe =
        is_fits ? static_cast<const FrontEnd &>(*prep.fitsFe)
                : static_cast<const FrontEnd &>(*prep.armFe);
    CoreConfig core = coreConfig(id);
    ConfigResult cfg;

    const bool faulty = params_.faults.enabled();
    FaultParams fp = params_.faults;
    if (faulty) {
        // Derive a per-(benchmark, config) seed so every run in a
        // sweep sees an independent but reproducible schedule.
        fp.seed = fp.seed ^ configChecksum(bench_name) ^
                  (static_cast<uint64_t>(id) << 56);
    }

    // Through the installed simulation service: the SimCache-backed
    // local default, or the pfitsd client when a daemon is wired in
    // (exp/simservice.hh). Retry-with-reload under faults happens
    // inside the cached computation either way (see exp/simcache.hh).
    SimRequest sreq;
    sreq.fe = &fe;
    sreq.core = &core;
    sreq.faults = fp;
    sreq.maxRetries = faulty ? params_.faultRetries : 0;
    sreq.spec = params_.observers;
    sreq.chip = params_.chipSim;
    sreq.bench = bench_name;
    sreq.isFits = is_fits;
    SimResult sim = currentSimService()->simulate(sreq);
    cfg.run = std::move(sim.run);
    cfg.faultRetries = sim.faultRetries;
    cfg.intervals = std::move(sim.intervals);
    cfg.tracePath = std::move(sim.tracePath);
    cfg.chipRun = std::move(sim.chip);

    if (cfg.run.outcome != RunOutcome::Completed && !faulty) {
        // Without injected faults these outcomes are toolchain or
        // kernel bugs and must keep failing loudly.
        fatal("%s/%s: run ended %s: %s", bench_name.c_str(),
              configName(id), runOutcomeName(cfg.run.outcome),
              cfg.run.trapReason.c_str());
    }

    cfg.checksumOk = cfg.run.outcome == RunOutcome::Completed &&
                     !cfg.run.io.emitted.empty() &&
                     cfg.run.io.emitted[0] == prep.expected;
    if (!cfg.run.io.emitted.empty() &&
        cfg.run.io.emitted[0] != prep.expected) {
        if (!faulty) {
            fatal("%s/%s: checksum mismatch (got 0x%08x, want "
                  "0x%08x)", bench_name.c_str(), configName(id),
                  cfg.run.io.emitted[0], prep.expected);
        }
        warn_every_n(64, "%s/%s: silent data corruption (got "
                     "0x%08x, want 0x%08x)", bench_name.c_str(),
                     configName(id), cfg.run.io.emitted[0],
                     prep.expected);
    }

    TechParams tech = params_.tech;
    tech.clockHz = core.clockHz;
    CachePowerModel power(core.icache, tech);
    cfg.icache = power.evaluate(cfg.run);
    ChipPowerModel chip_model(params_.chip);
    cfg.chip = chip_model.evaluate(cfg.run, cfg.icache,
                                   core.dcache.lineBytes);
    return cfg;
}

} // namespace pfits
