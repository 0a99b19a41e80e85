/**
 * @file
 * The experiment harness behind every figure reproduction.
 *
 * For each benchmark it builds the ARM workload, profiles it,
 * synthesizes the per-application FITS ISA, translates, and simulates
 * the paper's four configurations — ARM16, ARM8, FITS16, FITS8
 * (Section 5) — attaching the cache and chip power models to each run.
 * Results are computed lazily and memoized, so a bench binary touching
 * several figures simulates each (benchmark, config) pair once.
 */

#ifndef POWERFITS_EXP_EXPERIMENT_HH
#define POWERFITS_EXP_EXPERIMENT_HH

#include <memory>
#include <string>
#include <vector>

#include "common/fault.hh"
#include "common/memo.hh"
#include "exp/parallel.hh"
#include "exp/simcache.hh"
#include "fits/fits_frontend.hh"
#include "fits/synth.hh"
#include "fits/translate.hh"
#include "power/cache_power.hh"
#include "power/chip_power.hh"
#include "sim/machine.hh"
#include "sim/probe.hh"
#include "thumb/thumb.hh"

namespace pfits
{

/** The paper's four simulated processor configurations. */
enum class ConfigId { ARM16, ARM8, FITS16, FITS8 };

/** @return "ARM16", "ARM8", "FITS16" or "FITS8". */
const char *configName(ConfigId id);

/** All four configurations in the paper's presentation order. */
inline constexpr ConfigId kAllConfigs[4] = {
    ConfigId::ARM16, ConfigId::ARM8, ConfigId::FITS16, ConfigId::FITS8};

/**
 * The paper's core for @p id: @p base named after the config, with an
 * 8 KiB I-cache for ARM8/FITS8 and a 16 KiB one for ARM16/FITS16.
 */
CoreConfig paperCoreConfig(ConfigId id, CoreConfig base = {});

/** One simulated configuration of one benchmark. */
struct ConfigResult
{
    RunResult run;
    CachePowerBreakdown icache;
    ChipPowerBreakdown chip;
    bool checksumOk = true;  //!< golden output matched (SDC when false)
    unsigned faultRetries = 0; //!< reload-and-retry attempts consumed

    //! Chip-level extras when params.chipSim is non-default: run is
    //! then tile 0 of a homogeneous multi-tile chip (exp/simcache.hh).
    ChipRunStats chipRun;

    //! Phase series when params.observers armed interval stats.
    std::vector<IntervalSample> intervals;

    //! JSONL file trap traces were appended to ("" unless armed).
    std::string tracePath;
};

/** Everything measured for one benchmark. */
struct BenchResult
{
    std::string name;

    uint32_t armBytes = 0;
    uint32_t thumbBytes = 0;
    uint32_t fitsBytes = 0;
    MappingStats mapping;
    size_t isaSlots = 0;
    unsigned regBits = 0;

    ConfigResult configs[4]; //!< indexed by ConfigId

    const ConfigResult &
    of(ConfigId id) const
    {
        return configs[static_cast<size_t>(id)];
    }

    /** 1 - energy(cfg)/energy(ARM16); the paper's saving convention. */
    double
    saving(ConfigId id, CachePowerBreakdown::Component component) const
    {
        double base = of(ConfigId::ARM16).icache.energy(component);
        double val = of(id).icache.energy(component);
        return base != 0 ? 1.0 - val / base : 0.0;
    }

    double
    peakSaving(ConfigId id) const
    {
        double base = of(ConfigId::ARM16).icache.peakW;
        return base != 0 ? 1.0 - of(id).icache.peakW / base : 0.0;
    }

    double
    chipSaving(ConfigId id) const
    {
        double base = of(ConfigId::ARM16).chip.totalJ();
        return base != 0 ? 1.0 - of(id).chip.totalJ() / base : 0.0;
    }
};

/** Experiment parameters (defaults replicate the paper's setup). */
struct ExperimentParams
{
    SynthParams synth;
    TechParams tech;
    ChipEnergyParams chip;
    UncoreEnergyParams uncore; //!< shared-L2/coherence energy (chip runs)
    CoreConfig core; //!< base core; paperCoreConfig() sets the I-cache size

    /**
     * Chip-level run shape (sim/chip.hh). The default — one tile, no
     * shared L2 — simulates every (benchmark, config) pair as the
     * plain single-core Machine, byte-identical to every pre-chip
     * table. A non-default config runs each pair as a homogeneous
     * chipSim.tiles-tile Chip; ConfigResult::run is then tile 0's
     * result and ConfigResult::chipRun carries the chip-level stats.
     * Joins the SimCache memo key (exp/simcache.hh), so chip and
     * single-core results never share a memo entry.
     */
    ChipConfig chipSim;

    /**
     * Soft-error injection (disabled by default). When armed, each
     * (benchmark, config) run gets its own FaultPlan seeded from
     * faults.seed so sweeps replay deterministically, and a run ended
     * by a parity machine-check is reloaded and retried up to
     * faultRetries times before being reported as lost.
     */
    FaultParams faults;
    unsigned faultRetries = 3;

    /**
     * Instruments attached to every simulation (sim/probe.hh):
     * per-N-instruction interval series and/or a bounded JSONL trace
     * dumped when a run ends Trapped or FaultDetected (the bench
     * harness arms the latter via --trace-on-trap). Joins the SimCache
     * memo key.
     */
    ObserverSpec observers;

    /**
     * Worker threads for the parallel engine: 0 (the default) shares
     * the process-wide pool sized by --jobs / PFITS_JOBS /
     * hardware_concurrency; any other value gives this Runner a
     * private pool of exactly that size (the determinism tests pin 1
     * vs 4 vs hardware this way). Output is byte-identical at any
     * value — results are collected by job index, never by completion
     * order.
     */
    unsigned jobs = 0;
};

/**
 * A suite benchmark after the CPU-bound front-end work (workload
 * build, profile, ISA synthesis, translation), ready to simulate.
 * Produced by prepareBenchmark(); the Runner consumes these per sweep.
 */
struct PreparedBench
{
    std::unique_ptr<BenchResult> result; //!< static fields filled
    uint32_t expected = 0;               //!< golden output checksum
    std::unique_ptr<ArmFrontEnd> armFe;
    std::unique_ptr<FitsFrontEnd> fitsFe;
};

/** Build/profile/synthesize/translate @p bench_name under @p params. */
PreparedBench prepareBenchmark(const std::string &bench_name,
                               const ExperimentParams &params);

/**
 * Computes and memoizes per-benchmark results through the parallel
 * experiment engine.
 *
 * all() fans the missing benchmarks out over a thread pool in two
 * deterministic phases — prepare (build/profile/synthesize/translate,
 * one job per benchmark) then simulate (one job per benchmark ×
 * config) — and every simulation goes through the process-wide
 * SimCache, so repeated sweeps in one process re-simulate nothing.
 * Results are stored by job index, making tables byte-identical
 * regardless of thread count. The Runner itself is thread-safe.
 */
class Runner
{
  public:
    explicit Runner(ExperimentParams params = {});

    /** Results for one benchmark (computed on first use). */
    const BenchResult &get(const std::string &bench_name);

    /** Results for the whole 21-benchmark suite, in suite order. */
    std::vector<const BenchResult *> all();

    /** The core configuration used for @p id. */
    CoreConfig coreConfig(ConfigId id) const;

    const ExperimentParams &params() const { return params_; }

    /** The pool this Runner schedules on (shared unless params.jobs). */
    ThreadPool &pool();

  private:
    using Prepared = PreparedBench;

    Prepared prepare(const std::string &bench_name) const;
    ConfigResult simulateConfig(const Prepared &prep, ConfigId id) const;

    ExperimentParams params_;
    std::unique_ptr<ThreadPool> ownPool_; //!< when params_.jobs != 0

    Memo<std::string, std::shared_ptr<const BenchResult>> cache_;
};

} // namespace pfits

#endif // POWERFITS_EXP_EXPERIMENT_HH
