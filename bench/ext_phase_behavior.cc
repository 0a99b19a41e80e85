/**
 * @file
 * Extension E7: phase behaviour of I-cache activity, ARM16 vs FITS16.
 *
 * The paper's evaluation (like sim-panalyzer's) reports whole-run
 * averages, but the signals its power model consumes — IPC, miss rate,
 * fetch-bus toggle rate — move with program phases, and related work
 * (arXiv:2409.08286) analyzes exactly these per-phase I-cache energy
 * curves for extensible processors. This bench carves each kernel's
 * run into ten equal-instruction phases with an IntervalStatsObserver
 * and prints the per-phase series for the paper's main comparison pair
 * (ARM16 vs FITS16, both 16 KiB I-caches): where in the run the
 * synthesized ISA's switching savings come from, and whether its miss
 * behaviour is uniform or phase-concentrated.
 *
 * Everything is deterministic; two invocations print byte-identical
 * reports.
 */

#include <algorithm>
#include <string>
#include <vector>

#include "exp/simservice.hh"
#include "experiments.hh"
#include "power/cache_power.hh"
#include "power/tech.hh"
#include "sim/frontend.hh"
#include "sim/probe.hh"

namespace pfits
{

namespace
{

/** Kernels with visibly different phase structure (setup/core/check). */
const char *const kKernels[] = {"jpeg.encode", "fft", "sha", "dijkstra"};
constexpr int kPhases = 10;

/** The phase series of one (kernel, ISA) run, plus its power model. */
struct PhaseSeries
{
    std::vector<IntervalSample> samples;
    CoreConfig core;
};

/**
 * Two-pass measurement through the simulation service: a plain run
 * sizes the interval so the series has kPhases equal-instruction
 * samples (the last absorbs the partial tail and the pipeline drain),
 * then an instrumented run records them.
 */
PhaseSeries
measure(const FrontEnd &fe, const std::string &bench, bool is_fits)
{
    PhaseSeries out;
    // Both sides of the comparison run the paper's large 16 KiB
    // I-cache: the phase curves isolate the ISA, not the cache size.
    SimRequest req{
        .fe = &fe, .core = &out.core, .bench = bench, .isFits = is_fits};
    const uint64_t instructions =
        currentSimService()->simulate(req).run.instructions;
    req.spec.intervalInstructions =
        (instructions + kPhases - 1) / kPhases;
    out.samples = currentSimService()->simulate(req).intervals;
    return out;
}

} // namespace

ExperimentOutput
extPhaseBehavior(const ExperimentParams &params)
{
    ExperimentOutput out;
    for (const char *name : kKernels) {
        const PreparedBench prep = prepareBenchmark(name, params);
        PhaseSeries arm = measure(*prep.armFe, name, false);
        PhaseSeries fits = measure(*prep.fitsFe, name, true);

        TechParams tech;
        tech.clockHz = arm.core.clockHz;
        CachePowerModel arm_model(arm.core.icache, tech);
        CachePowerModel fits_model(fits.core.icache, tech);

        Table t("Extension E7: phase behaviour of " + std::string(name) +
                " (per-phase, ARM16 vs FITS16)");
        t.setHeader({"phase", "ARM ipc", "FITS ipc", "ARM mpmi",
                     "FITS mpmi", "ARM tog%", "FITS tog%", "ARM uJ",
                     "FITS uJ"});
        size_t rows = std::max(arm.samples.size(), fits.samples.size());
        for (size_t p = 0; p < rows; ++p) {
            auto cell = [&](const PhaseSeries &s,
                            const CachePowerModel &model, auto metric) {
                return p < s.samples.size()
                           ? formatDouble(metric(s.samples[p], model), 3)
                           : std::string("-");
            };
            auto ipc = [](const IntervalSample &s,
                          const CachePowerModel &) { return s.ipc(); };
            auto mpmi = [](const IntervalSample &s,
                           const CachePowerModel &) {
                return s.missesPerMillion();
            };
            auto tog = [](const IntervalSample &s,
                          const CachePowerModel &) {
                return 100.0 * s.toggleRate();
            };
            auto uj = [](const IntervalSample &s,
                         const CachePowerModel &m) {
                return m.intervalEnergyJ(s) * 1e6;
            };
            t.addRow({std::to_string(p), cell(arm, arm_model, ipc),
                      cell(fits, fits_model, ipc),
                      cell(arm, arm_model, mpmi),
                      cell(fits, fits_model, mpmi),
                      cell(arm, arm_model, tog),
                      cell(fits, fits_model, tog),
                      cell(arm, arm_model, uj),
                      cell(fits, fits_model, uj)});
        }
        out.tables.push_back(std::move(t));
    }
    return out;
}

} // namespace pfits
