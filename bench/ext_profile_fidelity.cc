/**
 * @file
 * Extension E5: profile fidelity — the paper's Section 3.1 notes FITS
 * "currently use[s] profile information" and calls static-information
 * synthesis future work. This bench quantifies the gap: synthesize each
 * application's ISA from a static-only profile (every instruction
 * weighted once) versus the execution profile, and compare the dynamic
 * mapping rate and the FITS8 total I-cache saving.
 */

#include "experiments.hh"
#include "fits/fits_frontend.hh"
#include "fits/profile.hh"
#include "fits/synth.hh"
#include "fits/translate.hh"
#include "mibench/mibench.hh"
#include "power/cache_power.hh"
#include "sim/machine.hh"

namespace pfits
{

namespace
{

struct Outcome
{
    double dynMap;
    double saving;
};

Outcome
evaluate(const mibench::Workload &w, const char *name, bool dynamic)
{
    // Synthesize from the chosen profile fidelity...
    ProfileInfo synth_profile = profileProgram(w.program, dynamic);
    FitsIsa isa = synthesize(synth_profile, SynthParams{}, name);
    // ...but always *score* against the true execution profile.
    ProfileInfo true_profile = profileProgram(w.program, true);
    FitsProgram fits = translateProgram(w.program, isa, true_profile);
    Outcome out;
    out.dynMap = fits.mapping.dynRate();

    const CoreConfig arm16 = paperCoreConfig(ConfigId::ARM16);
    const CoreConfig fits8 = paperCoreConfig(ConfigId::FITS8);
    ArmFrontEnd arm(w.program);
    FitsFrontEnd fe(std::move(fits));
    RunResult ra = Machine(arm, arm16).run();
    RunResult rf = Machine(fe, fits8).run();
    CachePowerModel arm_model(arm16.icache, TechParams{});
    CachePowerModel fits_model(fits8.icache, TechParams{});
    out.saving = 1.0 - fits_model.evaluate(rf).totalJ() /
                           arm_model.evaluate(ra).totalJ();
    return out;
}

} // namespace

ExperimentOutput
extProfileFidelity(const ExperimentParams &)
{
    Table table("Extension E5: static-only vs dynamic profiling");
    table.setHeader({"benchmark", "dyn map (static prof) %",
                     "dyn map (dyn prof) %", "FITS8 saving (static) %",
                     "FITS8 saving (dyn) %"});
    double s1 = 0, s2 = 0, p1 = 0, p2 = 0;
    size_t n = 0;
    for (const auto &info : mibench::suite()) {
        mibench::Workload w = info.build();
        Outcome stat = evaluate(w, info.name, false);
        Outcome dyn = evaluate(w, info.name, true);
        table.addRow(info.name,
                     {100 * stat.dynMap, 100 * dyn.dynMap,
                      100 * stat.saving, 100 * dyn.saving},
                     1);
        s1 += stat.dynMap;
        s2 += dyn.dynMap;
        p1 += stat.saving;
        p2 += dyn.saving;
        ++n;
    }
    double dn = static_cast<double>(n);
    table.addRow("average",
                 {100 * s1 / dn, 100 * s2 / dn, 100 * p1 / dn,
                  100 * p2 / dn},
                 1);
    return {.tables = {table}};
}

} // namespace pfits
