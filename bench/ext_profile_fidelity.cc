/**
 * @file
 * Extension E5: profile fidelity — the paper's Section 3.1 notes FITS
 * "currently use[s] profile information" and calls static-information
 * synthesis future work. This bench quantifies the gap: synthesize each
 * application's ISA from a static-only profile (every instruction
 * weighted once) versus the execution profile, and compare the dynamic
 * mapping rate and the FITS8 total I-cache saving.
 */

#include "exp/simservice.hh"
#include "experiments.hh"
#include "fits/fits_frontend.hh"
#include "fits/profile.hh"
#include "fits/synth.hh"
#include "fits/translate.hh"
#include "mibench/mibench.hh"
#include "power/cache_power.hh"

namespace pfits
{

namespace
{

struct Outcome
{
    double dynMap;
    double saving;
};

/**
 * Synthesize from @p synth_profile, but always *score* against the
 * true execution profile @p exec_profile.
 */
Outcome
evaluate(const mibench::Workload &w, const char *name,
         const ProfileInfo &synth_profile,
         const ProfileInfo &exec_profile)
{
    FitsIsa isa = synthesize(synth_profile, SynthParams{}, name);
    FitsProgram fits = translateProgram(w.program, isa, exec_profile);
    Outcome out;
    out.dynMap = fits.mapping.dynRate();

    // The ARM16 run is the same for both fidelities: the second
    // request is a memo hit.
    const CoreConfig arm16 = paperCoreConfig(ConfigId::ARM16);
    const CoreConfig fits8 = paperCoreConfig(ConfigId::FITS8);
    ArmFrontEnd arm(w.program);
    FitsFrontEnd fe(std::move(fits));
    SimService &sims = *currentSimService();
    RunResult ra =
        sims.simulate({.fe = &arm, .core = &arm16, .bench = name}).run;
    RunResult rf = sims.simulate({.fe = &fe,
                                  .core = &fits8,
                                  .bench = name,
                                  .isFits = true})
                       .run;
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
        // One execution profile per kernel: the dynamic synthesis
        // input and the scoring profile of both fidelities.
        const ProfileInfo exec_profile = profileProgram(w.program);
        Outcome stat = evaluate(w, info.name,
                                profileProgram(w.program, false),
                                exec_profile);
        Outcome dyn = evaluate(w, info.name, exec_profile, exec_profile);
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
