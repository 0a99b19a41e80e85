/**
 * @file
 * Extension E10: I-cache leakage under per-line power-down policies.
 *
 * The paper's leakage model (and E9's reproduction of it) keeps every
 * line at full leakage for the whole operational period. This bench
 * scores the same runs under the drowsy (Flautner et al.) and
 * gated-Vdd (Powell et al.) per-line policies of power/leakage.hh:
 * three LeakageObservers — off, drowsy, gated — replay one run's fetch
 * stream, and CachePowerModel::leakageEnergyJ prices each activity
 * summary under its policy. The column periphery (sense-amp bias,
 * ~70% of SA-1100-class leakage) cannot be gated per line and bounds
 * every saving; the wake-penalty cycles extend the operational period,
 * which is why gated's deeper sleep does not win proportionally.
 *
 * Everything is deterministic; two invocations print byte-identical
 * reports.
 */

#include <string>

#include "experiments.hh"
#include "power/cache_power.hh"
#include "power/leakage.hh"
#include "power/tech.hh"
#include "sim/frontend.hh"
#include "sim/machine.hh"
#include "sim/probe.hh"

namespace pfits
{

namespace
{

/** Kernels spanning tight loops (fft) and flat code (dijkstra). */
const char *const kKernels[] = {"jpeg.encode", "fft", "sha",
                                "dijkstra"};

/** Leakage params for one policy, all other knobs at defaults. */
LeakageParams
policyParams(LeakagePolicy policy)
{
    LeakageParams p;
    p.policy = policy;
    return p;
}

/** Price one activity summary under @p policy. */
double
priceUj(const CoreConfig &core, LeakagePolicy policy,
        const LeakageActivity &activity)
{
    TechParams tech;
    tech.clockHz = core.clockHz;
    tech.leakage = policyParams(policy);
    CachePowerModel model(core.icache, tech);
    return 1e6 * model.leakageEnergyJ(activity);
}

} // namespace

ExperimentOutput
extLeakagePolicy(const ExperimentParams &params)
{
    Table table("Extension E10: I-cache leakage energy per power-down "
                "policy (16 KiB I-cache)");
    table.setHeader({"kernel/ISA", "off uJ", "drowsy uJ", "drowsy sv%",
                     "gated uJ", "gated sv%", "wakes", "stall d",
                     "stall g"});

    for (const char *name : kKernels) {
        const PreparedBench prep = prepareBenchmark(name, params);
        struct Side
        {
            const char *label;
            const FrontEnd *fe;
        } sides[2] = {{"ARM16", prep.armFe.get()},
                      {"FITS16", prep.fitsFe.get()}};
        for (const Side &side : sides) {
            // One run, three observers: the policies differ only in
            // how the same idle intervals are priced.
            CoreConfig core;
            LeakageObserver off(core.icache,
                                policyParams(LeakagePolicy::Off));
            LeakageObserver drowsy(core.icache,
                                   policyParams(LeakagePolicy::Drowsy));
            LeakageObserver gated(core.icache,
                                  policyParams(LeakagePolicy::Gated));
            ObserverList list;
            list.add(&off);
            list.add(&drowsy);
            list.add(&gated);
            Machine(*side.fe, core).run(nullptr, &list);

            double off_uj =
                priceUj(core, LeakagePolicy::Off, off.activity());
            double drowsy_uj =
                priceUj(core, LeakagePolicy::Drowsy, drowsy.activity());
            double gated_uj =
                priceUj(core, LeakagePolicy::Gated, gated.activity());
            auto sv = [off_uj](double j) {
                return off_uj ? 100.0 * (1.0 - j / off_uj) : 0.0;
            };
            table.addRow(
                std::string(name) + " " + side.label,
                {off_uj, drowsy_uj, sv(drowsy_uj), gated_uj,
                 sv(gated_uj),
                 static_cast<double>(drowsy.activity().wakes),
                 static_cast<double>(drowsy.activity().wakePenaltyCycles),
                 static_cast<double>(gated.activity().wakePenaltyCycles)},
                1);
        }
    }
    return {.tables = {table}};
}

} // namespace pfits
