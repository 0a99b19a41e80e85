/**
 * @file
 * Extension E4: the D-cache as a negative control. FITS rewrites the
 * *instruction* stream; data traffic is essentially unchanged (the few
 * extra accesses come from expansion sequences). Evaluating the same
 * CACTI-lite model on the D-cache shows FITS leaves D-cache power
 * alone — confirming the I-cache savings of Figures 7-11 are a genuine
 * fetch-path effect, not an artefact of the power model.
 */

#include "experiments.hh"
#include "power/cache_power.hh"

namespace pfits
{

namespace
{

/** Evaluate the model against D-cache activity for one run. */
double
dcacheEnergy(const RunResult &run, const CacheConfig &dcache)
{
    TechParams tech;
    CachePowerModel model(dcache, tech);
    // Build a pseudo-run whose "fetch" counters carry the D-side
    // activity (32-bit data bus, activity-factor switching).
    RunResult data = run;
    data.icache = run.dcache;
    data.fetchBitsTotal = run.dcache.accesses() * 32;
    data.fetchToggleBits = data.fetchBitsTotal / 2;
    data.icacheRefillWords =
        run.dcache.misses() * (dcache.lineBytes / 4);
    return model.evaluate(data).totalJ();
}

} // namespace

ExperimentOutput
extDcachePower(const ExperimentParams &params)
{
    Runner runner(params);
    CacheConfig dcache = runner.coreConfig(ConfigId::ARM16).dcache;

    Table table("Extension E4: D-cache energy (negative control)");
    table.setHeader({"benchmark", "ARM16 uJ", "FITS16 uJ", "delta %"});
    double sum = 0;
    size_t n = 0;
    for (const BenchResult *bench : runner.all()) {
        double arm = dcacheEnergy(bench->of(ConfigId::ARM16).run, dcache);
        double fits =
            dcacheEnergy(bench->of(ConfigId::FITS16).run, dcache);
        double delta = 100.0 * (fits / arm - 1.0);
        table.addRow(bench->name, {arm * 1e6, fits * 1e6, delta}, 2);
        sum += delta;
        ++n;
    }
    table.addRow("average", {0, 0, sum / static_cast<double>(n)}, 2);
    return {.tables = {table}};
}

} // namespace pfits
