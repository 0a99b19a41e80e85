/**
 * @file
 * Extension E2 (DESIGN.md §6 item 4): the fetch-packing ablation. The
 * paper's average-power model charges one I-cache access per
 * instruction (its Figure 8 shows FITS16's internal power ~ ARM16's,
 * which pins that choice). A front-end with a one-word fetch buffer
 * would instead access the array once per 32-bit word — two FITS
 * instructions per access — roughly halving internal power at equal
 * cache size. This bench quantifies that headroom.
 */

#include "experiments.hh"
#include "power/cache_power.hh"

namespace pfits
{

ExperimentOutput
extFetchPacking(const ExperimentParams &params)
{
    ExperimentParams packed_params = params;
    packed_params.core.packedFetch = true;
    Runner plain(params);
    Runner packed(packed_params);

    Table table("Extension E2: fetch packing (FITS16 vs ARM16)");
    table.setHeader({"benchmark", "accesses/instr", "internal saving %",
                     "packed acc/instr", "packed internal saving %"});
    double s1 = 0, s2 = 0;
    size_t n = 0;
    for (const auto *bench : plain.all()) {
        const BenchResult &p = packed.get(bench->name);
        const RunResult &plain_run = bench->of(ConfigId::FITS16).run;
        const RunResult &packed_run = p.of(ConfigId::FITS16).run;
        double plain_saving =
            100.0 * bench->saving(ConfigId::FITS16,
                                  CachePowerBreakdown::Component::INTERNAL);
        double packed_saving =
            100.0 * p.saving(ConfigId::FITS16,
                             CachePowerBreakdown::Component::INTERNAL);
        table.addRow(bench->name,
                     {static_cast<double>(plain_run.icache.accesses()) /
                          plain_run.instructions,
                      plain_saving,
                      static_cast<double>(packed_run.icache.accesses()) /
                          packed_run.instructions,
                      packed_saving},
                     2);
        s1 += plain_saving;
        s2 += packed_saving;
        ++n;
    }
    table.addRow("average", {1.0, s1 / n, 0.5, s2 / n}, 2);
    return {.tables = {table}};
}

} // namespace pfits
