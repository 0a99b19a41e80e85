/**
 * @file
 * Ablation A2 (DESIGN.md §6): the register-field width / opcode-space
 * trade-off (the paper's register-pressure discussion, Section 3.3).
 * Compares natural field sizing against forced 4-bit fields, and sweeps
 * the decoder slot budget.
 */

#include "experiments.hh"

namespace pfits
{

namespace
{

const char *kBenches[] = {
    "crc32", "gsm", "sha", "dijkstra", "qsort", "fft",
};

Table
sweepRegFields(const ExperimentParams &base)
{
    Table table("Ablation A2a: register-field width");
    table.setHeader({"benchmark", "natural bits", "nat map %",
                     "forced-4 map %", "nat code %", "forced-4 code %"});
    ExperimentParams forced = base;
    forced.synth.forceWideRegFields = true;
    Runner nat_runner(base), wide_runner(forced);
    for (const char *name : kBenches) {
        const BenchResult &n = nat_runner.get(name);
        const BenchResult &w = wide_runner.get(name);
        table.addRow(name,
                     {static_cast<double>(n.regBits),
                      100 * n.mapping.staticRate(),
                      100 * w.mapping.staticRate(),
                      100.0 * n.fitsBytes / n.armBytes,
                      100.0 * w.fitsBytes / w.armBytes},
                     1);
    }
    return table;
}

Table
sweepSlotBudget(const ExperimentParams &base)
{
    Table table("Ablation A2b: decoder slot budget (suite subset)");
    table.setHeader({"max slots", "static map %", "dyn map %",
                     "code vs ARM %"});
    for (unsigned slots : {4u, 8u, 16u, 32u, 64u, 128u}) {
        ExperimentParams params = base;
        params.synth.maxSlots = slots;
        Runner runner(params);
        double smap = 0, dmap = 0, code = 0;
        for (const char *name : kBenches) {
            const BenchResult &b = runner.get(name);
            smap += b.mapping.staticRate();
            dmap += b.mapping.dynRate();
            code += static_cast<double>(b.fitsBytes) / b.armBytes;
        }
        double n = static_cast<double>(std::size(kBenches));
        table.addRow(std::to_string(slots),
                     {100 * smap / n, 100 * dmap / n, 100 * code / n},
                     1);
    }
    return table;
}

} // namespace

ExperimentOutput
ablRegisterSweep(const ExperimentParams &params)
{
    return {.tables = {sweepRegFields(params), sweepSlotBudget(params)}};
}

} // namespace pfits
