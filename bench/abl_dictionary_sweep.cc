/**
 * @file
 * Ablation A1 (DESIGN.md §6): sweep the operate-immediate dictionary
 * capacity — the paper's "programmable immediate storage" — and watch
 * the mapping rate and code-size ratio saturate. This is the
 * utilization-based immediate synthesis trade-off of Section 3.3.
 */

#include "experiments.hh"

namespace pfits
{

namespace
{

// A representative subset keeps the sweep quick; the full suite is
// exercised by the figure experiments.
const char *kBenches[] = {
    "crc32", "sha", "jpeg.encode", "blowfish.encode", "bitcount",
    "adpcm.decode",
};

} // namespace

ExperimentOutput
ablDictionarySweep(const ExperimentParams &base)
{
    Table table("Ablation A1: operate-dictionary capacity sweep "
                "(suite subset)");
    table.setHeader({"capacity", "static map %", "dyn map %",
                     "code vs ARM %", "avg slots"});
    for (unsigned capacity : {1u, 4u, 8u, 16u, 32u, 64u, 128u}) {
        ExperimentParams params = base;
        params.synth.opDictCapacity = capacity;
        Runner runner(params);
        double smap = 0, dmap = 0, code = 0, slots = 0;
        for (const char *name : kBenches) {
            const BenchResult &b = runner.get(name);
            smap += b.mapping.staticRate();
            dmap += b.mapping.dynRate();
            code += static_cast<double>(b.fitsBytes) / b.armBytes;
            slots += static_cast<double>(b.isaSlots);
        }
        double n = static_cast<double>(std::size(kBenches));
        table.addRow(std::to_string(capacity),
                     {100 * smap / n, 100 * dmap / n, 100 * code / n,
                      slots / n},
                     1);
    }
    return {.tables = {table}};
}

} // namespace pfits
