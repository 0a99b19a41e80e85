/**
 * @file
 * Ablation A5: switch off individual synthesis features — fused-shift
 * AIS slots and two-operand forms (the paper's Section 3.3 heuristics)
 * — and measure what each buys in mapping coverage and code size.
 */

#include "experiments.hh"

namespace pfits
{

namespace
{

const char *kBenches[] = {
    "crc32", "sha", "adpcm.encode", "bitcount", "fft", "qsort",
};

void
row(const ExperimentParams &base, Table &table, const char *label,
    const SynthParams &sp)
{
    ExperimentParams params = base;
    params.synth = sp;
    Runner runner(params);
    double smap = 0, dmap = 0, code = 0;
    for (const char *name : kBenches) {
        const BenchResult &b = runner.get(name);
        smap += b.mapping.staticRate();
        dmap += b.mapping.dynRate();
        code += static_cast<double>(b.fitsBytes) / b.armBytes;
    }
    double n = static_cast<double>(std::size(kBenches));
    table.addRow(label,
                 {100 * smap / n, 100 * dmap / n, 100 * code / n}, 1);
}

} // namespace

ExperimentOutput
ablSynthesisFeatures(const ExperimentParams &params)
{
    Table table("Ablation A5: synthesis feature knockout "
                "(suite subset)");
    table.setHeader({"configuration", "static map %", "dyn map %",
                     "code vs ARM %"});

    SynthParams full;
    row(params, table, "full synthesis", full);

    SynthParams no_fuse = full;
    no_fuse.enableFusedShifts = false;
    row(params, table, "- fused shifts", no_fuse);

    SynthParams no_twoop = full;
    no_twoop.enableTwoOperand = false;
    row(params, table, "- two-operand forms", no_twoop);

    SynthParams bare = full;
    bare.enableFusedShifts = false;
    bare.enableTwoOperand = false;
    row(params, table, "- both", bare);

    SynthParams wide = full;
    wide.forceWideRegFields = true;
    row(params, table, "forced 4-bit registers", wide);

    return {.tables = {table}};
}

} // namespace pfits
