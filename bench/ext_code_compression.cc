/**
 * @file
 * Extension E1: code-size comparison against a CodePack-like compressed
 * baseline (the paper's related work, Section 2 [10][11]) alongside
 * Figure 5's ARM/THUMB/FITS columns. Compression reaches similar or
 * smaller footprints than FITS but must decompress on the fetch path,
 * so it does not halve per-fetch output switching the way a genuine
 * 16-bit ISA does — the paper's argument for synthesis over
 * compression.
 */

#include "experiments.hh"
#include "mibench/mibench.hh"
#include "thumb/codepack.hh"

namespace pfits
{

ExperimentOutput
extCodeCompression(const ExperimentParams &params)
{
    Runner runner(params);
    Table table("Extension E1: code size vs a CodePack-like compressor "
                "(% of ARM)");
    table.setHeader({"benchmark", "THUMB", "FITS", "CodePack",
                     "CodePack+dict"});
    double t = 0, f = 0, c = 0, cd = 0;
    size_t n = 0;
    for (const auto &info : mibench::suite()) {
        const BenchResult &bench = runner.get(info.name);
        CodepackStats pack = codepackEstimate(info.build().program);
        double arm = bench.armBytes;
        double thumb = 100.0 * bench.thumbBytes / arm;
        double fits = 100.0 * bench.fitsBytes / arm;
        double packed = 100.0 * pack.codeBytes() / arm;
        double packed_dict =
            100.0 * (pack.codeBytes() + pack.dictionaryBits / 8.0) / arm;
        table.addRow(info.name, {thumb, fits, packed, packed_dict}, 1);
        t += thumb;
        f += fits;
        c += packed;
        cd += packed_dict;
        ++n;
    }
    table.addRow("average", {t / n, f / n, c / n, cd / n}, 1);
    return {.tables = {table}};
}

} // namespace pfits
