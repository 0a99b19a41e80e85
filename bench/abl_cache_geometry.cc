/**
 * @file
 * Ablation A3 (DESIGN.md §6): sweep the I-cache geometry to show the
 * paper's conclusions are not an artefact of the SA-1100's 32-way,
 * 32-byte-line organization: the FITS8-vs-ARM16 total power saving and
 * the miss-rate advantage persist across associativities and line
 * sizes.
 */

#include <cstdio>
#include <string>

#include "experiments.hh"
#include "power/cache_power.hh"

namespace pfits
{

namespace
{

const char *kBenches[] = {"sha", "jpeg.encode", "crc32", "fft"};

} // namespace

ExperimentOutput
ablCacheGeometry(const ExperimentParams &base)
{
    Table table("Ablation A3: cache geometry sweep (suite subset)");
    table.setHeader({"assoc/line", "ARM16 int pJ/acc",
                     "FITS8 total saving %", "ARM8 mpmi", "FITS8 mpmi"});
    std::string skipped;
    // The sweep includes deliberately impossible points (a 4096-way
    // cache that cannot fit one set, a non-power-of-two line):
    // CacheConfig::validateError() skips them as rows instead of the
    // first bad geometry aborting the whole sweep.
    for (uint32_t assoc : {2u, 8u, 32u, 4096u}) {
        for (uint32_t line : {16u, 32u, 48u, 64u}) {
            ExperimentParams params = base;
            params.core.icache.assoc = assoc;
            params.core.icache.lineBytes = line;

            char label[32];
            std::snprintf(label, sizeof(label), "%uw/%uB", assoc, line);
            // The 8 KiB ARM8/FITS8 caches are the tightest geometry a
            // sweep point must satisfy.
            const CacheConfig small =
                paperCoreConfig(ConfigId::ARM8, params.core).icache;
            std::string err = params.core.icache.validateError();
            if (err.empty())
                err = small.validateError();
            if (!err.empty()) {
                table.addRow({label, "skipped", "-", "-", "-"});
                skipped += "  " + std::string(label) + ": " + err + "\n";
                continue;
            }
            Runner runner(params);

            CacheConfig arm16 = runner.coreConfig(ConfigId::ARM16).icache;
            CachePowerModel model(arm16, params.tech);

            double saving = 0, arm8_mpmi = 0, fits8_mpmi = 0;
            for (const char *name : kBenches) {
                const BenchResult &b = runner.get(name);
                saving += b.saving(ConfigId::FITS8,
                                   CachePowerBreakdown::Component::TOTAL);
                arm8_mpmi +=
                    b.of(ConfigId::ARM8).run.icache.missesPerMillion();
                fits8_mpmi +=
                    b.of(ConfigId::FITS8).run.icache.missesPerMillion();
            }
            double n = static_cast<double>(std::size(kBenches));
            table.addRow(label,
                         {model.internalEnergyPerAccess() * 1e12,
                          100 * saving / n, arm8_mpmi / n,
                          fits8_mpmi / n},
                         1);
        }
    }
    ExperimentOutput out{.tables = {table}};
    if (!skipped.empty())
        out.remarks = "skipped design points:\n" + skipped;
    return out;
}

} // namespace pfits
