#include "exp/figures.hh"

namespace pfits
{

namespace
{

/** Build a per-benchmark table from one value per benchmark. */
template <typename Fn>
Table
perBench(Runner &runner, const std::string &title,
         std::vector<std::string> header, Fn value_fn, int precision = 1)
{
    Table table(title);
    table.setHeader(std::move(header));
    size_t cols = table.header().size() - 1;
    std::vector<std::vector<double>> sums(cols);
    for (const BenchResult *bench : runner.all()) {
        std::vector<double> cells = value_fn(*bench);
        for (size_t c = 0; c < cols; ++c)
            sums[c].push_back(cells[c]);
        table.addRow(bench->name, cells, precision);
    }
    std::vector<double> avg;
    for (size_t c = 0; c < cols; ++c)
        avg.push_back(columnAverage(sums[c]));
    table.addRow("average", avg, precision);
    return table;
}

} // namespace

double
columnAverage(const std::vector<double> &values)
{
    double sum = 0;
    for (double v : values)
        sum += v;
    return values.empty() ? 0.0 : sum / static_cast<double>(values.size());
}

Table
fig3StaticMapping(Runner &runner)
{
    return perBench(
        runner, "Figure 3: ARM-to-FITS static mapping (% one-to-one)",
        {"benchmark", "static map %"},
        [](const BenchResult &b) {
            return std::vector<double>{100.0 * b.mapping.staticRate()};
        });
}

Table
fig4DynamicMapping(Runner &runner)
{
    return perBench(
        runner, "Figure 4: ARM-to-FITS dynamic mapping (% one-to-one)",
        {"benchmark", "dynamic map %"},
        [](const BenchResult &b) {
            return std::vector<double>{100.0 * b.mapping.dynRate()};
        });
}

Table
fig5CodeSize(Runner &runner)
{
    return perBench(
        runner, "Figure 5: code size footprint (% of ARM)",
        {"benchmark", "ARM", "THUMB", "FITS"},
        [](const BenchResult &b) {
            double arm = b.armBytes;
            return std::vector<double>{100.0,
                                       100.0 * b.thumbBytes / arm,
                                       100.0 * b.fitsBytes / arm};
        });
}

Table
fig6PowerBreakdown(Runner &runner)
{
    Table table("Figure 6: I-cache power breakdown "
                "(switching/internal/leakage %)");
    std::vector<std::string> header = {"benchmark"};
    for (ConfigId id : kAllConfigs) {
        header.push_back(std::string(configName(id)) + " sw");
        header.push_back(std::string(configName(id)) + " int");
        header.push_back(std::string(configName(id)) + " lk");
    }
    table.setHeader(header);

    std::vector<std::vector<double>> sums(12);
    for (const BenchResult *bench : runner.all()) {
        std::vector<double> cells;
        for (ConfigId id : kAllConfigs) {
            const CachePowerBreakdown &p = bench->of(id).icache;
            cells.push_back(100.0 * p.switchingShare());
            cells.push_back(100.0 * p.internalShare());
            cells.push_back(100.0 * p.leakageShare());
        }
        for (size_t c = 0; c < cells.size(); ++c)
            sums[c].push_back(cells[c]);
        table.addRow(bench->name, cells, 1);
    }
    std::vector<double> avg;
    for (auto &col : sums)
        avg.push_back(columnAverage(col));
    table.addRow("average", avg, 1);
    return table;
}

namespace
{

Table
savingTable(Runner &runner, const std::string &title,
            CachePowerBreakdown::Component component)
{
    return perBench(
        runner, title, {"benchmark", "FITS16", "FITS8", "ARM8"},
        [component](const BenchResult &b) {
            return std::vector<double>{
                100.0 * b.saving(ConfigId::FITS16, component),
                100.0 * b.saving(ConfigId::FITS8, component),
                100.0 * b.saving(ConfigId::ARM8, component)};
        });
}

} // namespace

Table
fig7SwitchingSaving(Runner &runner)
{
    return savingTable(runner,
                       "Figure 7: I-cache switching power saving (%)",
                       CachePowerBreakdown::Component::SWITCHING);
}

Table
fig8InternalSaving(Runner &runner)
{
    return savingTable(runner,
                       "Figure 8: I-cache internal power saving (%)",
                       CachePowerBreakdown::Component::INTERNAL);
}

Table
fig9LeakageSaving(Runner &runner)
{
    return savingTable(runner,
                       "Figure 9: I-cache leakage power saving (%)",
                       CachePowerBreakdown::Component::LEAKAGE);
}

Table
fig10PeakSaving(Runner &runner)
{
    return perBench(
        runner, "Figure 10: I-cache peak power saving (%)",
        {"benchmark", "FITS16", "FITS8", "ARM8"},
        [](const BenchResult &b) {
            return std::vector<double>{
                100.0 * b.peakSaving(ConfigId::FITS16),
                100.0 * b.peakSaving(ConfigId::FITS8),
                100.0 * b.peakSaving(ConfigId::ARM8)};
        });
}

Table
fig11TotalCacheSaving(Runner &runner)
{
    return savingTable(runner,
                       "Figure 11: total I-cache power saving (%)",
                       CachePowerBreakdown::Component::TOTAL);
}

Table
fig12ChipSaving(Runner &runner)
{
    return perBench(
        runner, "Figure 12: total chip power saving (%)",
        {"benchmark", "FITS16", "FITS8", "ARM8"},
        [](const BenchResult &b) {
            return std::vector<double>{
                100.0 * b.chipSaving(ConfigId::FITS16),
                100.0 * b.chipSaving(ConfigId::FITS8),
                100.0 * b.chipSaving(ConfigId::ARM8)};
        });
}

Table
fig13MissRate(Runner &runner)
{
    return perBench(
        runner,
        "Figure 13: I-cache miss rate (misses per million accesses)",
        {"benchmark", "ARM16", "ARM8", "FITS16", "FITS8"},
        [](const BenchResult &b) {
            return std::vector<double>{
                b.of(ConfigId::ARM16).run.icache.missesPerMillion(),
                b.of(ConfigId::ARM8).run.icache.missesPerMillion(),
                b.of(ConfigId::FITS16).run.icache.missesPerMillion(),
                b.of(ConfigId::FITS8).run.icache.missesPerMillion()};
        });
}

Table
extWayMemoTable(Runner &runner)
{
    Table table("E9: way memoization "
                "(memo-hit % of fetches / internal energy saving %)");
    std::vector<std::string> header = {"benchmark"};
    for (ConfigId id : kAllConfigs) {
        header.push_back(std::string(configName(id)) + " memo");
        header.push_back(std::string(configName(id)) + " int sv");
    }
    table.setHeader(header);

    std::vector<std::vector<double>> sums(8);
    for (const BenchResult *bench : runner.all()) {
        std::vector<double> cells;
        for (ConfigId id : kAllConfigs) {
            const ConfigResult &cfg = bench->of(id);
            const CacheStats &ic = cfg.run.icache;
            double accesses = static_cast<double>(ic.accesses());
            cells.push_back(
                accesses ? 100.0 * static_cast<double>(ic.wayMemoHits) /
                               accesses
                         : 0.0);

            // Re-price the same run with memoization on; the baseline
            // internal energy is the one every other table reports.
            TechParams tech = runner.params().tech;
            CoreConfig core = runner.coreConfig(id);
            tech.clockHz = core.clockHz;
            tech.wayMemo = true;
            CachePowerModel model(core.icache, tech);
            CachePowerBreakdown with = model.evaluate(cfg.run);
            double base = cfg.icache.internalJ;
            cells.push_back(
                base ? 100.0 * (1.0 - with.internalJ / base) : 0.0);
        }
        for (size_t c = 0; c < cells.size(); ++c)
            sums[c].push_back(cells[c]);
        table.addRow(bench->name, cells, 1);
    }
    std::vector<double> avg;
    for (auto &col : sums)
        avg.push_back(columnAverage(col));
    table.addRow("average", avg, 1);
    return table;
}

Table
fig11DvsTable(Runner &runner)
{
    const std::vector<OperatingPoint> ladder = defaultDvsLadder();

    Table table("Figure 11 (DVS axis): suite-total I-cache energy "
                "(mJ) and EDP (uJ*s) per operating point");
    std::vector<std::string> header = {"operating point"};
    for (ConfigId id : kAllConfigs) {
        header.push_back(std::string(configName(id)) + " mJ");
        header.push_back(std::string(configName(id)) + " EDP");
    }
    header.push_back("FITS8 sv %");
    table.setHeader(header);

    std::vector<const BenchResult *> benches = runner.all();
    for (const OperatingPoint &op : ladder) {
        std::vector<double> cells;
        double arm16J = 0, fits8J = 0;
        for (ConfigId id : kAllConfigs) {
            CoreConfig core = runner.coreConfig(id);
            TechParams tech = runner.params().tech;
            tech.clockHz = core.clockHz;
            CachePowerModel model(core.icache,
                                  tech.atOperatingPoint(op));
            double energy = 0, edp = 0;
            for (const BenchResult *bench : benches) {
                // Same simulated activity, re-priced: only the power
                // model and the wall clock move with the ladder.
                RunResult run = bench->of(id).run;
                run.clockHz = op.clockHz;
                CachePowerBreakdown p = model.evaluate(run);
                energy += p.totalJ();
                edp += p.totalJ() * run.seconds();
            }
            if (id == ConfigId::ARM16)
                arm16J = energy;
            if (id == ConfigId::FITS8)
                fits8J = energy;
            cells.push_back(1e3 * energy);
            cells.push_back(1e6 * edp);
        }
        cells.push_back(arm16J ? 100.0 * (1.0 - fits8J / arm16J)
                               : 0.0);
        table.addRow(op.name, cells, 3);
    }
    return table;
}

Table
fig14Ipc(Runner &runner)
{
    return perBench(
        runner, "Figure 14: instructions per cycle (max 2)",
        {"benchmark", "ARM16", "ARM8", "FITS16", "FITS8"},
        [](const BenchResult &b) {
            return std::vector<double>{b.of(ConfigId::ARM16).run.ipc(),
                                       b.of(ConfigId::ARM8).run.ipc(),
                                       b.of(ConfigId::FITS16).run.ipc(),
                                       b.of(ConfigId::FITS8).run.ipc()};
        },
        3);
}

} // namespace pfits
