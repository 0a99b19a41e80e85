/**
 * @file
 * Extension E8: chip-level scaling of the FITS story. The paper
 * evaluates one core; this extension asks what happens when N tiles —
 * each running its own kernel copy behind private L1s — share one
 * MSI-coherent L2 (sim/chip.hh). For tile counts 1/2/4/8 it reports
 * aggregate chip power (N tiles plus the shared-L2/directory uncore)
 * and mean per-tile IPC for ARM16 vs FITS16, over a six-kernel
 * cross-section of the suite. The FITS question at chip scale: do the
 * per-core I-cache savings survive — and compound — when multiplied
 * by N and taxed by the uncore?
 */

#include <string>
#include <vector>

#include "experiments.hh"
#include "power/chip_power.hh"

namespace pfits
{

namespace
{

/**
 * One kernel per suite category, small enough that the chip runs keep
 * the bench quick while still spanning control-heavy (dijkstra),
 * data-heavy (qsort), and kernel-loop (sha, crc32, gsm, bitcount)
 * behavior.
 */
const std::vector<std::string> kKernels = {
    "bitcount", "qsort", "dijkstra", "sha", "crc32", "gsm",
};

constexpr unsigned kTileCounts[] = {1, 2, 4, 8};

/** One (tile count, config) sweep point, aggregated over a chip run. */
struct Point
{
    double chipW = 0;       //!< aggregate chip power (tiles + uncore)
    double ipcPerTile = 0;  //!< mean per-tile IPC
    double l2Mpki = 0;      //!< shared-L2 misses per kilo-instruction
    double invalPerMi = 0;  //!< invalidations per million instructions
};

Point
evaluate(Runner &runner, const std::string &bench, ConfigId id)
{
    const ConfigResult &cfg = runner.get(bench).of(id);
    Point p;
    if (!cfg.chipRun.ranAsChip()) {
        // tiles = 1: the plain single-core run, no uncore to pay for.
        p.chipW = cfg.chip.totalW();
        p.ipcPerTile = cfg.run.ipc();
        return p;
    }

    const ChipRunStats &chip = cfg.chipRun;
    const size_t tiles = chip.tileCycles.size();
    const double seconds =
        static_cast<double>(chip.chipCycles) / cfg.run.clockHz;

    // Homogeneous tiles: every tile executes the same program behind
    // identical private L1s, so tile 0's detailed energy (cfg.chip,
    // evaluated by the Runner) stands for each of the N. The uncore
    // charges the shared-L2 array, the MSI directory, and the line
    // traffic that coherence puts on the interconnect.
    UncorePowerModel uncore(runner.params().uncore);
    const double tiles_j =
        cfg.chip.totalJ() * static_cast<double>(tiles);
    const double uncore_j =
        uncore.evaluate(chip.l2, chip.coherence, seconds).totalJ();
    p.chipW = seconds != 0 ? (tiles_j + uncore_j) / seconds : 0;

    double ipc_sum = 0;
    uint64_t instr_sum = 0;
    for (size_t t = 0; t < tiles; ++t) {
        if (chip.tileCycles[t])
            ipc_sum += static_cast<double>(chip.tileInstructions[t]) /
                       static_cast<double>(chip.tileCycles[t]);
        instr_sum += chip.tileInstructions[t];
    }
    p.ipcPerTile = ipc_sum / static_cast<double>(tiles);
    if (instr_sum) {
        p.l2Mpki = static_cast<double>(chip.l2.misses()) * 1000.0 /
                   static_cast<double>(instr_sum);
        p.invalPerMi =
            static_cast<double>(chip.coherence.invalidations +
                                chip.coherence.backInvalidations) *
            1e6 / static_cast<double>(instr_sum);
    }
    return p;
}

/** Mean of evaluate() over the kernel cross-section. */
Point
sweepPoint(Runner &runner, ConfigId id)
{
    Point mean;
    for (const std::string &bench : kKernels) {
        Point p = evaluate(runner, bench, id);
        mean.chipW += p.chipW;
        mean.ipcPerTile += p.ipcPerTile;
        mean.l2Mpki += p.l2Mpki;
        mean.invalPerMi += p.invalPerMi;
    }
    const double n = static_cast<double>(kKernels.size());
    mean.chipW /= n;
    mean.ipcPerTile /= n;
    mean.l2Mpki /= n;
    mean.invalPerMi /= n;
    return mean;
}

} // namespace

ExperimentOutput
extChipPower(const ExperimentParams &base)
{
    Table table("Extension E8: aggregate chip power and per-tile IPC vs "
                "tile count (6-kernel mean)");
    table.setHeader({"tiles", "ARM16 mW", "FITS16 mW", "saving %",
                     "ARM16 IPC/tile", "FITS16 IPC/tile",
                     "FITS16 L2 MPKI", "FITS16 inval/Mi"});

    for (unsigned tiles : kTileCounts) {
        // One Runner per tile count: the chip shape joins the SimCache
        // memo key, so nothing here re-simulates a single-core entry
        // (or vice versa).
        ExperimentParams params = base;
        if (tiles != 1) {
            params.chipSim.tiles = tiles;
            params.chipSim.sharedL2 = true;
        } else {
            params.chipSim = ChipConfig{};
        }
        Runner runner(params);
        Point arm = sweepPoint(runner, ConfigId::ARM16);
        Point fits = sweepPoint(runner, ConfigId::FITS16);
        double saving =
            arm.chipW != 0 ? 100.0 * (1.0 - fits.chipW / arm.chipW) : 0.0;
        table.addRow(std::to_string(tiles),
                     {arm.chipW * 1e3, fits.chipW * 1e3, saving,
                      arm.ipcPerTile, fits.ipcPerTile, fits.l2Mpki,
                      fits.invalPerMi},
                     2);
    }
    return {.tables = {table}};
}

} // namespace pfits
