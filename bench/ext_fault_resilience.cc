/**
 * @file
 * Extension E6: soft-error resilience as a side effect of code density.
 *
 * The paper sells FITS on power, but the same halved I-cache footprint
 * also halves the bit-cells a particle strike can corrupt. This bench
 * makes that argument quantitative across the 21-kernel suite, on the
 * two extreme configurations (ARM16: 16 KiB I-cache; FITS8: 8 KiB):
 *
 *  1. a golden-output gate at fault rate zero (every kernel must match
 *     its reference checksum on both ISAs before any fault talk),
 *  2. an upset sweep at constant particle flux — the injection interval
 *     scales with cache size, so the smaller FITS cache sees
 *     proportionally fewer strikes per cycle of residency,
 *  3. parity on/off detection coverage and the retry-with-reload cost,
 *  4. a decoder-config corruption experiment: seeded single-bit flips
 *     of each kernel's saved configuration, all of which the serialize
 *     checksum must catch.
 *
 * Everything is seeded; two invocations print byte-identical reports.
 * "--trace-on-trap" arms a bounded flight recorder on every simulated
 * run: each parity machine-check appends its last 64 events as JSONL
 * to <kernel>_<ARM16|FITS8>.trace.jsonl in the --trace-dir directory
 * (the report itself is unchanged — observers never alter results).
 * The parity-off coverage rows repeat the sweep's runs, so they are
 * memo hits and append no second dump.
 */

#include <string>
#include <vector>

#include "common/fault.hh"
#include "common/logging.hh"
#include "exp/simservice.hh"
#include "experiments.hh"
#include "fits/serialize.hh"
#include "mibench/mibench.hh"

namespace pfits
{

namespace
{

/** Base mean instructions between upsets for the ARM16 cache. */
constexpr uint64_t kBaseInterval = 5000;
constexpr unsigned kMaxRetries = 3;
constexpr int kConfigFlips = 64;

struct FaultyRunStats
{
    RunOutcome outcome = RunOutcome::Trapped;
    uint32_t cacheBytes = 0; //!< I-cache size of the run's core
    uint64_t cycles = 0;
    FaultCounts icache; //!< summed over every attempt
    bool goldenOk = false;
    bool sdc = false; //!< completed with the wrong answer
    unsigned retries = 0;
};

/**
 * Run one (kernel, ISA) pair under a fault schedule through the
 * simulation service, which reloads and retries after a parity
 * machine-check (runSimulation). At constant flux the injection
 * interval scales with cache size.
 */
FaultyRunStats
faultyRun(const ObserverSpec &observe, const PreparedBench &setup,
          bool is_fits, bool parity, uint64_t base_interval,
          uint64_t seed)
{
    const std::string &name = setup.result->name;
    CoreConfig core =
        paperCoreConfig(is_fits ? ConfigId::FITS8 : ConfigId::ARM16);
    core.icache.parity = parity;

    FaultParams fp;
    fp.seed = seed ^ configChecksum(name) ^
              (static_cast<uint64_t>(is_fits) << 56) ^
              (static_cast<uint64_t>(parity) << 57);
    if (base_interval)
        fp.icacheMeanInterval =
            base_interval *
            paperCoreConfig(ConfigId::ARM16).icache.sizeBytes /
            core.icache.sizeBytes;
    const SimResult sim = currentSimService()->simulate(
        {.fe = is_fits ? static_cast<const FrontEnd *>(setup.fitsFe.get())
                       : setup.armFe.get(),
         .core = &core,
         .faults = fp,
         .maxRetries = kMaxRetries,
         .spec = observe,
         .bench = name,
         .isFits = is_fits});
    const RunResult &rr = sim.run;

    FaultyRunStats out;
    out.cacheBytes = core.icache.sizeBytes;
    out.outcome = rr.outcome;
    out.cycles = rr.cycles;
    out.icache = sim.faultTally[static_cast<size_t>(FaultTarget::ICACHE)];
    out.retries = sim.faultRetries;
    out.goldenOk = rr.outcome == RunOutcome::Completed &&
                   !rr.io.emitted.empty() &&
                   rr.io.emitted[0] == setup.expected;
    out.sdc = rr.outcome == RunOutcome::Completed && !out.goldenOk;
    return out;
}

/** Upsets per GiB-cycle of cache residency (cross-section metric). */
double
upsetsPerGibCycle(const FaultyRunStats &s)
{
    double exposure = static_cast<double>(s.cacheBytes) *
                      static_cast<double>(s.cycles);
    return exposure > 0
               ? static_cast<double>(s.icache.injected) / exposure *
                     (1 << 30)
               : 0.0;
}

} // namespace

ExperimentOutput
extFaultResilience(const ExperimentParams &params)
{
    const ObserverSpec &observe = params.observers;
    setQuiet(true);
    std::vector<PreparedBench> setups;
    for (const auto &info : mibench::suite())
        setups.push_back(prepareBenchmark(info.name, params));

    // --- 1. Golden gate at fault rate zero ---------------------------
    for (const PreparedBench &s : setups) {
        for (bool is_fits : {false, true}) {
            FaultyRunStats clean =
                faultyRun(observe, s, is_fits, false, 0, 0);
            if (!clean.goldenOk)
                fatal("%s/%s failed its golden checksum with faults "
                      "disabled",
                      s.result->name.c_str(),
                      is_fits ? "FITS8" : "ARM16");
        }
    }

    // --- 2+3. Upset sweep at constant flux ---------------------------
    Table sweep("Extension E6: soft-error sweep "
                "(constant flux, parity off)");
    sweep.setHeader({"benchmark", "ARM16 inj", "FITS8 inj", "inj ratio",
                     "ARM16 upsets/GiBcyc", "FITS8 upsets/GiBcyc",
                     "SDC"});
    double ratio_sum = 0;
    uint64_t sdc_total = 0;
    for (const PreparedBench &s : setups) {
        FaultyRunStats arm =
            faultyRun(observe, s, false, false, kBaseInterval, 0xe6);
        FaultyRunStats fits =
            faultyRun(observe, s, true, false, kBaseInterval, 0xe6);
        double ratio =
            arm.icache.injected
                ? static_cast<double>(fits.icache.injected) /
                      arm.icache.injected
                : 0.0;
        ratio_sum += ratio;
        sdc_total += (arm.sdc ? 1 : 0) + (fits.sdc ? 1 : 0);
        sweep.addRow(s.result->name,
                     {static_cast<double>(arm.icache.injected),
                      static_cast<double>(fits.icache.injected), ratio,
                      upsetsPerGibCycle(arm), upsetsPerGibCycle(fits),
                      static_cast<double>((arm.sdc ? 1 : 0) +
                                          (fits.sdc ? 1 : 0))},
                     3);
    }
    sweep.addRow("average",
                 {0, 0, ratio_sum / setups.size(), 0, 0,
                  static_cast<double>(sdc_total)},
                 3);

    Table coverage("Extension E6: parity coverage and retry cost");
    coverage.setHeader({"benchmark", "config", "injected", "detected",
                        "escaped", "coverage %", "retries", "outcome"});
    for (const PreparedBench &s : setups) {
        for (bool is_fits : {false, true}) {
            for (bool parity : {false, true}) {
                FaultyRunStats r = faultyRun(observe, s, is_fits,
                                             parity, kBaseInterval, 0xe6);
                const FaultCounts &ic = r.icache;
                uint64_t consumed = ic.detected + ic.escaped;
                double cover =
                    consumed ? 100.0 * static_cast<double>(ic.detected) /
                                   static_cast<double>(consumed)
                             : 100.0;
                std::string cfg =
                    std::string(is_fits ? "FITS8" : "ARM16") +
                    (parity ? "+par" : "");
                coverage.addRow({s.result->name, cfg,
                                 std::to_string(ic.injected),
                                 std::to_string(ic.detected),
                                 std::to_string(ic.escaped),
                                 formatDouble(cover, 1),
                                 std::to_string(r.retries),
                                 runOutcomeName(r.outcome)});
            }
        }
    }

    // --- 4. Decoder-config corruption --------------------------------
    Table config("Extension E6: decoder-config corruption "
                 "(single-bit flips)");
    config.setHeader({"benchmark", "config bytes", "flips", "detected",
                      "coverage %"});
    for (const PreparedBench &s : setups) {
        const std::string &name = s.result->name;
        const std::string text = saveFitsIsa(s.fitsFe->program().isa);
        FaultParams fp;
        fp.seed = 0xc0f1 ^ configChecksum(name);
        FaultPlan plan(fp);
        int caught = 0;
        for (int i = 0; i < kConfigFlips; ++i) {
            std::string mutated = text;
            plan.corruptTextBit(mutated);
            try {
                loadFitsIsa(mutated);
            } catch (const ConfigError &) {
                ++caught;
            }
        }
        if (caught != kConfigFlips)
            fatal("%s: %d/%d config corruptions escaped the checksum",
                  name.c_str(), kConfigFlips - caught, kConfigFlips);
        config.addRow(name,
                      {static_cast<double>(text.size()),
                       static_cast<double>(kConfigFlips),
                       static_cast<double>(caught), 100.0},
                      1);
    }

    return {.preface = "golden gate: all " +
                       std::to_string(setups.size()) +
                       " kernels match their reference checksums on "
                       "ARM16 and FITS8 with faults disabled\n",
            .tables = {sweep, coverage, config}};
}

} // namespace pfits
