/**
 * @file
 * The experiment registry table (experiments.hh). The paper figures
 * and E9 are one exp/figures.hh builder each over a Runner; the other
 * rows point at their own bench/<name>.cc.
 */

#include "experiments.hh"

#include "exp/figures.hh"

namespace pfits
{

namespace
{

/** A row whose single table is @p Builder over one Runner. */
template <Table (*Builder)(Runner &)>
ExperimentOutput
figure(const ExperimentParams &params)
{
    Runner runner(params);
    return {.tables = {Builder(runner)}};
}

/** Figure 11 followed by its voltage/frequency ladder table. */
ExperimentOutput
fig11WithDvs(const ExperimentParams &params)
{
    Runner runner(params);
    return {.tables = {fig11TotalCacheSaving(runner),
                       fig11DvsTable(runner)}};
}

const Experiment kExperiments[] = {
    {.name = "fig03_static_mapping",
     .paper = "a 96% average of static one-to-one mapping",
     .run = figure<fig3StaticMapping>},
    {.name = "fig04_dynamic_mapping",
     .paper = "a 98% average dynamic mapping",
     .run = figure<fig4DynamicMapping>},
    {.name = "fig05_code_size",
     .paper = "THUMB ~67% of ARM, FITS ~53% of ARM (47% eliminated)",
     .run = figure<fig5CodeSize>},
    {.name = "fig06_power_breakdown",
     .paper = "internal > 50% everywhere; switching share falls and "
              "internal share rises with cache size; FITS shifts share "
              "from switching to internal at equal size",
     .run = figure<fig6PowerBreakdown>},
    {.name = "fig07_switching_power",
     .paper = "~50% for FITS16 and FITS8; ARM8 saves virtually none",
     .run = figure<fig7SwitchingSaving>},
    {.name = "fig08_internal_power",
     .paper = "nontrivial savings for the half-sized FITS8/ARM8 "
              "(~43%); FITS16 ~0%",
     .run = figure<fig8InternalSaving>},
    {.name = "fig09_leakage_power",
     .paper = "14.9% average for FITS8; ARM8's saving eroded or wiped "
              "out by its longer operational period",
     .run = figure<fig9LeakageSaving>},
    {.name = "fig10_peak_power",
     .paper = "46% FITS16, 63% FITS8, 31% ARM8 (width x size compose)",
     .run = figure<fig10PeakSaving>},
    {.name = "fig11_total_cache_power",
     .paper = "FITS8 47% > ARM8 27% > FITS16 18%",
     .run = fig11WithDvs},
    {.name = "fig12_chip_power",
     .paper = "FITS8 15%; ARM8 8%; FITS16 7%",
     .run = figure<fig12ChipSaving>},
    {.name = "fig13_miss_rate",
     .paper = "half-sized FITS8 caches have no more misses than "
              "full-sized ARM16",
     .run = figure<fig13MissRate>},
    {.name = "fig14_ipc",
     .paper = "all IPCs satisfactory (dual-issue max 2); an 8 KB FITS "
              "cache achieves roughly the same IPC as a 16 KB ARM "
              "cache",
     .run = figure<fig14Ipc>},
    {.name = "abl_dictionary_sweep",
     .note = "expected shape: mapping and code size saturate once the "
             "dictionary holds the hot constants",
     .run = ablDictionarySweep},
    {.name = "abl_register_sweep",
     .note = "expected shape: forcing 4-bit fields on small register "
             "sets wastes opcode space and lowers the mapping rate; "
             "coverage saturates with the slot budget",
     .run = ablRegisterSweep},
    {.name = "abl_cache_geometry",
     .note = "expected shape: FITS8's total-power advantage holds "
             "across geometries; internal energy grows with "
             "associativity x line (column count)",
     .run = ablCacheGeometry},
    {.name = "abl_synthesis_features",
     .note = "expected shape: each heuristic contributes coverage; "
             "removing both visibly expands the translated code.",
     .run = ablSynthesisFeatures},
    {.name = "ext_code_compression",
     .note = "note: compressed code is decompressed on the fetch path, "
             "so unlike FITS it does not halve I-cache output "
             "switching (paper Section 2).",
     .run = extCodeCompression},
    {.name = "ext_fetch_packing",
     .note = "reading: with a fetch buffer, the 16-bit stream's "
             "internal power saving jumps from ~0% to ~50% at equal "
             "cache size — headroom beyond the paper's model.",
     .run = extFetchPacking},
    {.name = "ext_issue_width",
     .note = "expected shape: FITS8's saving and its ARM16-class IPC "
             "persist across issue widths.",
     .run = extIssueWidth},
    {.name = "ext_dcache_power",
     .note = "reading: FITS changes D-cache energy by only a few "
             "percent (expansion spills), so the I-cache savings are a "
             "real fetch-path effect.",
     .run = extDcachePower},
    {.name = "ext_profile_fidelity",
     .note = "reading: execution profiles buy a few points of dynamic "
             "coverage where static weights mis-rank hot slots; the "
             "power conclusion is robust to profile fidelity (the "
             "paper's future-work question).",
     .run = extProfileFidelity},
    {.name = "ext_fault_resilience",
     .note = "reading: at constant flux the 8 KiB FITS cache absorbs "
             "about half the upsets of the 16 KiB ARM cache for the "
             "same work; per-line parity converts every consumed upset "
             "into a detected machine-check (100% coverage) at the "
             "cost of reload retries, and the config checksum catches "
             "every single-bit flip of the stored decoder state.",
     .run = extFaultResilience},
    {.name = "ext_phase_behavior",
     .note = "reading: the FITS energy advantage holds in every phase, "
             "not just on average — the 16-bit stream delivers half "
             "the bits even where its denser encodings toggle at a "
             "higher per-bit rate — and miss activity concentrates in "
             "the first (setup) and last (result-check) phases, where "
             "each kernel's working set is installed.",
     .run = extPhaseBehavior},
    {.name = "ext_chip_power",
     .note = "reading: per-core FITS savings multiply across tiles "
             "while the shared-L2 uncore grows only with miss traffic, "
             "so the chip-level saving holds near the single-core "
             "figure at every tile count.",
     .run = extChipPower},
    {.name = "ext_way_memo",
     .paper = "extension (no paper counterpart): sequential fetch runs "
              "make most I-fetches memoizable on every kernel",
     .run = figure<extWayMemoTable>},
    {.name = "ext_leakage_policy",
     .note = "reading: both policies cut only the cell-array term — the "
             "shared column periphery leaks for the whole run under any "
             "policy — so savings cluster well below the ~30% cell "
             "share. Loop-resident kernels (fft, dijkstra) sleep most "
             "lines and reward gated's deeper cut; wake-heavy jpeg "
             "loses outright, its penalty cycles stretching the "
             "operational period faster than sleep pays it back.",
     .run = extLeakagePolicy},
};

} // namespace

std::span<const Experiment>
experiments()
{
    return kExperiments;
}

const Experiment *
findExperiment(const std::string &name)
{
    for (const Experiment &e : kExperiments)
        if (name == e.name)
            return &e;
    return nullptr;
}

} // namespace pfits
