/**
 * @file
 * The experiment registry: one row per experiment pfits_run can run —
 * the paper's Figures 3-14 (Section 6), the ablations of DESIGN.md §6
 * and the extensions. A row's name is the experiment's tool identity:
 * its golden snapshot is tests/golden/<name>.txt and its manifest's
 * "tool" is <name>.
 */

#ifndef POWERFITS_BENCH_EXPERIMENTS_HH
#define POWERFITS_BENCH_EXPERIMENTS_HH

#include <span>
#include <string>
#include <vector>

#include "common/table.hh"
#include "exp/experiment.hh"

namespace pfits
{

/** What one experiment produces, in print order. */
struct ExperimentOutput
{
    std::string preface = {};       //!< text above the tables (not CSV)
    std::vector<Table> tables = {}; //!< printed, and kept in the manifest
    std::string remarks = {};       //!< text below the tables (not CSV)
};

/**
 * One registry row. Exactly one of paper/note is set: a row that
 * reproduces a paper result closes with "paper reports: <paper>" and
 * records <paper> as its manifest note; any other row closes with
 * <note> verbatim. Neither is printed with --csv.
 */
struct Experiment
{
    const char *name;
    const char *paper = nullptr;
    const char *note = nullptr;
    //!< The experiment's tables from @p params, which already carry
    //!< the driver's shared flags (--jobs, --trace-on-trap, ...).
    ExperimentOutput (*run)(const ExperimentParams &params);
};

/** Every registered experiment, in --list order. */
std::span<const Experiment> experiments();

/** The registry row called @p name, or nullptr. */
const Experiment *findExperiment(const std::string &name);

// The experiments with a body of their own (bench/<name>.cc); the
// paper figures are rows over the exp/figures.hh builders.
ExperimentOutput ablCacheGeometry(const ExperimentParams &params);
ExperimentOutput ablDictionarySweep(const ExperimentParams &params);
ExperimentOutput ablRegisterSweep(const ExperimentParams &params);
ExperimentOutput ablSynthesisFeatures(const ExperimentParams &params);
ExperimentOutput extChipPower(const ExperimentParams &params);
ExperimentOutput extCodeCompression(const ExperimentParams &params);
ExperimentOutput extDcachePower(const ExperimentParams &params);
ExperimentOutput extFaultResilience(const ExperimentParams &params);
ExperimentOutput extFetchPacking(const ExperimentParams &params);
ExperimentOutput extIssueWidth(const ExperimentParams &params);
ExperimentOutput extLeakagePolicy(const ExperimentParams &params);
ExperimentOutput extPhaseBehavior(const ExperimentParams &params);
ExperimentOutput extProfileFidelity(const ExperimentParams &params);

} // namespace pfits

#endif // POWERFITS_BENCH_EXPERIMENTS_HH
