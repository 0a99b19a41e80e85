/**
 * @file
 * Regression tracking over run manifests: aggregate a directory of
 * per-bench manifests into one suite document, validate documents
 * against the schema, and diff two suite files — flagging numeric
 * drift in table values beyond a tolerance, shape changes and metric
 * key changes. Wall times are host-specific and never gate a diff; a
 * slowdown is caught by the exact work counters (bench_regress.sh) and
 * by perf/ab.sh on one host. `pfits_report` (report_main.cc) is the
 * CLI; scripts/bench_regress.sh wires it into the pre-merge gate.
 */

#ifndef POWERFITS_OBS_REPORT_HH
#define POWERFITS_OBS_REPORT_HH

#include <ostream>
#include <string>
#include <vector>

#include "obs/json.hh"

namespace pfits
{

/**
 * Combine per-bench manifests into one pfits-suite-v1 document.
 * Benches are sorted by tool name; git/build/provenance is taken from
 * the first manifest (mixed-provenance input is legal but noted in the
 * suite's "mixed_provenance" flag). Totals sum wall/CPU time and the
 * engine's fresh-sim/memo-hit counters across benches.
 */
JsonValue aggregateManifests(const std::vector<JsonValue> &manifests);

/** Serialize a document the way the repo writes JSON (deterministic). */
void writeJsonDocument(std::ostream &os, const JsonValue &doc);

/**
 * Schema check for a manifest or suite document.
 * @return "" when valid, else a description of the first problem.
 */
std::string validateDocument(const JsonValue &doc);

/** Knobs for diffSuites (defaults are the documented policy). */
struct DiffOptions
{
    /**
     * Relative tolerance for numeric table cells. Identical runs
     * produce identical formatted strings, so the tolerance only
     * absorbs deliberate reformatting; drift beyond it is a finding.
     */
    double valueTol = 1e-6;

    /**
     * Skip metric key-set comparison entirely. For diffs across
     * deployment modes (daemon-warm vs local sweeps), where the set of
     * touched instruments legitimately differs while the result
     * tables must not.
     */
    bool ignoreMetrics = false;
};

/** One discrepancy found by diffSuites. */
struct DiffFinding
{
    enum class Kind : uint8_t
    {
        ValueDrift,     //!< numeric cell moved beyond tolerance
        CellChanged,    //!< non-numeric cell differs
        ShapeChanged,   //!< table/row/column added or removed
        BenchMissing,   //!< bench present in baseline only
        BenchAdded,     //!< bench present in the new run only
        MetricMissing,    //!< metric key present in baseline only
        MetricAdded,      //!< metric key new in this run (informational)
        MetricKindChanged, //!< counter/gauge/histogram kind flipped
    };

    Kind kind;
    std::string where;  //!< "bench/table[row,col]" style locator
    std::string detail; //!< human-readable description
};

/** @return "value-drift"/"cell-changed"/... for a finding kind. */
const char *diffFindingKindName(DiffFinding::Kind kind);

/** diffSuites output: findings plus the gating verdict. */
struct DiffResult
{
    std::vector<DiffFinding> findings;
    unsigned benchesCompared = 0;
    unsigned tablesCompared = 0;
    unsigned cellsCompared = 0;

    /**
     * True when any finding should fail a CI gate. Additions —
     * a new bench, or a new metric key (fresh instrumentation) — are
     * informational; removals and kind changes still gate.
     */
    bool
    regression() const
    {
        for (const DiffFinding &f : findings)
            if (f.kind != DiffFinding::Kind::BenchAdded &&
                f.kind != DiffFinding::Kind::MetricAdded)
                return true;
        return false;
    }
};

/**
 * Compare two pfits-suite-v1 documents. Benches match by tool name,
 * tables by title, rows by their label cell, columns by header name —
 * so appending a new bench or a new table is reported as BenchAdded /
 * ShapeChanged rather than misaligning everything after it.
 */
DiffResult diffSuites(const JsonValue &baseline, const JsonValue &fresh,
                      const DiffOptions &options = {});

/** Print the findings and a one-line verdict (CLI output). */
void printDiffReport(std::ostream &os, const DiffResult &result,
                     const DiffOptions &options);

} // namespace pfits

#endif // POWERFITS_OBS_REPORT_HH
