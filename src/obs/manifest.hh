/**
 * @file
 * Run manifests: full provenance for one bench binary invocation.
 *
 * A manifest records everything needed to trust (or re-create) a
 * figure run — the git state and build flavour of the binary, the
 * experiment parameters, the content hashes of every (program, config)
 * pair the engine simulated, the complete result tables, the engine's
 * own metrics, and wall/CPU time. Every bench binary writes one with
 * `--json <path>`; `pfits_report` aggregates a directory of manifests
 * into a suite file and diffs two suite files for regression tracking
 * (docs/OBSERVABILITY.md documents the schema and tolerance policy).
 */

#ifndef POWERFITS_OBS_MANIFEST_HH
#define POWERFITS_OBS_MANIFEST_HH

#include <compare>
#include <cstddef>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "common/fields.hh"
#include "common/table.hh"

namespace pfits
{

class MetricRegistry;

/** Manifest schema identifiers (bumped on incompatible change). */
inline constexpr const char *kManifestSchema = "pfits-manifest-v1";
inline constexpr const char *kSuiteSchema = "pfits-suite-v1";

/** Git description of the built tree ("v1.2-3-gabc123" or a hash). */
const char *buildGitDescribe();

/** True when the tree had uncommitted changes at configure time. */
bool buildGitDirty();

/** CMAKE_BUILD_TYPE the binary was built with. */
const char *buildType();

/** Sanitizer flavour: "none", "asan+ubsan" or "ubsan". */
const char *buildSanitizers();

/**
 * The memo key of one simulation: the content hashes the SimCache, the
 * pfitsd store and a manifest's "sims" section all index results by
 * (exp/simcache.hh computes them).
 */
struct SimKey
{
    uint64_t program = 0;   //!< hashFrontEnd of the simulated program
    uint64_t config = 0;    //!< hashConfigKey of its core (and chip)
    uint64_t faults = 0;    //!< hashFaultParams (0 = no faults)
    uint64_t observers = 0; //!< hashObserverSpec (0 = no instruments)

    bool operator==(const SimKey &) const = default;

    /** Lexicographic in row order: the manifest's "sims" order. */
    auto operator<=>(const SimKey &) const = default;

    /** The field list (common/fields.hh): the key's JSON form. */
    template <class V>
    static void
    fields(V &v)
    {
        v("program", &SimKey::program, kHex);
        v("config", &SimKey::config, kHex);
        v("faults", &SimKey::faults, kHex);
        v("observers", &SimKey::observers, kHex);
    }
};

/** FNV-1a over a SimKey's four hashes, for unordered containers. */
struct SimKeyHash
{
    size_t operator()(const SimKey &k) const;
};

/**
 * The experiment knobs worth recording. Mirrors the fields of
 * ExperimentParams the provenance story needs (the full struct lives
 * above this layer); `recorded` distinguishes "params unknown" from
 * all-defaults.
 */
struct ManifestParams
{
    bool recorded = false;
    unsigned jobs = 0;          //!< 0 = process default pool
    uint64_t faultSeed = 0;     //!< 0 unless fault injection was armed
    unsigned faultRetries = 0;
    uint64_t intervalInstructions = 0; //!< ObserverSpec mirror
    uint64_t traceDepth = 0;
    bool traceOnTrap = false;
    std::string traceDir;
};

/** Everything one manifest serializes; fill and call write(). */
struct RunManifest
{
    std::string tool;  //!< bench binary name, e.g. "fig05_code_size"
    std::string note;  //!< the paper-comparison note, when one exists
    ManifestParams params;
    std::vector<SimKey> sims;       //!< sorted for determinism
    std::vector<const Table *> tables; //!< borrowed; must outlive write()
    const MetricRegistry *metrics = nullptr; //!< optional
    double wallMs = 0;
    double cpuMs = 0;

    /** Serialize as pretty-printed JSON (schema pfits-manifest-v1). */
    void write(std::ostream &os) const;
};

/** Process CPU time (all threads, user+system) in milliseconds. */
double processCpuMs();

} // namespace pfits

#endif // POWERFITS_OBS_MANIFEST_HH
