#include "obs/manifest.hh"

#include <algorithm>
#include <ctime>

#include "obs/json_fields.hh"
#include "obs/metrics.hh"

// Build provenance is injected at configure time (src/obs/CMakeLists).
// It is as fresh as the last cmake run — `git describe` output includes
// "-dirty" when the tree had local edits then.
#ifndef PFITS_GIT_DESCRIBE
#define PFITS_GIT_DESCRIBE "unknown"
#endif
#ifndef PFITS_GIT_DIRTY
#define PFITS_GIT_DIRTY 0
#endif
#ifndef PFITS_BUILD_TYPE
#define PFITS_BUILD_TYPE "unknown"
#endif
#ifndef PFITS_SANITIZERS
#define PFITS_SANITIZERS "none"
#endif

namespace pfits
{

const char *
buildGitDescribe()
{
    return PFITS_GIT_DESCRIBE;
}

bool
buildGitDirty()
{
    return PFITS_GIT_DIRTY != 0;
}

const char *
buildType()
{
    return PFITS_BUILD_TYPE;
}

const char *
buildSanitizers()
{
    return PFITS_SANITIZERS;
}

double
processCpuMs()
{
    // clock() sums CPU time across all threads of the process — the
    // right denominator for "how hard did the engine work".
    return static_cast<double>(std::clock()) * 1000.0 / CLOCKS_PER_SEC;
}

size_t
SimKeyHash::operator()(const SimKey &k) const
{
    uint64_t h = 0xcbf29ce484222325ull;
    for (uint64_t v : {k.program, k.config, k.faults, k.observers}) {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xffu;
            h *= 0x100000001b3ull;
        }
    }
    return static_cast<size_t>(h);
}

namespace
{

void
writeTableJson(JsonWriter &w, const Table &t)
{
    w.beginObject();
    w.field("title", t.title());
    w.key("header");
    w.beginArray();
    for (const std::string &h : t.header())
        w.value(h);
    w.endArray();
    w.key("rows");
    w.beginArray();
    for (const auto &row : t.body()) {
        w.beginArray();
        for (const std::string &cell : row)
            w.value(cell);
        w.endArray();
    }
    w.endArray();
    w.endObject();
}

} // namespace

void
RunManifest::write(std::ostream &os) const
{
    std::vector<SimKey> sorted = sims;
    std::sort(sorted.begin(), sorted.end());

    JsonWriter w(os);
    w.beginObject();
    w.field("schema", kManifestSchema);
    w.field("tool", tool);
    if (!note.empty())
        w.field("note", note);
    w.field("created_unix",
            static_cast<uint64_t>(std::time(nullptr)));

    w.key("git");
    w.beginObject();
    w.field("describe", buildGitDescribe());
    w.field("dirty", buildGitDirty());
    w.endObject();

    w.key("build");
    w.beginObject();
    w.field("type", buildType());
    w.field("sanitizers", buildSanitizers());
    w.endObject();

    w.key("params");
    w.beginObject();
    w.field("recorded", params.recorded);
    w.field("jobs", params.jobs);
    w.key("fault_seed");
    w.hexValue(params.faultSeed);
    w.field("fault_retries", params.faultRetries);
    w.key("observers");
    w.beginObject();
    w.field("interval_instructions", params.intervalInstructions);
    w.field("trace_depth", params.traceDepth);
    w.field("trace_on_trap", params.traceOnTrap);
    w.field("trace_dir", params.traceDir);
    w.endObject();
    w.endObject();

    w.key("sims");
    w.beginArray();
    for (const SimKey &k : sorted)
        writeJsonFields(w, k);
    w.endArray();

    w.key("tables");
    w.beginArray();
    for (const Table *t : tables)
        if (t)
            writeTableJson(w, *t);
    w.endArray();

    w.key("metrics");
    if (metrics) {
        metrics->writeJson(w);
    } else {
        w.beginObject();
        w.endObject();
    }

    w.key("time");
    w.beginObject();
    w.field("wall_ms", wallMs);
    w.field("cpu_ms", cpuMs);
    w.endObject();

    w.endObject();
}

} // namespace pfits
