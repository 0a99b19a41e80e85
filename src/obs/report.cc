#include "obs/report.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <map>

#include "common/logging.hh"
#include "obs/json_fields.hh"
#include "obs/manifest.hh"

namespace pfits
{

namespace
{

/** Parse @p s fully as a number; @return success. Handles "47.1%". */
bool
parseCell(const std::string &s, double *out)
{
    if (s.empty())
        return false;
    std::string text = s;
    if (text.back() == '%')
        text.pop_back();
    char *end = nullptr;
    double v = std::strtod(text.c_str(), &end);
    if (end != text.c_str() + text.size() || end == text.c_str())
        return false;
    *out = v;
    return true;
}

double
numberOr(const JsonValue &v, double fallback)
{
    return v.isNumber() ? v.asNumber() : fallback;
}

std::string
stringOr(const JsonValue &v, const std::string &fallback)
{
    return v.isString() ? v.asString() : fallback;
}

void
writeValueRec(JsonWriter &w, const JsonValue &v, bool as_key_done)
{
    (void)as_key_done;
    switch (v.type()) {
      case JsonValue::Type::Null:
        w.nullValue();
        break;
      case JsonValue::Type::Bool:
        w.value(v.asBool());
        break;
      case JsonValue::Type::Number:
        w.value(v.asNumber());
        break;
      case JsonValue::Type::String:
        w.value(v.asString());
        break;
      case JsonValue::Type::Array:
        w.beginArray();
        for (const JsonValue &item : v.asArray())
            writeValueRec(w, item, false);
        w.endArray();
        break;
      case JsonValue::Type::Object:
        w.beginObject();
        for (const auto &[key, val] : v.members()) {
            w.key(key);
            writeValueRec(w, val, true);
        }
        w.endObject();
        break;
    }
}

} // namespace

void
writeJsonDocument(std::ostream &os, const JsonValue &doc)
{
    JsonWriter w(os);
    writeValueRec(w, doc, false);
}

// --- aggregation ---------------------------------------------------------

JsonValue
aggregateManifests(const std::vector<JsonValue> &manifests)
{
    std::vector<const JsonValue *> sorted;
    sorted.reserve(manifests.size());
    for (const JsonValue &m : manifests)
        sorted.push_back(&m);
    std::stable_sort(sorted.begin(), sorted.end(),
                     [](const JsonValue *a, const JsonValue *b) {
                         return stringOr(a->get("tool"), "") <
                                stringOr(b->get("tool"), "");
                     });

    JsonValue suite = JsonValue::makeObject();
    suite.set("schema", JsonValue::makeString(kSuiteSchema));
    suite.set("created_unix",
              JsonValue::makeNumber(
                  static_cast<double>(std::time(nullptr))));

    bool mixed = false;
    if (!sorted.empty()) {
        const JsonValue &first = *sorted.front();
        suite.set("git", first.get("git"));
        suite.set("build", first.get("build"));
        for (const JsonValue *m : sorted) {
            if (stringOr(m->get("git").get("describe"), "") !=
                    stringOr(first.get("git").get("describe"), "") ||
                stringOr(m->get("build").get("type"), "") !=
                    stringOr(first.get("build").get("type"), ""))
                mixed = true;
        }
    }
    suite.set("mixed_provenance", JsonValue::makeBool(mixed));

    double wall = 0, cpu = 0, sims = 0, hits = 0, misses = 0;
    JsonValue benches = JsonValue::makeArray();
    for (const JsonValue *m : sorted) {
        JsonValue b = JsonValue::makeObject();
        b.set("tool", m->get("tool"));
        b.set("params", m->get("params"));
        b.set("tables", m->get("tables"));
        b.set("metrics", m->get("metrics"));
        b.set("time", m->get("time"));
        benches.push(std::move(b));

        wall += numberOr(m->get("time").get("wall_ms"), 0);
        cpu += numberOr(m->get("time").get("cpu_ms"), 0);
        if (m->get("sims").isArray())
            sims += static_cast<double>(m->get("sims").asArray().size());
        hits += numberOr(m->get("metrics").get("simcache.hits"), 0);
        misses += numberOr(m->get("metrics").get("simcache.misses"), 0);
    }
    suite.set("benches", std::move(benches));

    JsonValue totals = JsonValue::makeObject();
    totals.set("benches", JsonValue::makeNumber(
                              static_cast<double>(sorted.size())));
    totals.set("wall_ms", JsonValue::makeNumber(wall));
    totals.set("cpu_ms", JsonValue::makeNumber(cpu));
    totals.set("unique_sims", JsonValue::makeNumber(sims));
    totals.set("memo_hits", JsonValue::makeNumber(hits));
    totals.set("fresh_sims", JsonValue::makeNumber(misses));
    suite.set("totals", std::move(totals));
    return suite;
}

// --- validation ----------------------------------------------------------

namespace
{

std::string
validateTable(const JsonValue &t, const std::string &where)
{
    if (!t.isObject())
        return where + ": table is not an object";
    if (!t.get("title").isString())
        return where + ": missing string 'title'";
    const JsonValue &header = t.get("header");
    if (!header.isArray() || header.asArray().empty())
        return where + ": missing non-empty array 'header'";
    for (const JsonValue &h : header.asArray())
        if (!h.isString())
            return where + ": non-string header cell";
    const JsonValue &rows = t.get("rows");
    if (!rows.isArray())
        return where + ": missing array 'rows'";
    size_t width = header.asArray().size();
    for (const JsonValue &row : rows.asArray()) {
        if (!row.isArray() || row.asArray().size() != width)
            return where + ": row width != header width";
        for (const JsonValue &cell : row.asArray())
            if (!cell.isString())
                return where + ": non-string cell";
    }
    return "";
}

std::string
validateManifest(const JsonValue &doc)
{
    if (!doc.get("tool").isString())
        return "missing string 'tool'";
    const JsonValue &git = doc.get("git");
    if (!git.isObject() || !git.get("describe").isString() ||
        !git.get("dirty").isBool())
        return "missing git.describe/git.dirty";
    const JsonValue &build = doc.get("build");
    if (!build.isObject() || !build.get("type").isString() ||
        !build.get("sanitizers").isString())
        return "missing build.type/build.sanitizers";
    const JsonValue &params = doc.get("params");
    if (!params.isObject() || !params.get("recorded").isBool() ||
        !params.get("jobs").isNumber() ||
        !params.get("fault_seed").isString() ||
        !params.get("observers").isObject())
        return "missing params.{recorded,jobs,fault_seed,observers}";
    const JsonValue &sims = doc.get("sims");
    if (!sims.isArray())
        return "missing array 'sims'";
    for (const JsonValue &s : sims.asArray()) {
        SimKey key;
        if (!readJsonFields(s, key))
            return "sims entry missing program/config/faults/observers "
                   "hashes";
    }
    const JsonValue &tables = doc.get("tables");
    if (!tables.isArray())
        return "missing array 'tables'";
    for (size_t i = 0; i < tables.asArray().size(); ++i) {
        std::string err = validateTable(tables.asArray()[i],
                                        "tables[" + std::to_string(i) +
                                            "]");
        if (!err.empty())
            return err;
    }
    if (!doc.get("metrics").isObject())
        return "missing object 'metrics'";
    const JsonValue &time = doc.get("time");
    if (!time.isObject() || !time.get("wall_ms").isNumber() ||
        !time.get("cpu_ms").isNumber())
        return "missing time.wall_ms/time.cpu_ms";
    return "";
}

std::string
validateSuite(const JsonValue &doc)
{
    const JsonValue &benches = doc.get("benches");
    if (!benches.isArray())
        return "missing array 'benches'";
    for (size_t i = 0; i < benches.asArray().size(); ++i) {
        const JsonValue &b = benches.asArray()[i];
        std::string where = "benches[" + std::to_string(i) + "]";
        if (!b.isObject() || !b.get("tool").isString())
            return where + ": missing string 'tool'";
        const JsonValue &tables = b.get("tables");
        if (!tables.isArray())
            return where + ": missing array 'tables'";
        for (size_t t = 0; t < tables.asArray().size(); ++t) {
            std::string err = validateTable(
                tables.asArray()[t],
                where + ".tables[" + std::to_string(t) + "]");
            if (!err.empty())
                return err;
        }
        const JsonValue &time = b.get("time");
        if (!time.isObject() || !time.get("wall_ms").isNumber())
            return where + ": missing time.wall_ms";
    }
    const JsonValue &totals = doc.get("totals");
    if (!totals.isObject() || !totals.get("wall_ms").isNumber())
        return "missing totals.wall_ms";
    return "";
}

} // namespace

std::string
validateDocument(const JsonValue &doc)
{
    if (!doc.isObject())
        return "document is not a JSON object";
    const JsonValue &schema = doc.get("schema");
    if (!schema.isString())
        return "missing string 'schema'";
    if (schema.asString() == kManifestSchema)
        return validateManifest(doc);
    if (schema.asString() == kSuiteSchema)
        return validateSuite(doc);
    return "unknown schema '" + schema.asString() + "'";
}

// --- diff ----------------------------------------------------------------

const char *
diffFindingKindName(DiffFinding::Kind kind)
{
    switch (kind) {
      case DiffFinding::Kind::ValueDrift: return "value-drift";
      case DiffFinding::Kind::CellChanged: return "cell-changed";
      case DiffFinding::Kind::ShapeChanged: return "shape-changed";
      case DiffFinding::Kind::BenchMissing: return "bench-missing";
      case DiffFinding::Kind::BenchAdded: return "bench-added";
      case DiffFinding::Kind::MetricMissing: return "metric-missing";
      case DiffFinding::Kind::MetricAdded: return "metric-added";
      case DiffFinding::Kind::MetricKindChanged:
        return "metric-kind-changed";
      default: panic("bad DiffFinding::Kind");
    }
}

namespace
{

/** Rows keyed by label cell; duplicate labels get "#n" suffixes. */
std::map<std::string, const JsonValue *>
indexRows(const JsonValue &table)
{
    std::map<std::string, const JsonValue *> out;
    std::map<std::string, int> seen;
    for (const JsonValue &row : table.get("rows").asArray()) {
        if (!row.isArray() || row.asArray().empty())
            continue;
        std::string label = row.asArray()[0].asString();
        int n = seen[label]++;
        if (n)
            label += "#" + std::to_string(n);
        out.emplace(std::move(label), &row);
    }
    return out;
}

std::vector<std::string>
headerNames(const JsonValue &table)
{
    std::vector<std::string> out;
    for (const JsonValue &h : table.get("header").asArray())
        out.push_back(h.asString());
    return out;
}

void
diffTable(const JsonValue &base, const JsonValue &fresh,
          const std::string &where, const DiffOptions &options,
          DiffResult &result)
{
    std::vector<std::string> base_hdr = headerNames(base);
    std::vector<std::string> fresh_hdr = headerNames(fresh);
    if (base_hdr != fresh_hdr) {
        result.findings.push_back(
            {DiffFinding::Kind::ShapeChanged, where,
             "header changed (" + std::to_string(base_hdr.size()) +
                 " -> " + std::to_string(fresh_hdr.size()) +
                 " columns)"});
        return;
    }

    auto base_rows = indexRows(base);
    auto fresh_rows = indexRows(fresh);
    for (const auto &[label, base_row] : base_rows) {
        auto it = fresh_rows.find(label);
        if (it == fresh_rows.end()) {
            result.findings.push_back({DiffFinding::Kind::ShapeChanged,
                                       where + "[" + label + "]",
                                       "row removed"});
            continue;
        }
        const auto &bcells = base_row->asArray();
        const auto &fcells = it->second->asArray();
        for (size_t c = 1; c < bcells.size(); ++c) {
            const std::string &bs = bcells[c].asString();
            const std::string &fs = fcells[c].asString();
            ++result.cellsCompared;
            if (bs == fs)
                continue;
            std::string cell_where =
                where + "[" + label + "," + base_hdr[c] + "]";
            double bv = 0, fv = 0;
            if (parseCell(bs, &bv) && parseCell(fs, &fv)) {
                double scale = std::max(
                    1.0, std::max(std::abs(bv), std::abs(fv)));
                if (std::abs(fv - bv) <= options.valueTol * scale)
                    continue;
                char buf[128];
                std::snprintf(buf, sizeof(buf),
                              "%s -> %s (drift %.3g, tol %.3g)",
                              bs.c_str(), fs.c_str(),
                              std::abs(fv - bv) / scale,
                              options.valueTol);
                result.findings.push_back(
                    {DiffFinding::Kind::ValueDrift, cell_where, buf});
            } else {
                result.findings.push_back(
                    {DiffFinding::Kind::CellChanged, cell_where,
                     "'" + bs + "' -> '" + fs + "'"});
            }
        }
    }
    for (const auto &[label, row] : fresh_rows) {
        (void)row;
        if (!base_rows.count(label))
            result.findings.push_back({DiffFinding::Kind::ShapeChanged,
                                       where + "[" + label + "]",
                                       "row added"});
    }
    ++result.tablesCompared;
}

/** "counter"/"gauge"/"histogram" from a metric's serialized shape. */
const char *
metricKind(const JsonValue &v)
{
    if (v.isNumber())
        return "counter";
    if (v.isObject())
        return v.get("buckets").isArray() ? "histogram" : "gauge";
    return "other";
}

/**
 * Compare the two metrics objects by key presence and instrument kind
 * only — values (counts, timings) legitimately vary run to run. A key
 * that disappeared, or changed kind, means instrumentation was lost or
 * repurposed and gates; a new key is fresh instrumentation and is
 * informational. Per-worker keys ("pool.worker.N.*") are skipped:
 * their population is shaped by the --jobs setting of the machine that
 * produced the manifest, not by the code under test.
 */
void
diffMetrics(const JsonValue &base, const JsonValue &fresh,
            const std::string &where, DiffResult &result)
{
    if (!base.isObject() || !fresh.isObject())
        return;
    auto machine_shaped = [](const std::string &key) {
        return key.rfind("pool.worker.", 0) == 0;
    };
    for (const auto &[key, bval] : base.members()) {
        if (machine_shaped(key))
            continue;
        const JsonValue &fval = fresh.get(key);
        if (fval.isNull()) {
            result.findings.push_back(
                {DiffFinding::Kind::MetricMissing,
                 where + "/metrics." + key,
                 "metric present in baseline only"});
            continue;
        }
        const char *bkind = metricKind(bval);
        const char *fkind = metricKind(fval);
        if (std::string(bkind) != fkind)
            result.findings.push_back(
                {DiffFinding::Kind::MetricKindChanged,
                 where + "/metrics." + key,
                 std::string(bkind) + " -> " + fkind});
    }
    for (const auto &[key, fval] : fresh.members()) {
        (void)fval;
        if (machine_shaped(key))
            continue;
        if (base.get(key).isNull())
            result.findings.push_back({DiffFinding::Kind::MetricAdded,
                                       where + "/metrics." + key,
                                       "metric new in this run"});
    }
}

std::map<std::string, const JsonValue *>
indexBenches(const JsonValue &suite)
{
    std::map<std::string, const JsonValue *> out;
    std::map<std::string, int> seen;
    for (const JsonValue &b : suite.get("benches").asArray()) {
        std::string tool = stringOr(b.get("tool"), "?");
        int n = seen[tool]++;
        if (n)
            tool += "#" + std::to_string(n);
        out.emplace(std::move(tool), &b);
    }
    return out;
}

std::map<std::string, const JsonValue *>
indexTables(const JsonValue &bench)
{
    std::map<std::string, const JsonValue *> out;
    std::map<std::string, int> seen;
    for (const JsonValue &t : bench.get("tables").asArray()) {
        std::string title = stringOr(t.get("title"), "?");
        int n = seen[title]++;
        if (n)
            title += "#" + std::to_string(n);
        out.emplace(std::move(title), &t);
    }
    return out;
}

} // namespace

DiffResult
diffSuites(const JsonValue &baseline, const JsonValue &fresh,
           const DiffOptions &options)
{
    DiffResult result;
    auto base_benches = indexBenches(baseline);
    auto fresh_benches = indexBenches(fresh);

    for (const auto &[tool, base_bench] : base_benches) {
        auto it = fresh_benches.find(tool);
        if (it == fresh_benches.end()) {
            result.findings.push_back(
                {DiffFinding::Kind::BenchMissing, tool,
                 "bench present in baseline only"});
            continue;
        }
        const JsonValue &fresh_bench = *it->second;
        ++result.benchesCompared;

        auto base_tables = indexTables(*base_bench);
        auto fresh_tables = indexTables(fresh_bench);
        for (const auto &[title, base_table] : base_tables) {
            auto tit = fresh_tables.find(title);
            if (tit == fresh_tables.end()) {
                result.findings.push_back(
                    {DiffFinding::Kind::ShapeChanged,
                     tool + "/" + title, "table removed"});
                continue;
            }
            diffTable(*base_table, *tit->second, tool + "/" + title,
                      options, result);
        }
        for (const auto &[title, table] : fresh_tables) {
            (void)table;
            if (!base_tables.count(title))
                result.findings.push_back(
                    {DiffFinding::Kind::ShapeChanged,
                     tool + "/" + title, "table added"});
        }

        if (!options.ignoreMetrics)
            diffMetrics(base_bench->get("metrics"),
                        fresh_bench.get("metrics"), tool, result);
    }
    for (const auto &[tool, bench] : fresh_benches) {
        (void)bench;
        if (!base_benches.count(tool))
            result.findings.push_back({DiffFinding::Kind::BenchAdded,
                                       tool,
                                       "bench present in new run only"});
    }
    return result;
}

void
printDiffReport(std::ostream &os, const DiffResult &result,
                const DiffOptions &options)
{
    for (const DiffFinding &f : result.findings)
        os << "  [" << diffFindingKindName(f.kind) << "] " << f.where
           << ": " << f.detail << "\n";
    os << "compared " << result.benchesCompared << " benches, "
       << result.tablesCompared << " tables, " << result.cellsCompared
       << " cells (value tol " << options.valueTol << ")\n";
    if (result.regression())
        os << "REGRESSION: " << result.findings.size()
           << " finding(s)\n";
    else if (!result.findings.empty())
        os << "OK with " << result.findings.size()
           << " informational finding(s)\n";
    else
        os << "OK: no drift\n";
}

} // namespace pfits
