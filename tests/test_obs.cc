/**
 * @file
 * Observability layer tests: JSON writer/parser round-trips, the
 * metric registry (including concurrent updates from a 4-worker pool),
 * run-manifest schema validation, suite aggregation, and the
 * regression-diff policy (value tolerance, wall-time threshold).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/logging.hh"
#include "common/rng.hh"
#include "common/table.hh"
#include "exp/parallel.hh"
#include "obs/json.hh"
#include "obs/manifest.hh"
#include "obs/metrics.hh"
#include "obs/report.hh"

namespace
{

using namespace pfits;

// --- JSON ----------------------------------------------------------------

TEST(Json, WriterParserRoundTrip)
{
    std::ostringstream os;
    JsonWriter w(os);
    w.beginObject();
    w.field("name", "quote\" slash\\ tab\t");
    w.field("pi", 3.25);
    w.field("neg", -12);
    w.field("yes", true);
    w.key("hash");
    w.hexValue(0xdeadbeefcafef00dull);
    w.key("list");
    w.beginArray();
    w.value(1);
    w.nullValue();
    w.value("two");
    w.endArray();
    w.endObject();
    ASSERT_TRUE(w.done());

    JsonValue doc = JsonValue::parse(os.str());
    EXPECT_EQ(doc.get("name").asString(), "quote\" slash\\ tab\t");
    EXPECT_DOUBLE_EQ(doc.get("pi").asNumber(), 3.25);
    EXPECT_DOUBLE_EQ(doc.get("neg").asNumber(), -12.0);
    EXPECT_TRUE(doc.get("yes").asBool());
    EXPECT_EQ(doc.get("hash").asString(), "0xdeadbeefcafef00d");
    ASSERT_EQ(doc.get("list").asArray().size(), 3u);
    EXPECT_TRUE(doc.get("list").asArray()[1].isNull());
    EXPECT_TRUE(doc.get("absent").isNull());
}

TEST(Json, ParserRejectsMalformedInput)
{
    EXPECT_THROW(JsonValue::parse("{"), FatalError);
    EXPECT_THROW(JsonValue::parse("[1,]"), FatalError);
    EXPECT_THROW(JsonValue::parse("{} trailing"), FatalError);
    EXPECT_THROW(JsonValue::parse("\"unterminated"), FatalError);
    EXPECT_THROW(JsonValue::parse("nope"), FatalError);
}

TEST(Json, ParserBoundsNestingDepth)
{
    auto nested = [](size_t depth) {
        return std::string(depth, '[') + std::string(depth, ']');
    };
    // The cap itself parses; one more level is a parse error, not a
    // deeper recursion.
    EXPECT_TRUE(JsonValue::parse(nested(kJsonMaxDepth)).isArray());
    EXPECT_THROW(JsonValue::parse(nested(kJsonMaxDepth + 1)), FatalError);
    EXPECT_THROW(JsonValue::parse("{\"a\":" + nested(kJsonMaxDepth) + "}"),
                 FatalError);
    // ~200 KB of '[' used to recurse until the stack overflowed.
    EXPECT_THROW(JsonValue::parse(std::string(100'000, '[')), FatalError);
}

TEST(Json, ParserBoundsDocumentSize)
{
    // One string literal just over the default cap: refused up front
    // with an error, accepted under an explicit larger cap.
    const std::string big = "\"" + std::string(kJsonMaxBytes, 'a') + "\"";
    EXPECT_THROW(JsonValue::parse(big), FatalError);
    EXPECT_TRUE(JsonValue::parse(big, big.size()).isString());

    // A manifest file over the cap is refused before it is read.
    const std::string path =
        ::testing::TempDir() + "/oversized_manifest.json";
    {
        std::ofstream out(path, std::ios::binary);
        out << "{\"tool\":" << big << "}";
    }
    EXPECT_THROW(JsonValue::parseFile(path), FatalError);
    std::remove(path.c_str());
}

TEST(Json, ParserHandlesEscapesAndUnicode)
{
    JsonValue doc = JsonValue::parse(
        "{\"s\": \"a\\n\\\"b\\\"\\u0041\\u00e9\"}");
    EXPECT_EQ(doc.get("s").asString(), "a\n\"b\"A\xc3\xa9");
}

TEST(Json, BuildersProduceParseableDocuments)
{
    JsonValue doc = JsonValue::makeObject();
    doc.set("n", JsonValue::makeNumber(7));
    JsonValue arr = JsonValue::makeArray();
    arr.push(JsonValue::makeString("x"));
    arr.push(JsonValue::makeBool(false));
    doc.set("a", std::move(arr));

    std::ostringstream os;
    writeJsonDocument(os, doc);
    JsonValue back = JsonValue::parse(os.str());
    EXPECT_DOUBLE_EQ(back.get("n").asNumber(), 7.0);
    ASSERT_EQ(back.get("a").asArray().size(), 2u);
    EXPECT_EQ(back.get("a").asArray()[0].asString(), "x");
}

// --- metrics -------------------------------------------------------------

TEST(Metrics, RegistryBasics)
{
    MetricRegistry reg;
    reg.counter("c").add(3);
    reg.counter("c").add();
    EXPECT_EQ(reg.counter("c").value(), 4u);

    reg.gauge("g").set(5);
    reg.gauge("g").set(2);
    EXPECT_EQ(reg.gauge("g").value(), 2);
    EXPECT_EQ(reg.gauge("g").maxValue(), 5);

    MetricHistogram &h = reg.histogram("h", 0.0, 10.0, 5);
    h.sample(1.0);
    h.sample(9.5);
    h.sample(-1.0); // underflow
    h.sample(25.0); // overflow
    EXPECT_EQ(h.count(), 4u);
    EXPECT_EQ(h.underflow(), 1u);
    EXPECT_EQ(h.overflow(), 1u);
    EXPECT_DOUBLE_EQ(h.minSample(), -1.0);
    EXPECT_DOUBLE_EQ(h.maxSample(), 25.0);

    EXPECT_EQ(reg.size(), 3u);
    // A name holds one kind only.
    EXPECT_THROW(reg.gauge("c"), FatalError);
    EXPECT_THROW(reg.counter("h"), FatalError);
}

TEST(Metrics, HistogramPercentilesInterpolateWithinBuckets)
{
    MetricHistogram h(0.0, 100.0, 10);
    EXPECT_DOUBLE_EQ(h.percentile(0.5), 0.0) << "empty histogram";

    // One sample at each integer in [0, 100): the quantile of rank r
    // lands at the upper edge of its interpolated position.
    for (int v = 0; v < 100; ++v)
        h.sample(static_cast<double>(v));
    EXPECT_DOUBLE_EQ(h.percentile(0.0), 0.0);
    EXPECT_DOUBLE_EQ(h.percentile(0.50), 50.0);
    EXPECT_DOUBLE_EQ(h.percentile(0.95), 95.0);
    EXPECT_DOUBLE_EQ(h.percentile(0.99), 99.0);
    EXPECT_DOUBLE_EQ(h.percentile(1.0), 99.0) << "p100 is the max";

    // Underflow resolves to the observed min; interpolation above a
    // sparse bucket clamps to the observed max.
    MetricHistogram u(0.0, 10.0, 5);
    u.sample(-5.0);
    u.sample(-4.0);
    u.sample(-3.0);
    u.sample(5.0);
    EXPECT_DOUBLE_EQ(u.percentile(0.50), -5.0);
    EXPECT_DOUBLE_EQ(u.percentile(0.99), 5.0);

    // Everything above the range: the overflow bin answers max (all
    // that is known about those samples is "at least hi").
    MetricHistogram o(0.0, 1.0, 2);
    o.sample(40.0);
    o.sample(60.0);
    EXPECT_DOUBLE_EQ(o.percentile(0.5), 60.0);
    EXPECT_DOUBLE_EQ(o.percentile(0.99), 60.0);
}

TEST(Metrics, LogLinearPercentilesLandWithinOneSubBucket)
{
    // Seeded samples, log-uniform over four decades: [0.1, 1000) ms.
    MetricHistogram h(0.0, 1000.0, 16);
    Rng rng(42);
    std::vector<double> samples;
    for (int i = 0; i < 20000; ++i) {
        const double v =
            std::pow(10.0, -1.0 + 4.0 * rng.next() / 4294967296.0);
        samples.push_back(v);
        h.sample(v);
    }
    std::sort(samples.begin(), samples.end());

    // The buckets tile the range without gaps.
    for (size_t i = 0; i + 1 < h.bucketCount(); ++i)
        ASSERT_DOUBLE_EQ(h.bucketLow(i) + h.bucketWidth(i),
                         h.bucketLow(i + 1)) << i;

    for (double p : {0.01, 0.50, 0.95, 0.99}) {
        // The nearest-rank order statistic and the bucket holding it.
        const double exact = samples[static_cast<size_t>(
            std::ceil(p * static_cast<double>(samples.size()))) - 1];
        size_t idx = 0;
        while (idx + 1 < h.bucketCount() && h.bucketLow(idx + 1) <= exact)
            ++idx;
        const double width = h.bucketWidth(idx);
        EXPECT_NEAR(h.percentile(p), exact, width) << "p=" << p;
        EXPECT_LE(width, h.bucketLow(idx) / 16.0) << "p=" << p;
    }

    // The JSON lists the populated span, which holds every sample.
    std::ostringstream os;
    JsonWriter w(os);
    h.writeJson(w);
    const JsonValue doc = JsonValue::parse(os.str());
    double listed = 0;
    for (const JsonValue &c : doc.get("buckets").asArray())
        listed += c.asNumber();
    EXPECT_DOUBLE_EQ(listed, 20000.0);
    EXPECT_DOUBLE_EQ(doc.get("sub_buckets").asNumber(), 16.0);
}

TEST(Metrics, HistogramJsonCarriesPercentiles)
{
    MetricRegistry reg;
    MetricHistogram &h = reg.histogram("lat", 0.0, 100.0, 10);
    for (int v = 0; v < 100; ++v)
        h.sample(static_cast<double>(v));

    std::ostringstream os;
    JsonWriter w(os);
    reg.writeJson(w);
    JsonValue doc = JsonValue::parse(os.str());
    EXPECT_DOUBLE_EQ(doc.get("lat").get("p50").asNumber(), 50.0);
    EXPECT_DOUBLE_EQ(doc.get("lat").get("p95").asNumber(), 95.0);
    EXPECT_DOUBLE_EQ(doc.get("lat").get("p99").asNumber(), 99.0);
}

TEST(Metrics, WriteJsonIsSortedAndParseable)
{
    MetricRegistry reg;
    reg.counter("z.count").add(2);
    reg.gauge("a.depth").set(7);
    reg.histogram("m.lat", 0.0, 100.0, 4).sample(12.0);

    std::ostringstream os;
    JsonWriter w(os);
    reg.writeJson(w);
    JsonValue doc = JsonValue::parse(os.str());
    EXPECT_DOUBLE_EQ(doc.get("z.count").asNumber(), 2.0);
    EXPECT_DOUBLE_EQ(doc.get("a.depth").get("value").asNumber(), 7.0);
    EXPECT_DOUBLE_EQ(doc.get("m.lat").get("count").asNumber(), 1.0);
    // Keys are emitted sorted regardless of registration order.
    const auto &members = doc.members();
    ASSERT_EQ(members.size(), 3u);
    EXPECT_EQ(members[0].first, "a.depth");
    EXPECT_EQ(members[2].first, "z.count");
}

TEST(Metrics, ConcurrentIncrementsFromFourWorkers)
{
    // The satellite case: a PFITS_JOBS=4-style pool hammering one
    // registry. Every add/sample must land exactly once.
    MetricRegistry reg;
    ThreadPool pool(4);
    constexpr size_t kJobs = 4000;
    pool.run(kJobs, [&](size_t i) {
        reg.counter("work.count").add();
        reg.gauge("work.level").add(1);
        reg.histogram("work.ms", 0.0, 100.0, 10)
            .sample(static_cast<double>(i % 100));
    });
    EXPECT_EQ(reg.counter("work.count").value(), kJobs);
    EXPECT_EQ(reg.gauge("work.level").value(),
              static_cast<int64_t>(kJobs));
    EXPECT_EQ(reg.histogram("work.ms", 0.0, 100.0, 10).count(), kJobs);
    uint64_t bucket_sum = 0;
    for (uint64_t c :
         reg.histogram("work.ms", 0.0, 100.0, 10).bucketSnapshot())
        bucket_sum += c;
    EXPECT_EQ(bucket_sum, kJobs);
}

TEST(Metrics, InstallPublishesEngineSink)
{
    ASSERT_EQ(MetricRegistry::current(), nullptr)
        << "another test leaked an installed registry";
    MetricRegistry reg;
    MetricRegistry *prev = MetricRegistry::install(&reg);
    EXPECT_EQ(prev, nullptr);
    EXPECT_EQ(MetricRegistry::current(), &reg);

    // An instrumented pool reports into the installed registry.
    ThreadPool pool(2);
    pool.run(8, [](size_t) {});
    EXPECT_EQ(reg.counter("pool.jobs").value(), 8u);
    EXPECT_EQ(reg.counter("pool.batches").value(), 1u);
    EXPECT_EQ(reg.gauge("pool.queue_depth").maxValue(), 8);
    EXPECT_EQ(reg.gauge("pool.queue_depth").value(), 0);

    MetricRegistry::install(nullptr);
    EXPECT_EQ(MetricRegistry::current(), nullptr);
}

TEST(Metrics, ScopedTimerNoopWithoutRegistry)
{
    ASSERT_EQ(MetricRegistry::current(), nullptr);
    {
        ScopedTimerMs hist("t.hist", 0.0, 10.0, 2);
        ScopedTimerMs count("t.count");
    }
    // Nothing to observe — the point is it must not crash or allocate
    // instruments anywhere.
    SUCCEED();
}

// --- manifest + validation ----------------------------------------------

JsonValue
makeManifest(const std::string &tool, const std::string &cell,
             double wall_ms)
{
    Table t("Result");
    t.setHeader({"k", "v"});
    t.addRow({"row", cell});

    MetricRegistry reg;
    reg.counter("simcache.misses").add(2);
    reg.counter("simcache.hits").add(5);

    RunManifest m;
    m.tool = tool;
    m.note = "unit";
    m.params.recorded = true;
    m.params.jobs = 4;
    m.sims.push_back({0x1111, 0x2222, 0, 0});
    m.tables.push_back(&t);
    m.metrics = &reg;
    m.wallMs = wall_ms;
    m.cpuMs = wall_ms * 2;

    std::ostringstream os;
    m.write(os);
    return JsonValue::parse(os.str());
}

TEST(Manifest, WriteValidatesAgainstSchema)
{
    JsonValue doc = makeManifest("unit_bench", "1.5", 100.0);
    EXPECT_EQ(validateDocument(doc), "");
    EXPECT_EQ(doc.get("schema").asString(), kManifestSchema);
    EXPECT_EQ(doc.get("tool").asString(), "unit_bench");
    EXPECT_EQ(doc.get("sims").asArray().size(), 1u);
    EXPECT_EQ(
        doc.get("sims").asArray()[0].get("program").asString(),
        "0x0000000000001111");
    EXPECT_DOUBLE_EQ(
        doc.get("metrics").get("simcache.hits").asNumber(), 5.0);
}

TEST(Manifest, ValidatorFlagsBrokenDocuments)
{
    EXPECT_NE(validateDocument(JsonValue::parse("{}")), "");
    EXPECT_NE(validateDocument(JsonValue::parse(
                  "{\"schema\": \"pfits-manifest-v1\"}")),
              "");
    EXPECT_NE(validateDocument(JsonValue::parse(
                  "{\"schema\": \"what-is-this\"}")),
              "");
    // A ragged table row (width != header) must be caught.
    JsonValue doc = makeManifest("unit_bench", "1", 1.0);
    JsonValue ragged_table = JsonValue::makeObject();
    ragged_table.set("title", JsonValue::makeString("Ragged"));
    JsonValue header = JsonValue::makeArray();
    header.push(JsonValue::makeString("k"));
    header.push(JsonValue::makeString("v"));
    ragged_table.set("header", std::move(header));
    JsonValue rows = JsonValue::makeArray();
    JsonValue short_row = JsonValue::makeArray();
    short_row.push(JsonValue::makeString("only-one-cell"));
    rows.push(std::move(short_row));
    ragged_table.set("rows", std::move(rows));
    JsonValue tables = JsonValue::makeArray();
    tables.push(std::move(ragged_table));
    doc.set("tables", std::move(tables));
    EXPECT_NE(validateDocument(doc), "");
}

// --- aggregation + diff --------------------------------------------------

JsonValue
makeSuite(const std::string &cell, double wall_ms,
          const std::vector<std::string> &tools = {"bench_a"})
{
    std::vector<JsonValue> manifests;
    for (const std::string &tool : tools)
        manifests.push_back(makeManifest(tool, cell, wall_ms));
    return aggregateManifests(manifests);
}

TEST(Report, AggregateBuildsValidSuite)
{
    JsonValue suite = makeSuite("1.5", 100.0, {"b_two", "a_one"});
    EXPECT_EQ(validateDocument(suite), "");
    EXPECT_EQ(suite.get("schema").asString(), kSuiteSchema);
    const auto &benches = suite.get("benches").asArray();
    ASSERT_EQ(benches.size(), 2u);
    // Sorted by tool name for line-stable diffs.
    EXPECT_EQ(benches[0].get("tool").asString(), "a_one");
    EXPECT_EQ(benches[1].get("tool").asString(), "b_two");
    EXPECT_DOUBLE_EQ(suite.get("totals").get("wall_ms").asNumber(),
                     200.0);
    EXPECT_DOUBLE_EQ(suite.get("totals").get("memo_hits").asNumber(),
                     10.0);
    EXPECT_DOUBLE_EQ(suite.get("totals").get("unique_sims").asNumber(),
                     2.0);
}

TEST(Report, DiffIdenticalSuitesIsClean)
{
    JsonValue base = makeSuite("1.500", 100.0);
    JsonValue fresh = makeSuite("1.500", 100.0);
    DiffResult r = diffSuites(base, fresh, {});
    EXPECT_TRUE(r.findings.empty());
    EXPECT_FALSE(r.regression());
    EXPECT_EQ(r.benchesCompared, 1u);
    EXPECT_EQ(r.cellsCompared, 1u);
}

TEST(Report, DiffFlagsValueDrift)
{
    JsonValue base = makeSuite("1.500", 100.0);
    JsonValue fresh = makeSuite("1.800", 100.0);
    DiffResult r = diffSuites(base, fresh, {});
    ASSERT_EQ(r.findings.size(), 1u);
    EXPECT_EQ(r.findings[0].kind, DiffFinding::Kind::ValueDrift);
    EXPECT_TRUE(r.regression());
}

TEST(Report, DiffValueToleranceAbsorbsSmallDrift)
{
    JsonValue base = makeSuite("1.5000000", 100.0);
    JsonValue fresh = makeSuite("1.5000001", 100.0);
    DiffOptions loose;
    loose.valueTol = 1e-4;
    EXPECT_FALSE(diffSuites(base, fresh, loose).regression());
    DiffOptions tight;
    tight.valueTol = 1e-9;
    EXPECT_TRUE(diffSuites(base, fresh, tight).regression());
}

TEST(Report, DiffFlagsNonNumericCellChange)
{
    JsonValue base = makeSuite("ok", 100.0);
    JsonValue fresh = makeSuite("FAILED", 100.0);
    DiffResult r = diffSuites(base, fresh, {});
    ASSERT_EQ(r.findings.size(), 1u);
    EXPECT_EQ(r.findings[0].kind, DiffFinding::Kind::CellChanged);
    EXPECT_TRUE(r.regression());
}

TEST(Report, DiffBenchPresenceRules)
{
    JsonValue base = makeSuite("1.5", 100.0, {"bench_a"});
    JsonValue fresh = makeSuite("1.5", 100.0, {"bench_a", "bench_b"});
    DiffResult grown = diffSuites(base, fresh, {});
    ASSERT_EQ(grown.findings.size(), 1u);
    EXPECT_EQ(grown.findings[0].kind, DiffFinding::Kind::BenchAdded);
    // A new bench is informational, not a regression.
    EXPECT_FALSE(grown.regression());

    DiffResult shrunk = diffSuites(fresh, base, {});
    ASSERT_EQ(shrunk.findings.size(), 1u);
    EXPECT_EQ(shrunk.findings[0].kind,
              DiffFinding::Kind::BenchMissing);
    EXPECT_TRUE(shrunk.regression());
}

/** Copy @p suite with every bench's metrics object replaced. */
JsonValue
withMetrics(const JsonValue &suite, const std::string &metrics_json)
{
    JsonValue out = suite;
    JsonValue benches = JsonValue::makeArray();
    for (const JsonValue &b : suite.get("benches").asArray()) {
        JsonValue nb = b;
        nb.set("metrics", JsonValue::parse(metrics_json));
        benches.push(std::move(nb));
    }
    out.set("benches", std::move(benches));
    return out;
}

TEST(Report, DiffMetricKeyPresenceRules)
{
    JsonValue suite = makeSuite("1.5", 100.0);
    JsonValue base = withMetrics(
        suite, "{\"simcache.hits\": 5,"
               " \"pool.queue_depth\": {\"value\": 0, \"max\": 4},"
               " \"pool.worker.0.busy_us\": 10}");

    // New telemetry (a key the baseline predates) is informational:
    // bench_regress.sh against an older baseline must stay green.
    JsonValue added = withMetrics(
        suite, "{\"simcache.hits\": 7, \"brand.new.counter\": 1,"
               " \"pool.queue_depth\": {\"value\": 2, \"max\": 9},"
               " \"pool.worker.0.busy_us\": 99}");
    DiffResult r = diffSuites(base, added, {});
    ASSERT_EQ(r.findings.size(), 1u);
    EXPECT_EQ(r.findings[0].kind, DiffFinding::Kind::MetricAdded);
    EXPECT_FALSE(r.regression())
        << "added metric keys must never gate";

    // A key that disappeared is lost instrumentation and gates.
    JsonValue removed = withMetrics(
        suite, "{\"pool.queue_depth\": {\"value\": 0, \"max\": 4},"
               " \"pool.worker.0.busy_us\": 10}");
    r = diffSuites(base, removed, {});
    ASSERT_EQ(r.findings.size(), 1u);
    EXPECT_EQ(r.findings[0].kind, DiffFinding::Kind::MetricMissing);
    EXPECT_TRUE(r.regression());

    // A kind flip (counter became a histogram) gates too.
    JsonValue flipped = withMetrics(
        suite, "{\"simcache.hits\": {\"count\": 1, \"buckets\": [1]},"
               " \"pool.queue_depth\": {\"value\": 0, \"max\": 4},"
               " \"pool.worker.0.busy_us\": 10}");
    r = diffSuites(base, flipped, {});
    ASSERT_EQ(r.findings.size(), 1u);
    EXPECT_EQ(r.findings[0].kind,
              DiffFinding::Kind::MetricKindChanged);
    EXPECT_TRUE(r.regression());

    // Per-worker keys are shaped by --jobs on the producing machine;
    // their coming and going is not a finding in either direction.
    JsonValue more_workers = withMetrics(
        suite, "{\"simcache.hits\": 5,"
               " \"pool.queue_depth\": {\"value\": 0, \"max\": 4},"
               " \"pool.worker.0.busy_us\": 10,"
               " \"pool.worker.1.busy_us\": 11,"
               " \"pool.worker.2.busy_us\": 12}");
    EXPECT_TRUE(diffSuites(base, more_workers, {}).findings.empty());
    EXPECT_TRUE(diffSuites(more_workers, base, {}).findings.empty());

    // --ignore-metrics turns the whole key-set comparison off: diffs
    // across deployment modes (svc_warm_check's daemon-warm vs local
    // runs) compare result tables only.
    DiffOptions ignore;
    ignore.ignoreMetrics = true;
    EXPECT_TRUE(diffSuites(base, removed, ignore).findings.empty());
    EXPECT_TRUE(diffSuites(base, flipped, ignore).findings.empty());
}

TEST(Report, PrintDiffReportVerdictLines)
{
    JsonValue base = makeSuite("1.5", 100.0);
    JsonValue drift = makeSuite("9.9", 100.0);

    std::ostringstream clean;
    printDiffReport(clean, diffSuites(base, base, {}), {});
    EXPECT_NE(clean.str().find("OK: no drift"), std::string::npos);

    std::ostringstream bad;
    printDiffReport(bad, diffSuites(base, drift, {}), {});
    EXPECT_NE(bad.str().find("REGRESSION"), std::string::npos);
    EXPECT_NE(bad.str().find("value-drift"), std::string::npos);
}

} // namespace
