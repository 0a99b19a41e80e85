/** @file The span tracing layer: args formatting, balanced and
 *  well-formed Chrome trace-event output from concurrent recorders,
 *  zero-footprint behaviour when disabled, deterministic engine span
 *  structure across --jobs settings, and end-to-end trace-ID
 *  propagation between an SvcClient and an embedded pfitsd server. */

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <sys/stat.h>
#include <unistd.h>

#include "exp/experiment.hh"
#include "exp/simcache.hh"
#include "exp/simservice.hh"
#include "obs/json.hh"
#include "obs/trace.hh"
#include "svc/client.hh"
#include "svc/server.hh"

namespace pfits
{
namespace
{

/** Parse a recorder's flush into a JSON document. */
JsonValue
flushToJson(const TraceRecorder &rec)
{
    std::ostringstream os;
    rec.writeJson(os);
    return JsonValue::parse(os.str());
}

/** Per-tid open-span depth over the whole event stream; gtest-fails
 *  on an E without a B. @return the final depths (all must be 0). */
std::map<double, int>
spanDepths(const JsonValue &doc)
{
    std::map<double, int> depth;
    for (const JsonValue &e : doc.get("traceEvents").asArray()) {
        const std::string &ph = e.get("ph").asString();
        double tid = e.get("tid").asNumber();
        if (ph == "B") {
            ++depth[tid];
        } else if (ph == "E") {
            --depth[tid];
            EXPECT_GE(depth[tid], 0) << "E before B on tid " << tid;
        }
    }
    return depth;
}

TEST(Trace, ArgsAccumulateEscapedJsonFragments)
{
    TraceArgs args;
    EXPECT_TRUE(args.empty());
    args.add("s", std::string_view("a\"b"))
        .add("n", static_cast<uint64_t>(42))
        .add("neg", static_cast<int64_t>(-7))
        .add("f", 1.5)
        .add("yes", true)
        .addHex("h", 0xdeadull);
    // The fragment must drop into {...} as a valid JSON object.
    JsonValue v = JsonValue::parse("{" + args.fragment() + "}");
    EXPECT_EQ(v.get("s").asString(), "a\"b");
    EXPECT_DOUBLE_EQ(v.get("n").asNumber(), 42.0);
    EXPECT_DOUBLE_EQ(v.get("neg").asNumber(), -7.0);
    EXPECT_DOUBLE_EQ(v.get("f").asNumber(), 1.5);
    EXPECT_TRUE(v.get("yes").asBool());
    EXPECT_EQ(v.get("h").asString(), "0xdead");
}

TEST(Trace, RecorderEmitsValidBalancedJsonAcrossThreads)
{
    TraceRecorder rec;
    TraceRecorder *prev = TraceRecorder::install(&rec);

    rec.nameThisThread("main");
    rec.begin("outer", "test", TraceArgs().add("k", 1));
    rec.instant("tick", "test");
    rec.begin("inner", "test");
    rec.end();
    rec.end();

    // A second thread records on its own lane, lock-free after the
    // first touch; a third lane is addressed explicitly.
    std::thread t([&] {
        rec.nameThisThread("helper");
        TraceSpan span("helper-work", "test");
        rec.instant("helper-tick", "test");
        uint32_t lane = 500;
        rec.nameLane(lane, "synthetic");
        rec.beginLane(lane, "quantum", "test");
        rec.instantLane(lane, "coherence", "test",
                        TraceArgs().addHex("line", 0x40));
        rec.endLane(lane);
    });
    t.join();

    TraceRecorder::install(prev);
    EXPECT_EQ(rec.eventCount(), 11u);

    JsonValue doc = flushToJson(rec);
    const auto &events = doc.get("traceEvents").asArray();
    // 11 recorded events + 3 thread_name metadata records.
    ASSERT_EQ(events.size(), 14u);

    std::set<std::string> track_names;
    double last_ts = -1;
    for (const JsonValue &e : events) {
        const std::string &ph = e.get("ph").asString();
        EXPECT_DOUBLE_EQ(e.get("pid").asNumber(), 1.0);
        EXPECT_TRUE(e.get("tid").isNumber());
        if (ph == "M") {
            track_names.insert(
                e.get("args").get("name").asString());
            continue;
        }
        ASSERT_TRUE(e.get("ts").isNumber());
        EXPECT_GE(e.get("ts").asNumber(), last_ts)
            << "flush must be time-sorted";
        last_ts = e.get("ts").asNumber();
        if (ph == "i") {
            EXPECT_EQ(e.get("s").asString(), "t");
        }
        if (ph == "B" || ph == "i") {
            EXPECT_TRUE(e.get("name").isString());
        }
    }
    EXPECT_EQ(track_names,
              (std::set<std::string>{"main", "helper", "synthetic"}));

    for (const auto &[tid, d] : spanDepths(doc))
        EXPECT_EQ(d, 0) << "unbalanced span on tid " << tid;
}

TEST(Trace, SpanClosesOnItsRecorderAfterUninstall)
{
    TraceRecorder rec;
    TraceRecorder *prev = TraceRecorder::install(&rec);
    {
        TraceSpan span("work", "test");
        ASSERT_EQ(span.recorder(), &rec);
        // The flush contract uninstalls before writing; an open span
        // must still close on the recorder it began on.
        TraceRecorder::install(prev);
    }
    EXPECT_EQ(rec.eventCount(), 2u);
    for (const auto &[tid, d] : spanDepths(flushToJson(rec)))
        EXPECT_EQ(d, 0) << tid;
}

TEST(Trace, DisabledTracingRecordsNothing)
{
    ASSERT_EQ(TraceRecorder::current(), nullptr)
        << "tests must not leak an installed recorder";
    TraceSpan span("never", "test");
    EXPECT_EQ(span.recorder(), nullptr);
}

TEST(Trace, TraceIdsAreNonZeroAndUnique)
{
    TraceRecorder rec;
    std::set<uint64_t> seen;
    for (int i = 0; i < 1000; ++i) {
        uint64_t id = rec.newTraceId();
        EXPECT_NE(id, 0u);
        EXPECT_TRUE(seen.insert(id).second) << "duplicate trace id";
    }
}

/** Sorted (name, cat, count) fingerprint of every B and i event. */
std::map<std::string, int>
spanStructure(const JsonValue &doc)
{
    std::map<std::string, int> out;
    for (const JsonValue &e : doc.get("traceEvents").asArray()) {
        const std::string &ph = e.get("ph").asString();
        if (ph != "B" && ph != "i")
            continue;
        ++out[ph + "|" + e.get("name").asString() + "|" +
              e.get("cat").asString()];
    }
    return out;
}

/** One traced engine run of a single bench at @p jobs workers. */
std::map<std::string, int>
tracedRunStructure(unsigned jobs)
{
    SimCache::instance().clear();
    TraceRecorder rec;
    TraceRecorder *prev = TraceRecorder::install(&rec);
    {
        ExperimentParams params;
        params.jobs = jobs;
        Runner runner(params);
        runner.get("crc32");
    }
    TraceRecorder::install(prev);
    SimCache::instance().clear();
    return spanStructure(flushToJson(rec));
}

TEST(Trace, EngineSpanStructureIsDeterministicAcrossJobCounts)
{
    // Timestamps and lane assignment legitimately vary with the
    // worker count; the set of span names and their multiplicities —
    // one prepare, four simulate spans, four pool jobs, two fresh
    // sims and two shared runs (crc32's code fits both I-caches, so
    // each ISA's 8 KB request shares its 16 KB run) — must not.
    std::map<std::string, int> serial = tracedRunStructure(1);
    std::map<std::string, int> four = tracedRunStructure(4);
    EXPECT_EQ(serial, four);

    EXPECT_EQ(serial.at("B|prepare|runner"), 1);
    EXPECT_EQ(serial.at("B|simulate|runner"), 4);
    EXPECT_EQ(serial.at("B|job|pool"), 4);
    EXPECT_EQ(serial.at("B|sim|simcache"), 2);
    EXPECT_EQ(serial.at("i|simcache.shared|simcache"), 2);
}

TEST(Trace, DaemonPropagatesTraceIdEndToEnd)
{
    static int seq = 0;
    std::string dir = testing::TempDir() + "pfits_trace_svc_" +
                      std::to_string(::getpid()) + "_" +
                      std::to_string(seq++);
    ::mkdir(dir.c_str(), 0777);

    SvcServerConfig scfg;
    scfg.socketPath = dir + "/d.sock";
    scfg.storeDir = dir + "/store";
    SvcServer server(scfg);
    std::string err;
    ASSERT_TRUE(server.start(&err)) << err;

    TraceRecorder rec;
    TraceRecorder *prev = TraceRecorder::install(&rec);

    PreparedBench prep = prepareBenchmark("crc32", ExperimentParams{});
    CoreConfig core;
    SimRequest sreq;
    sreq.fe = prep.armFe.get();
    sreq.core = &core;
    sreq.bench = "crc32";
    sreq.isFits = false;

    SimCache::instance().clear();
    SvcClientConfig ccfg;
    ccfg.socketPath = scfg.socketPath;
    SvcClient client(ccfg);
    SimResult result = client.simulate(sreq);
    EXPECT_EQ(result.run.outcome, RunOutcome::Completed);

    server.stop(); // quiesce: joins every recording daemon thread
    TraceRecorder::install(prev);
    SimCache::instance().clear();

    // Both halves live in this process, so one trace holds the
    // client-side request span and the server-side lifecycle span;
    // the propagated id is what joins them across the socket.
    JsonValue doc = flushToJson(rec);
    std::map<std::string, int> ids;
    for (const JsonValue &e : doc.get("traceEvents").asArray()) {
        if (e.get("ph").asString() != "B" ||
            !e.get("name").isString() ||
            e.get("name").asString() != "svc.request")
            continue;
        ASSERT_TRUE(e.get("args").get("trace").isString());
        ++ids[e.get("args").get("trace").asString()];
    }
    ASSERT_FALSE(ids.empty()) << "no svc.request spans recorded";
    bool joined = false;
    for (const auto &[id, n] : ids) {
        EXPECT_NE(id, "0x0");
        if (n >= 2)
            joined = true;
    }
    EXPECT_TRUE(joined)
        << "client and server spans must share a propagated trace id";

    for (const auto &[tid, d] : spanDepths(doc))
        EXPECT_EQ(d, 0) << "unbalanced span on tid " << tid;
}

} // namespace
} // namespace pfits
